"""Reference decomposition by recursive mixture splits (test-only).

The paper's decomposition lemma and what it needs, kept here as the
reference the library is checked against:

- ``split_tree``: splits along a dependence until every leaf is
  independent, which takes at least 2^(N - d^2) - 1 splits for N rank-1
  terms, so keep N small.  The peel in ``decompose`` is checked against it.
- ``split_mixture``: one split of a POVM along a linear dependence of its
  effects into a proper mixture of two POVMs with fewer nonzero effects.
- ``find_effect_dependence``: a real dependence among the effects.
- ``linearly_independent``: a full complex SVD of the vectorized
  operators, returning a null vector; the library decides independence
  with ``independence_margin`` and ``banded_verdict`` instead.
"""

from dataclasses import dataclass

import numpy as np

from povm_forge import (
    DEFAULT_TOL,
    CertificateComponent,
    DecompositionCertificate,
    Povm,
    prune_zero_effects,
    spectral_relabel,
    validate,
)
from povm_forge.errors import DimensionMismatchError, EmptyInputError, PovmForgeError
from povm_forge.linalg import banded_verdict, hermitian_deviation


class NotADependenceError(PovmForgeError):
    """A claimed linear dependence does not annihilate the effects within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateDependenceError(PovmForgeError):
    """A dependence vector lacks a positive or a negative entry."""


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of a linear-independence test over complex scalars.

    ``margin`` is the smallest-to-largest singular-value ratio of the
    stacked vectorized operators (0.0 when there are more operators than
    the ambient dimension d^2 allows).  ``null_vector`` is a unit-norm
    dependence vector, populated only when the set is dependent; it has
    real entries whenever all input operators are Hermitian.
    """

    independent: bool
    null_vector: np.ndarray | None
    margin: float

    def __bool__(self):
        return self.independent


@dataclass(frozen=True)
class MixtureSplit:
    """Proper two-term mixture t*left + (1-t)*right of a source POVM."""

    left: Povm
    right: Povm
    weight: float
    dependence: np.ndarray


def _canonical_sign(vec):
    """Scale a vector so its largest-magnitude entry is real positive."""
    pivot = vec[np.argmax(np.abs(vec))]
    if abs(pivot) == 0.0:
        return vec
    return vec * (pivot.conjugate() / abs(pivot))


def linearly_independent(ops, tol=DEFAULT_TOL) -> IndependenceResult:
    """Test a list of same-dimension matrices for linear independence.

    The matrices are vectorized into the columns of a d^2 x K matrix and
    declared independent iff ``banded_verdict`` of its smallest-to-largest
    singular-value ratio says so.  When dependent, the right-singular
    direction of the smallest singular value is returned as a unit-norm
    dependence vector; for all-Hermitian inputs it is projected onto real
    coefficients (a real dependence exists whenever a complex one does).
    """
    mats = [np.asarray(op, dtype=np.complex128) for op in ops]
    if not mats:
        raise EmptyInputError("independence test requires at least one operator")
    d = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for a in mats:
        if a.ndim != 2 or a.shape != (d, d):
            raise DimensionMismatchError(
                f"all operators must be {d}x{d}, got shape {a.shape}"
            )
    k = len(mats)
    stack = np.stack(mats)
    # vh has null rows beyond the first d^2 only when K > d^2
    _, s, vh = np.linalg.svd(stack.reshape(k, d * d).T, full_matrices=k > d * d)
    s_max = float(s[0]) if s.size else 0.0
    if s_max == 0.0:
        # All operators are exactly zero; any unit vector is a dependence.
        null = np.zeros(k)
        null[0] = 1.0
        return IndependenceResult(independent=False, null_vector=null, margin=0.0)
    smallest = float(s[k - 1]) if k <= s.size else 0.0
    margin = smallest / s_max
    if banded_verdict(margin, tol)[0]:
        return IndependenceResult(independent=True, null_vector=None, margin=margin)

    null = vh[-1, :].conj()
    if np.all(hermitian_deviation(stack) <= tol.herm_tol):
        real_part, imag_part = null.real, null.imag
        null = real_part if np.linalg.norm(real_part) >= np.linalg.norm(imag_part) else imag_part
        null = null / np.linalg.norm(null)
    null = _canonical_sign(null)
    null.setflags(write=False)
    return IndependenceResult(independent=False, null_vector=null, margin=margin)


def find_effect_dependence(p, tol=DEFAULT_TOL):
    """Unit-norm real dependence among the effects, or None if independent.

    Expects a POVM without zero effects (prune first).  The test runs on
    unit-normalized effects and the dependence is mapped back through
    the norms, so the returned vector annihilates the raw effects and is
    suitable for :func:`split_mixture`.
    """
    norms = np.linalg.norm(p.effects, axis=(1, 2))
    result = linearly_independent(list(p.effects / norms[:, None, None]), tol)
    if result.independent:
        return None
    lam = result.null_vector / norms
    lam = lam / np.linalg.norm(lam)
    pivot = lam[np.argmax(np.abs(lam))]
    if pivot < 0.0:
        lam = -lam
    lam.setflags(write=False)
    return lam


def split_mixture(p, lam, tol=DEFAULT_TOL) -> MixtureSplit:
    """Split a POVM with linearly dependent effects into a proper mixture.

    Given real coefficients with ``sum_j lam[j] * p[j] ~ 0``, let i+ and
    i- index the largest and smallest coefficients (ties to the lowest
    index).  Then

        left[j]  = (1 - lam[j]/lam[i+]) * p[j],   left[i+]  = 0,
        right[j] = (1 - lam[j]/lam[i-]) * p[j],   right[i-] = 0,
        t = lam[i+] / (lam[i+] - lam[i-]),

    and ``t*left + (1-t)*right`` reconstructs ``p`` exactly.  Both
    outputs are valid POVMs with at least one fewer nonzero effect, and
    only depend on the ray of ``lam`` (it is normalized internally).
    """
    lam = np.asarray(lam)
    if np.iscomplexobj(lam):
        if float(np.max(np.abs(lam.imag))) > tol.recon_tol:
            raise NotADependenceError("dependence coefficients must be real")
        lam = lam.real
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (p.n_outcomes,):
        raise NotADependenceError(
            f"dependence must have {p.n_outcomes} entries, got shape {lam.shape}"
        )
    norm = float(np.linalg.norm(lam))
    if norm == 0.0:
        raise DegenerateDependenceError("dependence vector is zero")
    lam = lam / norm
    residual = float(np.linalg.norm(np.tensordot(lam, p.effects, axes=1)))
    if residual > tol.recon_tol:
        raise NotADependenceError(
            f"coefficients do not annihilate the effects: residual {residual:.3e} "
            f"(recon_tol = {tol.recon_tol:.3e})",
            residual=residual,
        )
    i_pos = int(np.argmax(lam))
    i_neg = int(np.argmin(lam))
    if lam[i_pos] <= 0.0 or lam[i_neg] >= 0.0:
        raise DegenerateDependenceError(
            "a dependence among nonzero PSD effects needs both positive and "
            "negative coefficients"
        )
    left = (1.0 - lam / lam[i_pos])[:, None, None] * p.effects
    left[i_pos] = 0.0
    right = (1.0 - lam / lam[i_neg])[:, None, None] * p.effects
    right[i_neg] = 0.0
    weight = float(lam[i_pos] / (lam[i_pos] - lam[i_neg]))
    lam.setflags(write=False)
    return MixtureSplit(
        left=validate(Povm(left), tol),
        right=validate(Povm(right), tol),
        weight=weight,
        dependence=lam,
    )


def split_tree(p, tol=DEFAULT_TOL) -> DecompositionCertificate:
    leaves = []

    def recurse(q, qmap, weight):
        q, keep = prune_zero_effects(q, tol)
        lam = find_effect_dependence(q, tol)
        if lam is None:
            leaves.append(CertificateComponent(weight, q, keep.then(qmap)))
            return
        split = split_mixture(q, lam, tol)
        recurse(split.left, keep.then(qmap), weight * split.weight)
        recurse(split.right, keep.then(qmap), weight * (1.0 - split.weight))

    pruned, prune_map = prune_zero_effects(validate(p, tol), tol)
    root, spectral_map = spectral_relabel(pruned, tol)
    recurse(root, spectral_map.then(prune_map), 1.0)
    return DecompositionCertificate(target=p, components=tuple(leaves))
