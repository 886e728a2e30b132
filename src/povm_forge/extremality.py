"""Extremality tests and the constructive mixture split.

A POVM is extremal in the convex set of POVMs iff, writing each nonzero
effect as a sum of outer products of nonzero mutually orthogonal vectors
``psi_k(j)``, the operators ``|psi_k(j)><psi_l(j)|`` (all j, and k, l up
to the effect's rank) are linearly independent.  For rank-1 POVMs this
reduces to independence of the effects themselves.

When the nonzero effects are linearly dependent, ``split_mixture`` turns
any dependence vector into two distinct POVMs whose convex combination
reconstructs the input, each with strictly fewer nonzero effects.  The
decomposer walks the same null directions, but in coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    DegenerateDependenceError,
    EmptyInputError,
    NotADependenceError,
    NotRank1Error,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    ToleranceConfig,
    eig_herm,
    linearly_independent,
    rank_cutoff,
    require_hermitian,
)
from .povm import Povm, prune_zero_effects, validate

__all__ = [
    "SpectralForm",
    "MixtureSplit",
    "ExtremalityReport",
    "spectral_form",
    "extremality_report",
    "pair_independence",
    "is_extremal",
    "is_extremal_rank1",
    "find_effect_dependence",
    "banded_verdict",
    "independence_cutoff",
    "split_mixture",
]

# Verdicts require a margin clear of the independence cutoff by this
# factor on either side; inside the band the verdict is "not extremal"
# with the borderline flag set (a false split is caught by
# reconstruction checks, a false "extremal" would not be).
_BORDERLINE_FACTOR = 2.0


@dataclass(frozen=True)
class SpectralForm:
    """Per-outcome spectral vectors: effect j = sum_k |psi_k(j)><psi_k(j)|.

    ``vectors[j]`` is an (n(j), d) array whose rows are the nonzero,
    mutually orthogonal vectors of effect j (eigenvalue absorbed:
    psi_k = sqrt(lambda_k) v_k).  A zero effect yields an empty block.
    """

    vectors: tuple[np.ndarray, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(block.shape[0] for block in self.vectors)

    def reconstruct(self, j: int) -> np.ndarray:
        block = self.vectors[j]
        return block.T @ block.conj()

    def pair_operators(self) -> list[np.ndarray]:
        """All |psi_k(j)><psi_l(j)| with k, l within each outcome j."""
        ops = []
        for block in self.vectors:
            n, d = block.shape
            ops.extend(np.einsum("ki,lj->klij", block, block.conj()).reshape(n * n, d, d))
        return ops


@dataclass(frozen=True)
class MixtureSplit:
    """Proper two-term mixture t*left + (1-t)*right of a source POVM."""

    left: Povm
    right: Povm
    weight: float
    dependence: np.ndarray


@dataclass(frozen=True)
class ExtremalityReport:
    """Extremality verdict with its numerical margin.

    ``margin`` is the smallest/largest singular-value ratio of the
    stacked pair operators; ``borderline`` flags verdicts decided within
    a factor of the independence cutoff.
    """

    extremal: bool
    borderline: bool
    margin: float
    operator_count: int


def spectral_form(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralForm:
    """Spectral vectors of every effect, eigenvalues above the rank cutoff.

    Callers interested in extremality should prune zero effects first;
    a zero effect is represented by an empty vector block.
    """
    dec = eig_herm(p.effects, tol)
    w = dec.eigenvalues
    j, k = np.nonzero(w > rank_cutoff(w, tol))
    rows = np.sqrt(w[j, k])[:, None] * dec.eigenvectors[j, :, k]
    rows.setflags(write=False)  # the blocks below are views
    blocks = np.split(rows, np.cumsum(np.bincount(j, minlength=p.n_outcomes))[:-1])
    return SpectralForm(vectors=tuple(blocks))


def independence_cutoff(tol: ToleranceConfig) -> float:
    """Margin a set of operators must exceed to count as independent."""
    return tol.indep_tol * _BORDERLINE_FACTOR


def banded_verdict(margin: float, tol: ToleranceConfig) -> tuple[bool, bool]:
    """(independent, borderline) of a margin, with a safety band around the cutoff."""
    low = tol.indep_tol / _BORDERLINE_FACTOR
    high = independence_cutoff(tol)
    return margin > high, low < margin <= high


def _unit_verdict(ops: np.ndarray, tol: ToleranceConfig) -> tuple[bool, bool, float]:
    """(independent, borderline, margin) of at most d^2 unit-norm operators, by singular values."""
    s = np.linalg.svd(ops.reshape(ops.shape[0], -1), compute_uv=False)
    margin = float(s[-1] / s[0])
    return *banded_verdict(margin, tol), margin


def pair_independence(
    dec: SpectralDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> ExtremalityReport:
    """Extremality verdict from the batched eigensystem of the nonzero effects.

    Tests the unit-norm pair operators v_k(j) v_l(j)^H of the terms above
    the rank cutoff; more than d^2 of them are dependent without an SVD.
    """
    w, v = dec.eigenvalues, dec.eigenvectors
    keep = w > rank_cutoff(w, tol)
    d = v.shape[-1]
    count = int(np.sum(np.count_nonzero(keep, axis=1) ** 2))
    if count == 0:
        raise EmptyInputError("independence test requires at least one operator")
    if count > d * d:
        return ExtremalityReport(False, False, 0.0, count)
    j, k, l = np.nonzero(keep[:, :, None] & keep[:, None, :])  # (outcome, k, l) order
    ops = np.einsum("ni,nj->nij", v[j, :, k], v[j, :, l].conj())
    return ExtremalityReport(*_unit_verdict(ops, tol), count)


def extremality_report(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality analysis of a valid POVM: :func:`pair_independence` of its nonzero effects."""
    pruned, _ = prune_zero_effects(p, tol)
    return pair_independence(eig_herm(pruned.effects, tol), tol)


def is_extremal(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the POVM is an extreme point of the convex set of POVMs."""
    return extremality_report(p, tol).extremal


def is_extremal_rank1(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Extremality test for rank-1 POVMs: independence of the nonzero effects."""
    pruned, _ = prune_zero_effects(p, tol)
    effects = require_hermitian(pruned.effects, tol)
    w = np.linalg.eigvalsh(effects)
    ranks = np.count_nonzero(np.abs(w) > rank_cutoff(w, tol), axis=1)
    effects = effects[ranks > 0]  # as in pair_independence, a rank-0 effect does not count
    if not effects.shape[0]:
        raise AllZeroError("no effect has an eigenvalue above the rank cutoff")
    if np.any(ranks > 1):
        j = int(np.argmax(ranks > 1))
        raise NotRank1Error(f"nonzero effect {j} has rank {ranks[j]}, expected 1")
    if effects.shape[0] > pruned.dim ** 2:
        return False  # more effects than the d^2-dimensional operator space holds
    # unit-normalized, so that small-norm effects cannot pass for null directions
    return _unit_verdict(effects / np.linalg.norm(effects, axis=(1, 2), keepdims=True), tol)[0]


def find_effect_dependence(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray | None:
    """Unit-norm real dependence among the effects, or None if independent.

    Expects a POVM without zero effects (prune first).  The test runs on
    unit-normalized effects and the dependence is mapped back through
    the norms, so the returned vector annihilates the raw effects and is
    suitable for :func:`split_mixture`.
    """
    norms = p.effect_norms()
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


def split_mixture(
    p: Povm, lam, tol: ToleranceConfig = DEFAULT_TOL
) -> MixtureSplit:
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
