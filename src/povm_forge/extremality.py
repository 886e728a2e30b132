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
    DegenerateDependenceError,
    NotADependenceError,
    NotHermitianError,
    NotRank1Error,
)
from .linalg import (
    DEFAULT_TOL,
    IndependenceResult,
    ToleranceConfig,
    eig_herm,
    linearly_independent,
)
from .povm import Povm, prune_zero_effects, validate

__all__ = [
    "SpectralForm",
    "MixtureSplit",
    "ExtremalityReport",
    "spectral_form",
    "extremality_report",
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
            for k in range(block.shape[0]):
                for l in range(block.shape[0]):
                    ops.append(np.outer(block[k], block[l].conj()))
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
    blocks = []
    for e in p.effects:
        dec = eig_herm(e, tol)
        cutoff = tol.rank_tol * max(1.0, float(np.abs(dec.eigenvalues).max()))
        keep = [
            np.sqrt(lam) * dec.eigenvectors[:, k]
            for k, lam in enumerate(dec.eigenvalues)
            if lam > cutoff
        ]
        block = np.stack(keep) if keep else np.zeros((0, p.dim), dtype=np.complex128)
        block.setflags(write=False)
        blocks.append(block)
    return SpectralForm(vectors=tuple(blocks))


def independence_cutoff(tol: ToleranceConfig) -> float:
    """Margin a set of operators must exceed to count as independent."""
    return tol.indep_tol * _BORDERLINE_FACTOR


def banded_verdict(result: IndependenceResult, tol: ToleranceConfig) -> tuple[bool, bool]:
    """(independent, borderline) with a safety band around the cutoff."""
    low = tol.indep_tol / _BORDERLINE_FACTOR
    high = independence_cutoff(tol)
    independent = result.margin > high
    borderline = low < result.margin <= high
    return independent, borderline


def _scale_free_independent(ops, tol: ToleranceConfig) -> IndependenceResult:
    """Independence of a set of nonzero operators, tested scale-free.

    Each operator is unit-normalized before the rank test, which answers
    the same mathematical question but stops small-norm operators from
    masquerading as null directions.
    """
    return linearly_independent([op / np.linalg.norm(op) for op in ops], tol)


def extremality_report(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> ExtremalityReport:
    """Full extremality analysis of a valid POVM.

    Prunes zero effects, builds the pair operators of the spectral form,
    and tests their linear independence over complex scalars.
    """
    pruned, _ = prune_zero_effects(p, tol)
    ops = spectral_form(pruned, tol).pair_operators()
    result = _scale_free_independent(ops, tol)
    independent, borderline = banded_verdict(result, tol)
    return ExtremalityReport(
        extremal=independent,
        borderline=borderline,
        margin=result.margin,
        operator_count=len(ops),
    )


def is_extremal(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the POVM is an extreme point of the convex set of POVMs."""
    return extremality_report(p, tol).extremal


def is_extremal_rank1(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Extremality test for rank-1 POVMs: independence of the nonzero effects."""
    pruned, _ = prune_zero_effects(p, tol)
    effects = pruned.effects
    deviation = np.max(np.abs(effects - effects.conj().transpose(0, 2, 1)), axis=(1, 2))
    if np.any(deviation > tol.herm_tol):
        j = int(np.argmax(deviation > tol.herm_tol))
        raise NotHermitianError(
            f"nonzero effect {j} deviates from Hermitian symmetry by {deviation[j]:.3e} "
            f"(herm_tol = {tol.herm_tol:.3e})"
        )
    # the rank_of rule, applied to the whole stack with one batched eigvalsh
    w = np.abs(np.linalg.eigvalsh(effects))
    ranks = np.count_nonzero(w > tol.rank_tol * np.maximum(1.0, w.max(axis=1))[:, None], axis=1)
    if np.any(ranks != 1):
        j = int(np.argmax(ranks != 1))
        raise NotRank1Error(f"nonzero effect {j} has rank {ranks[j]}, expected 1")
    result = _scale_free_independent(list(pruned.effects), tol)
    independent, _ = banded_verdict(result, tol)
    return independent


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
    result = linearly_independent(
        [e / n for e, n in zip(p.effects, norms)], tol
    )
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
