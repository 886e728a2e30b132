"""Extremality tests.

A POVM is extremal in the convex set of POVMs iff, writing each nonzero
effect as a sum of outer products of nonzero mutually orthogonal vectors
``psi_k(j)``, the operators ``|psi_k(j)><psi_l(j)|`` (all j, and k, l up
to the effect's rank) are linearly independent.  For rank-1 POVMs this
reduces to independence of the effects themselves.

An effect's pair operators span the operators V X V^H on its range V,
whose Hermitian members have d^2 real coordinates
(``linalg.hermitian_coords``), so the test is one real SVD: a rank-1
effect enters as itself, unit-normalized, and only effects of rank >= 2
need eigenvectors.  One spectral pass (``povm._eigenvalues``) gives every
rank: an effect that a rank-1 bound (``linalg.rank1_interval``) settles gets
the stand-in eigenvalues (0, ..., 0, lam), which give it the verdicts its
eigenvalues would, and one ``eigvalsh`` takes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteError,
    NotExtremalRank1Error,
    NotHermitianError,
    NotRank1Error,
    PovmForgeError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    banded_verdict,
    effect_ranks,
    hermitian_coords,
    independence_margin,
    unit_hermitian_basis,
)
from .povm import Povm, _checked, _effect_norms, _spectrum

__all__ = [
    "ExtremalityReport",
    "extremality_report",
    "pair_independence",
    "is_extremal",
    "is_extremal_rank1",
    "rank1_failures",
]


@dataclass(frozen=True)
class ExtremalityReport:
    """Extremality verdict with its numerical margin.

    ``margin`` is the smallest/largest singular-value ratio of the
    stacked unit pair operators, taken in real Hermitian coordinates
    (the same singular values), and 0.0 when there are more than d^2 of
    them (``operator_count``); ``borderline`` flags verdicts decided
    within a factor of the independence cutoff.
    """

    extremal: bool
    borderline: bool
    margin: float
    operator_count: int


def pair_independence(
    effects: np.ndarray,
    ranks: np.ndarray,
    plain: np.ndarray,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ExtremalityReport:
    """Extremality verdict of a Hermitian effect stack from its :func:`linalg.effect_ranks`.

    An effect of rank r (``ranks``) contributes the r^2 unit pair operators
    v_k v_l^H of its top eigenvectors; more than d^2 of them are dependent
    without an SVD.  Otherwise they enter as real rows: a ``plain`` rank-1 effect
    as hermitian_coords(E) / |E|_F, and any other effect of rank r as
    hermitian_coords(V B V^H) for its top r eigenvectors V and each B of
    ``unit_hermitian_basis(r)``, an isometric image of its pair operators.  One
    batched ``eigh`` over those other effects and one real SVD of at most
    d^2 x d^2, singular values only, give the margin.  ``effects`` must be
    symmetrized (``hermitian_part``): the solvers read one triangle each.
    """
    d = effects.shape[-1]
    count = int(ranks @ ranks)
    if count == 0:
        raise EmptyInputError("independence test requires at least one operator")
    if count > d * d:
        return ExtremalityReport(False, False, 0.0, count)
    rows = hermitian_coords(effects)  # the plain effects' rows first, the pair operators' after
    n_plain = np.count_nonzero(plain)
    if n_plain < len(rows):
        rows = rows[plain]
    if n_plain < count:
        spread = ~plain & (ranks > 0)
        vectors, spread_ranks = np.linalg.eigh(effects[spread])[1], ranks[spread]
        ops = np.empty((count - n_plain, d, d), dtype=np.complex128)
        start = 0
        for r in np.flatnonzero(np.bincount(spread_ranks)).tolist():
            top = vectors[spread_ranks == r][..., d - r:]  # eigh is ascending
            stop = start + len(top) * r * r
            np.matmul(
                top[:, None] @ unit_hermitian_basis(r),
                top.conj().swapaxes(-1, -2)[:, None],
                out=ops[start:stop].reshape(len(top), r * r, d, d),
            )
            start = stop
        rows = np.concatenate([rows, hermitian_coords(ops)])
    rows[:n_plain] /= np.linalg.norm(rows[:n_plain], axis=1, keepdims=True)
    margin = float(independence_margin(rows))
    return ExtremalityReport(*banded_verdict(margin, tol), margin, count)


def extremality_report(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> ExtremalityReport:
    """Extremality analysis of a valid POVM: :func:`pair_independence` of its nonzero effects."""
    _, effects, ranks, plain, _ = _spectrum(p, tol)
    return pair_independence(effects, ranks, plain, tol)


def is_extremal(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the POVM is an extreme point of the convex set of POVMs."""
    return extremality_report(p, tol).extremal


def is_extremal_rank1(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ``p`` is an extremal rank-1 POVM: :func:`rank1_failures` of one POVM.

    Raises ``NonFiniteError`` or ``NotHermitianError`` (as :func:`violations`
    words them), ``AllZeroError`` or ``NotRank1Error`` where the test cannot
    apply; an effect outside [0, I], a sum off I or a dependence makes it False.
    """
    failure = rank1_failures(p.effects, [p.n_outcomes], tol)[0]
    if isinstance(failure, (NonFiniteError, AllZeroError, NotHermitianError, NotRank1Error)):
        raise failure
    return failure is None


def rank1_failures(
    effects: np.ndarray, sizes, tol: ToleranceConfig = DEFAULT_TOL
) -> list[PovmForgeError | None]:
    """Why each POVM of a ragged stack is not an extremal rank-1 POVM; None where it is.

    ``effects`` concatenates the (n_i, d, d) effect stacks of the POVMs and
    ``sizes`` lists the integers n_i >= 1, at least one, summing to len(effects)
    (else ``DimensionMismatchError``).  Zero effects (norm <= zero_effect_tol) and
    rank-0 ones (no eigenvalue above the rank cutoff) do not count as nonzero.
    Each POVM gets its first failure in this order: a non-finite entry; no
    nonzero effect (``AllZeroError``); an effect not Hermitian; every
    nonzero effect of rank 0 (``AllZeroError``); one of rank > 1
    (``NotRank1Error``); an effect outside [0, I]; a sum off I; last, the
    unit-normalized nonzero effects linearly dependent under the banded rule
    (``NotExtremalRank1Error``; more than d^2 always are).  The non-finite,
    Hermitian, [0, I] and sum failures are entries of the POVM's
    ``violations``, worded as ``validate`` words them.

    One validator pass (``povm._checked``: one Hermitian check, one
    :func:`povm._eigenvalues` pass, one ``np.add.reduceat`` sum) covers the
    stack and gives every POVM's violations and its eigenvalues, from which
    :func:`linalg.effect_ranks` counts every rank; ``povm._effect_norms``
    marks the nonzero effects.  Each group of POVMs with equally many
    nonzero effects gets one SVD.
    """
    effects = np.asarray(effects, dtype=np.complex128)
    sizes = np.asarray(sizes)
    valid = sizes.dtype.kind in "iu" and sizes.ndim == 1 and sizes.size and (sizes >= 1).all()
    if not (valid and sizes.sum() == len(effects)):
        raise DimensionMismatchError(
            f"sizes {sizes.tolist()} must be integers >= 1 summing to the {len(effects)} effects"
        )
    d = effects.shape[-1]
    starts = sizes.cumsum() - sizes
    povm_failures, w = _checked(effects, sizes.tolist(), tol)
    norms, nonzero = _effect_norms(effects, tol)
    ranks = nonzero * effect_ranks(w, tol)[0]
    counts = np.add.reduceat(ranks > 0, starts, dtype=np.intp)
    top = np.maximum.reduceat(ranks, starts).tolist()  # 0: no nonzero effect of rank >= 1

    failures: list[PovmForgeError | None] = [None] * sizes.size
    for i in [i for i, found in enumerate(povm_failures) if found or top[i] != 1]:
        found, part = povm_failures[i], slice(starts[i], starts[i] + sizes[i])
        kinds = [type(exc) for exc in found]
        if NonFiniteError in kinds:
            failures[i] = found[0]  # violations reports nothing else then
        elif not nonzero[part].any():
            failures[i] = AllZeroError("every effect is numerically zero")
        elif NotHermitianError in kinds:
            failures[i] = found[kinds.index(NotHermitianError)]
        elif top[i] == 0:
            failures[i] = AllZeroError("no effect has an eigenvalue above the rank cutoff")
        elif top[i] > 1:
            j = int(np.argmax(ranks[part] > 1))
            failures[i] = NotRank1Error(f"nonzero effect {j} has rank {ranks[part][j]}, expected 1")
        else:
            failures[i] = found[0]  # outside [0, I] effect by effect, then the sum

    # independence of the unit-normalized nonzero effects, so that small ones cannot pass for
    # null directions: one SVD per group of POVMs with m of them (m > d^2: dependent); only
    # POVMs that passed, whose effects are all finite, have their coordinates taken
    passed = np.array([failure is None for failure in failures])
    for m in np.flatnonzero(np.bincount(counts[passed])).tolist():
        members = passed & (counts == m)
        if m <= d * d:
            picked = (ranks > 0) & np.repeat(members, sizes)
            rows = hermitian_coords(effects[picked])
            rows /= norms[picked, None]
            independent = banded_verdict(independence_margin(rows.reshape(-1, m, d * d)), tol)[0]
        else:
            independent = np.zeros(np.count_nonzero(members), dtype=bool)
        for i in np.flatnonzero(members)[~independent].tolist():
            failures[i] = NotExtremalRank1Error(
                f"its {m} nonzero effects are linearly dependent (d^2 = {d * d})"
            )
    return failures
