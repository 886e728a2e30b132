"""Extremality: the verdicts, the taxonomy and the rank-1 form of an extremal POVM.

A POVM is extremal in the convex set of POVMs iff, writing each nonzero
effect as a sum of outer products of nonzero mutually orthogonal vectors
``psi_k(j)``, the operators ``|psi_k(j)><psi_l(j)|`` (all j, and k, l up
to the effect's rank) are linearly independent.  For rank-1 POVMs this
reduces to independence of the effects themselves.

An effect's pair operators span the operators V X V^H on its range V,
whose Hermitian members have d^2 real coordinates
(``linalg.hermitian_coords``), so the test is one real SVD: a rank-1
effect enters as itself, unit-normalized, and only effects of rank >= 2
need eigenvectors.  One spectral pass of the Hermitian parts
(``povm._eigenvalues``) gives every rank: an effect that a rank-1 bound
(``linalg.rank1_interval``) settles gets the stand-in eigenvalues
(0, ..., 0, lam), which give it the verdicts its eigenvalues would, and
one ``eigvalsh`` takes the rest.  The verifier's independence test
(:func:`rank1_failures`) likewise settles most sets with a Cholesky bound
(``linalg.settled_independent``) and takes the SVD only for the rest, and
so does ``pair_independence``: its report takes the margin's SVD on first
read where the bound settled the verdict; ``classify`` reads the taxonomy
off it, and ``extremal_to_rank1`` the rank-1 form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    EmptyInputError,
    InternalContradictionError,
    NotExtremalError,
    NotExtremalRank1Error,
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
    settled_independent,
    unit_hermitian_basis,
)
from .povm import (
    _NO_RANK, Povm, RelabelMap, _checked, _effect_norms, _is_projection, _spectral_terms, _spectrum
)

__all__ = [
    "ExtremalityReport",
    "PovmClass",
    "NOT_EXTREMAL",
    "extremality_report",
    "pair_independence",
    "classify",
    "is_extremal",
    "extremal_to_rank1",
    "is_extremal_rank1",
    "rank1_failures",
]

NOT_EXTREMAL = "not_extremal_or_unknown"


@dataclass(frozen=True)
class ExtremalityReport:
    """Extremality verdict with its numerical margin.

    ``margin`` is the smallest/largest singular-value ratio of the
    stacked unit pair operators, taken in real Hermitian coordinates
    (the same singular values), and 0.0 when there are more than d^2 of
    them (``operator_count``); ``borderline`` flags verdicts decided
    within a factor of the independence cutoff.  Where a Cholesky bound
    proved the verdict, the report holds the rows it judged (not copied,
    and not compared: equal verdicts make equal reports), and the margin's
    SVD runs on the first read of ``margin``.
    """

    extremal: bool
    borderline: bool
    operator_count: int
    _rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    @cached_property
    def margin(self) -> float:
        return 0.0 if self._rows is None else float(independence_margin(self._rows))


@dataclass(frozen=True)
class PovmClass:
    """Classification record: rank-1 and PVM flags, type label, ranks, extremality report."""

    is_rank1: bool
    is_pvm: bool
    extremal_type: str
    rank_profile: tuple[int, ...]
    extremality: ExtremalityReport


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
    ``unit_hermitian_basis(r)``, an isometric image of its pair operators, after one
    batched ``eigh`` over those other effects.  A Cholesky bound
    (:func:`linalg.settled_independent`) on those at most d^2 x d^2 rows proves
    most independent sets extremal and not borderline, as ``banded_verdict`` of
    their margin would (the bound's docstring shows why); the report then takes
    the margin's SVD only when ``margin`` is read.  The sets it leaves open take
    one real SVD, singular values only, at once.  ``effects`` must be Hermitian (``require_hermitian``): the
    solvers read one triangle each.
    """
    d = effects.shape[-1]
    count = int(ranks @ ranks)
    if count == 0:
        raise EmptyInputError("independence test requires at least one operator")
    if count > d * d:
        return ExtremalityReport(False, False, count)
    n_plain = np.count_nonzero(plain)
    # the plain effects' rows first, the pair operators' after
    rows = hermitian_coords(effects if n_plain == len(effects) else effects[plain])
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
    if settled_independent(rows, tol):
        return ExtremalityReport(True, False, count, rows)
    margin = float(independence_margin(rows))
    report = ExtremalityReport(*banded_verdict(margin, tol), count)
    vars(report)["margin"] = margin  # where cached_property keeps it: no second SVD on read
    return report


def classify(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> PovmClass:
    """Rank-1 and PVM flags plus the extremality type label of a valid POVM.

    An invalid ``p`` raises what :func:`povm.validate` raises.  The validator's
    one spectral pass (``povm._spectrum``: the rank-1 bound settles what it can,
    ``eigvalsh`` the rest) gives the nonzero effects' ranks
    (:func:`linalg.effect_ranks`) and projection tests, and so the flags, the
    rank profile and the operators of :func:`pair_independence`.  Only effects
    with an eigenvalue above the rank cutoff count, in the flags and the rank
    profile.  The most specific label that holds wins: "a" rank-1, "b" projection
    valued, "c" every effect projection or rank-1, "d" extremal but none of these,
    else ``NOT_EXTREMAL``; a rank-1 basis PVM reports "a" with ``is_pvm`` still set.
    """
    effects, ranks, plain, w = _spectrum(p, tol)
    report = pair_independence(effects, ranks, plain, tol)
    projection, ranks = _is_projection(w, tol)[ranks > 0], ranks[ranks > 0]
    rank1 = bool(np.all(ranks == 1))
    pvm = bool(np.all(projection))
    if not report.extremal:
        label = NOT_EXTREMAL
    elif rank1:
        label = "a"
    elif pvm:
        label = "b"
    elif np.all((ranks == 1) | projection):
        # independent effects follow: unit effects are an isometric image of unit pair operators
        label = "c"
    else:
        label = "d"
    return PovmClass(rank1, pvm, label, tuple(ranks.tolist()), report)


def extremality_report(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> ExtremalityReport:
    """The report of :func:`classify`: :func:`pair_independence` of the nonzero effects."""
    return classify(p, tol).extremality


def is_extremal(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the POVM is an extreme point of the convex set of POVMs."""
    return extremality_report(p, tol).extremal


def extremal_to_rank1(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[Povm, RelabelMap]:
    """Write an extremal POVM as a relabeling of an extremal rank-1 POVM.

    One ``povm._spectrum`` pass checks the input (raising what it raises) and gives
    the verdict and the expansion, mapped onto the outcomes of ``p`` as by
    ``povm.spectral_relabel``.  That expansion of an extremal input is extremal; a failure
    on the output (only through tolerance inconsistency) raises ``InternalContradictionError``.
    """
    effects, ranks, plain, _ = _spectrum(p, tol)
    if not pair_independence(effects, ranks, plain, tol).extremal:
        raise NotExtremalError("input POVM is not extremal")
    sources, psi = _spectral_terms(effects, ranks, plain, tol)
    rank1 = Povm(psi[:, :, None] * psi.conj()[:, None, :])
    if not is_extremal_rank1(rank1, tol):
        raise InternalContradictionError(
            "spectral expansion of an extremal POVM failed the rank-1 "
            "extremality test (tolerance inconsistency)"
        )
    return rank1, RelabelMap(sources.size, p.n_outcomes, sources)


def is_extremal_rank1(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ``p`` is an extremal rank-1 POVM: :func:`rank1_failures` of one POVM.

    Raises its failure, in that order: the first :func:`violations` entry,
    else ``AllZeroError`` (every effect of rank 0) or ``NotRank1Error`` (one of
    rank > 1); only a dependence of the effects makes it False.
    """
    failure = rank1_failures(p.effects, [p.n_outcomes], tol)[0]
    if failure is not None and not isinstance(failure, NotExtremalRank1Error):
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
    Each POVM gets its first failure in this order: the first entry of its
    :func:`violations`, as ``validate`` raises it; else every effect of rank 0
    (``AllZeroError``) or one of rank > 1 (``NotRank1Error``); else the
    unit-normalized nonzero effects linearly dependent under the banded rule
    (``NotExtremalRank1Error``; more than d^2 always are).

    One validator pass (``povm._checked``: one Hermitian split, one
    :func:`povm._eigenvalues` pass, one ``np.add.reduceat`` sum) covers the
    stack and gives every POVM's violations, the Hermitian part and its
    eigenvalues, from which :func:`linalg.effect_ranks` counts every rank;
    ``povm._effect_norms`` marks the nonzero effects.  Each group of POVMs
    with equally many nonzero effects gets one batched Cholesky bound
    (:func:`linalg.settled_independent`) on the coordinates of its Hermitian
    parts; the POVMs it does not settle take one SVD, whose margin the banded
    rule judges.  Both give the same verdicts.
    """
    effects = np.ascontiguousarray(effects, dtype=np.complex128)
    sizes = np.asarray(sizes)
    valid = sizes.dtype.kind in "iu" and sizes.ndim == 1 and sizes.size and (sizes >= 1).all()
    if not (valid and sizes.sum() == len(effects)):
        raise DimensionMismatchError(
            f"sizes {sizes.tolist()} must be integers >= 1 summing to the {len(effects)} effects"
        )
    d = effects.shape[-1]
    starts = sizes.cumsum() - sizes
    povm_failures, hermitian, w = _checked(effects, sizes.tolist(), tol)
    norms, nonzero = _effect_norms(effects, tol)
    ranks = nonzero * effect_ranks(w, tol)[0]
    counts = np.add.reduceat(ranks > 0, starts, dtype=np.intp)
    top = np.maximum.reduceat(ranks, starts).tolist()  # 0: no nonzero effect of rank >= 1

    failures = [found[0] if found else None for found in povm_failures]
    for i in [i for i, failure in enumerate(failures) if failure is None and top[i] != 1]:
        if top[i] == 0:
            failures[i] = AllZeroError(_NO_RANK)
        else:
            part = ranks[starts[i]:starts[i] + sizes[i]]
            j = int(np.argmax(part > 1))
            failures[i] = NotRank1Error(f"nonzero effect {j} has rank {part[j]}, expected 1")

    # independence of the unit-normalized nonzero effects, so that small ones cannot pass for
    # null directions: per group of POVMs with m of them (m > d^2: dependent), one Cholesky
    # bound, then one SVD of what it leaves open; only POVMs that passed, whose effects are all
    # finite, have their coordinates taken
    passed = np.array([failure is None for failure in failures])
    for m in np.flatnonzero(np.bincount(counts[passed])).tolist():
        members = passed & (counts == m)
        if m <= d * d:
            picked = (ranks > 0) & np.repeat(members, sizes)
            rows = hermitian_coords(hermitian[picked]).reshape(-1, m, d * d)
            rows /= norms[picked].reshape(-1, m, 1)
            independent = settled_independent(rows, tol)
            unsettled = ~independent
            if unsettled.any():
                independent[unsettled] = banded_verdict(independence_margin(rows[unsettled]), tol)[0]
        else:
            independent = np.zeros(np.count_nonzero(members), dtype=bool)
        for i in np.flatnonzero(members)[~independent].tolist():
            failures[i] = NotExtremalRank1Error(
                f"its {m} nonzero effects are linearly dependent (d^2 = {d * d})"
            )
    return failures
