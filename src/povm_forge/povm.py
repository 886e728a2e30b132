"""POVM domain model: validation, pruning, relabeling, mixing, classification.

A POVM is an ordered list of d x d Hermitian PSD effects summing to the
identity.  Zero effects are permitted (an outcome that never fires); two
POVMs differing only in zero effects are equivalent.  Relabeling merges
outcomes through a total map f, mixing forms convex combinations, and
``spectral_relabel`` rewrites any POVM as a relabeling of a rank-1 POVM
with at most N*d outcomes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AllZeroError,
    BadWeightError,
    DimensionMismatchError,
    EmptyInputError,
    MapSizeMismatchError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    PovmForgeError,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _fix_phases,
    effect_ranks,
    eig_herm,
    hermitian_deviation,
    hermitian_part,
    rank1_interval,
)

if TYPE_CHECKING:
    from .extremality import ExtremalityReport

__all__ = [
    "Povm",
    "RelabelMap",
    "PovmClass",
    "EXTREMAL_TYPES",
    "NOT_EXTREMAL",
    "violations",
    "validate",
    "prune_zero_effects",
    "relabel",
    "mix",
    "spectral_relabel",
    "classify",
    "equivalent",
]

#: Extremality taxonomy labels reported by :func:`classify`, most specific first:
#: "a" rank-1 with independent effects, "b" projection valued, "c" every nonzero
#: effect projection-or-rank-1 with independent effects, "d" extremal but none of
#: the former.
EXTREMAL_TYPES = ("a", "b", "c", "d")
NOT_EXTREMAL = "not_extremal_or_unknown"


@dataclass(frozen=True)
class Povm:
    """Ordered finite-outcome measurement on a d-dimensional space.

    ``effects`` is an (n, d, d) complex array, immutable after
    construction.  Construction only checks shape; use :func:`validate`
    for the full domain invariants.
    """

    effects: np.ndarray

    def __post_init__(self):
        try:
            arr = np.array(self.effects, dtype=np.complex128)  # a copy: the caller keeps its array
        except (ValueError, TypeError) as exc:
            raise DimensionMismatchError(f"effects are not a uniform complex array: {exc}")
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"effects must have shape (n, d, d), got {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyInputError("a POVM needs at least one effect on dimension >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "effects", arr)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def __len__(self) -> int:
        return self.n_outcomes

    def __iter__(self):
        return iter(self.effects)

    def to_jsonable(self) -> dict:
        """POVM document: {"dim": d, "effects": [{"re": [[..]], "im": [[..]]}, ..]}."""
        return {
            "dim": self.dim,
            "effects": [
                {"re": e.real.tolist(), "im": e.imag.tolist()} for e in self.effects
            ],
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Povm":
        """Parse the POVM document schema; raises ValueError on malformed input.

        ``dim`` must be an integer and every matrix entry a number (integer
        literals accepted); strings and booleans are refused, not coerced.
        """
        try:
            d = int(_json_numbers(obj["dim"], "iu", "dim", scalar=True))
            raw = obj["effects"]
            re = _json_numbers([entry["re"] for entry in raw], "iuf", "matrix entries")
            im = _json_numbers([entry["im"] for entry in raw], "iuf", "matrix entries")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed POVM document: {exc}") from exc
        if not len(raw):
            raise ValueError("POVM document lists no effects")
        if re.shape != (len(raw), d, d) or im.shape != re.shape:
            raise ValueError(
                f"effects must be {d}x{d}, got re {re.shape[1:]}, im {im.shape[1:]}"
            )
        return cls(re + 1j * im)


def _json_numbers(value, kinds: str, what: str, scalar: bool = False) -> np.ndarray:
    """``value`` as an array whose dtype kind is in ``kinds`` ("iu": integers, "iuf": numbers).

    A string, boolean, null or fractional integer is refused with
    ValueError rather than coerced.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in kinds or (scalar and arr.ndim):
        one, many = ("an integer", "integers") if kinds == "iu" else ("a number", "numbers")
        raise ValueError(f"{what} must be {one}, got {value!r}" if scalar else f"{what} must be {many}")
    return arr


@dataclass(frozen=True)
class RelabelMap:
    """Total map from N source outcomes to M target outcomes.

    ``targets`` holds 0-based target indices; the JSON wire format uses
    1-based labels.  Under :func:`relabel`, target outcome j collects the
    sum of source effects with ``targets[k] == j`` (empty preimages give
    the zero effect).
    """

    source_size: int
    target_size: int
    targets: np.ndarray

    def __post_init__(self):
        arr = np.array(self.targets, dtype=np.int64)
        if arr.shape != (self.source_size,):
            raise MapSizeMismatchError(
                f"map must have {self.source_size} entries, got shape {arr.shape}"
            )
        if self.target_size < 1:
            raise MapSizeMismatchError("target size must be >= 1")
        if arr.size and (arr.min() < 0 or arr.max() >= self.target_size):
            raise MapSizeMismatchError(
                f"map entries must lie in [0, {self.target_size - 1}]"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "targets", arr)

    @classmethod
    @lru_cache(maxsize=64)
    def identity(cls, n: int) -> "RelabelMap":
        """The map k -> k on n outcomes, built once per n (it is immutable)."""
        return cls(n, n, np.arange(n))

    def then(self, outer: "RelabelMap") -> "RelabelMap":
        """Composition: first apply self, then ``outer`` (outer o self)."""
        if outer.source_size != self.target_size:
            raise MapSizeMismatchError(
                f"cannot compose: inner target size {self.target_size} "
                f"!= outer source size {outer.source_size}"
            )
        return RelabelMap(self.source_size, outer.target_size, outer.targets[self.targets])

    def to_jsonable(self) -> list[int]:
        return [int(t) + 1 for t in self.targets]

    @classmethod
    def from_jsonable(cls, entries, target_size: int) -> "RelabelMap":
        """Parse 1-based labels; raises ValueError unless they are a list of integers."""
        arr = _json_numbers(entries, "iu", "relabel map entries")
        if arr.ndim != 1:
            raise ValueError("relabel map entries must be a list of integers")
        return cls(arr.shape[0], target_size, arr - 1)


@dataclass(frozen=True)
class PovmClass:
    """Classification record: rank-1 and PVM flags, type label, ranks, extremality report."""

    is_rank1: bool
    is_pvm: bool
    extremal_type: str
    rank_profile: tuple[int, ...] = ()
    extremality: ExtremalityReport | None = None


def _checked(
    effects: np.ndarray, sizes, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[list[list[PovmForgeError]], np.ndarray]:
    """:func:`violations` of each POVM of a ragged stack, and its :func:`_eigenvalues` ``w``.

    ``effects`` concatenates the POVMs' effect stacks, of the (checked) ``sizes``.
    One ``isfinite``, Hermitian deviation, :func:`_eigenvalues` pass and
    ``np.add.reduceat`` sum cover the stack; every verdict read from ``w`` is
    the one ``eigvalsh`` would give.  Errors are built only where a check
    fails.  The deviation, the eigenvalues and the sum read a non-finite
    effect as zero, and its POVM reports its non-finite effects only.
    """
    ends = list(accumulate(sizes))
    starts = [0, *ends[:-1]]
    finite = np.isfinite(effects).all(axis=(1, 2))
    clean = effects if finite.all() else np.where(finite[:, None, None], effects, 0.0)
    deviation = hermitian_deviation(clean)
    w = _eigenvalues(clean, deviation, tol)
    sums = np.add.reduceat(clean, starts) - np.eye(effects.shape[-1])
    with np.errstate(over="ignore"):  # entries near 1e300: an infinite residual, which fails
        residuals = np.linalg.norm(sums, axis=(1, 2))
    failing = ~finite | (deviation > tol.herm_tol)
    failing |= (w[:, 0] < -tol.psd_tol) | (w[:, -1] > 1 + tol.psd_tol)
    owners = {k: bisect_right(ends, k) for k in np.flatnonzero(failing).tolist()}
    broken = {i for k, i in owners.items() if not finite[k]}  # report non-finite effects only
    found: list[list[PovmForgeError]] = [[] for _ in range(len(sums))]
    for k, i in owners.items():
        j = k - starts[i]
        if i in broken:
            if not finite[k]:
                found[i].append(NonFiniteError(f"effect {j} has a non-finite entry", outcome=j))
            continue
        if deviation[k] > tol.herm_tol:
            found[i].append(NotHermitianError(
                f"effect {j}: matrix deviates from Hermitian symmetry by {deviation[k]:.3e} "
                f"(herm_tol = {tol.herm_tol:.3e})"
            ))
            continue
        if w[k, 0] < -tol.psd_tol:
            found[i].append(NotPSDError(
                f"effect {j} is not PSD: smallest eigenvalue {w[k, 0]:.3e}", outcome=j
            ))
        if w[k, -1] > 1 + tol.psd_tol:
            found[i].append(NotPSDError(
                f"effect {j} exceeds the identity: largest eigenvalue {w[k, -1]:.6g}", outcome=j
            ))
    for i, residual in enumerate(residuals.tolist()):
        if residual > tol.recon_tol and i not in broken:
            found[i].append(NotNormalizedError(
                f"effects do not sum to the identity: normalization residual {residual:.3e} "
                f"(recon_tol = {tol.recon_tol:.3e})", residual=residual
            ))
    return found, w


# The bound costs about 25 NumPy calls whatever the stack's size (some 60 us on a
# 2-CPU x86_64 host), eigvalsh about 1 us per 4 x 4 effect and 9 us per 8 x 8 one:
# below some 400 entries n d^2 eigvalsh is cheaper.  A stack of at most d effects
# is a basis or holds full-rank effects, which the bound never settles.
_BOUND_MIN_ENTRIES = 400


def _eigenvalues(effects: np.ndarray, deviation, tol: ToleranceConfig) -> np.ndarray:
    """Ascending eigenvalues ``w`` of an (n, d, d) stack, or certified stand-ins for them.

    ``deviation`` is the stack's Hermitian deviation (0 for a Hermitian one).
    An effect is settled when the box of :func:`linalg.rank1_interval`, the top
    eigenvalue in lam +- rho and the rest in +-rho, holds only vectors that
    :func:`linalg.effect_ranks` finds plain rank 1, that lie inside [0, I]
    (rho <= psd_tol, lam + rho <= 1 + psd_tol) and that :func:`_projection_bounds`
    gives one projection verdict.  Its row is the box's centre (0, ..., 0, lam),
    which gets those verdicts too; the other rows take one ``eigvalsh``.  The
    rank rule holds for the whole box when it holds for the corner with the top
    at lam - rho, the smallest at -rho and the rest at +rho: that has the
    lowest cutoff and the largest rest, and the cutoff only grows with the top
    (float rounding is monotone, so this holds as computed).  A small stack
    takes one ``eigvalsh`` whole.
    """
    n, d = effects.shape[:2]
    if n <= d or n * d * d <= _BOUND_MIN_ENTRIES:
        return np.linalg.eigvalsh(effects)
    lam, rho = rank1_interval(effects, deviation)
    corner = np.repeat(rho[:, None], d, axis=1)
    corner[:, 0] = -rho
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: nothing is settled
        corner[:, -1] = lam - rho
        inside = (rho <= tol.psd_tol) & (lam + rho <= 1 + tol.psd_tol)
    projection, other = _projection_bounds(lam, rho, d, tol)
    settled = effect_ranks(corner, tol)[1] & inside & (projection | other)
    w = np.zeros((n, d))
    w[:, -1] = lam  # the stand-ins; eigvalsh overwrites the other rows whole
    if not settled.all():
        w[~settled] = np.linalg.eigvalsh(effects[~settled])
    return w


def violations(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[PovmForgeError]:
    """Every violated POVM invariant, in check order; an empty list means valid.

    Every entry must be finite; if one is not, only the non-finite effects
    are reported.  Then, effect by effect: Hermitian (herm_tol; a
    non-Hermitian effect is not judged further), PSD (psd_tol), and
    bounded by the identity (psd_tol slack).  Last, the effects must sum
    to the identity within recon_tol in Frobenius norm (an entry near
    overflow gives an infinite residual).  This is the one validator pass
    (``_checked``, its eigenvalues from :func:`_eigenvalues`) that
    ``extremality.rank1_failures`` runs over a certificate's stack of components.
    """
    return _checked(p.effects, (p.n_outcomes,), tol)[0][0]


def validate(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> Povm:
    """Return ``p`` unchanged if it is a valid POVM; else raise its first :func:`violations`."""
    found = violations(p, tol)
    if found:
        raise found[0]
    return p


def prune_zero_effects(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Povm, RelabelMap]:
    """Drop effects with Frobenius norm <= zero_effect_tol.

    Raises ``NonFiniteError`` on an effect with a NaN or infinite entry,
    which no norm test may silently drop; every analysis prunes first.

    The returned map sends surviving outcomes back to their original
    positions, so ``relabel(pruned, map)`` restores ``p`` (zeros placed
    at outcomes with empty preimage).
    """
    norms, nonzero = _effect_norms(p.effects, tol)
    if not np.isfinite(norms).all():  # NaN or Inf shows in its norm
        raise violations(p, tol)[0]
    keep = np.flatnonzero(nonzero)
    if keep.size == p.n_outcomes:
        return p, RelabelMap.identity(p.n_outcomes)  # nothing to drop: no copy
    if keep.size == 0:
        raise AllZeroError("every effect is numerically zero")
    return Povm(p.effects[keep]), RelabelMap(keep.size, p.n_outcomes, keep)


def _effect_norms(effects: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Frobenius norms, nonzero) of an effect stack: an effect is nonzero above zero_effect_tol."""
    flat = effects.reshape(len(effects), -1).view(np.float64)  # no complex temporary
    norms = np.sqrt(np.einsum("ki,ki->k", flat, flat))
    return norms, norms > tol.zero_effect_tol


def relabel(p: Povm, f: RelabelMap) -> Povm:
    """Merge outcomes: result[j] = sum of p[k] over k with f(k) = j."""
    if f.source_size != p.n_outcomes:
        raise MapSizeMismatchError(
            f"map source size {f.source_size} != POVM outcome count {p.n_outcomes}"
        )
    out = np.zeros((f.target_size, p.dim, p.dim), dtype=np.complex128)
    np.add.at(out, f.targets, p.effects)
    return Povm(out)


def _padded(effects: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad an effect stack on the right to n outcomes."""
    if effects.shape[0] == n:
        return effects
    d = effects.shape[1]
    pad = np.zeros((n - effects.shape[0], d, d), dtype=np.complex128)
    return np.concatenate([effects, pad])


def mix(b: Povm, c: Povm, t: float) -> Povm:
    """Convex combination t*b + (1-t)*c, 0 < t < 1.

    The shorter POVM is zero-padded on the right so both operands share
    the longer outcome count.
    """
    if not (0.0 < t < 1.0):
        raise BadWeightError(f"mixing weight must satisfy 0 < t < 1, got {t!r}")
    if b.dim != c.dim:
        raise DimensionMismatchError(f"dimension mismatch: {b.dim} vs {c.dim}")
    n = max(b.n_outcomes, c.n_outcomes)
    return Povm(t * _padded(b.effects, n) + (1.0 - t) * _padded(c.effects, n))


def spectral_relabel(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[Povm, RelabelMap]:
    """Rewrite a POVM as a relabeling of a rank-1 POVM.

    Each nonzero effect is expanded into its spectral terms
    ``lambda_k |v_k><v_k|`` (eigenvalues above the rank cutoff), emitted
    in row-major (outcome, term) order.  The returned map sends each
    spectral term to the outcome it came from, in the zero-pruned
    indexing, so ``relabel(rank1, map)`` reproduces the pruned POVM.  The
    rank-1 POVM has at most N*d outcomes.
    """
    back, effects, ranks, plain, _ = _spectrum(p, tol)
    sources, psi = _spectral_terms(effects, ranks, plain, tol)
    pieces = psi[:, :, None] * psi.conj()[:, None, :]
    return Povm(pieces), RelabelMap(sources.size, back.source_size, sources)


def _spectrum(
    p: Povm, tol: ToleranceConfig
) -> tuple[RelabelMap, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every analysis' front end: map back to ``p``, Hermitian nonzero effects, their verdicts.

    The verdicts are (ranks, plain) of :func:`linalg.effect_ranks` and each
    effect's projection test |E^2 - E|_F <= recon_tol, all read from the
    effects' :func:`_eigenvalues`.
    """
    pruned, back = prune_zero_effects(p, tol)
    effects = hermitian_part(pruned.effects, tol)
    w = _eigenvalues(effects, 0.0, tol)
    return back, effects, *effect_ranks(w, tol), _is_projection(w, tol)


def _is_projection(w: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """|E^2 - E|_F <= recon_tol of each row of eigenvalues ``w``."""
    return np.linalg.norm(w * w - w, axis=1) <= tol.recon_tol


def _projection_bounds(
    lam: np.ndarray, rho: np.ndarray, d: int, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`_is_projection` is True, and where False, for every eigenvalue vector in a box.

    The box has the top t in [lam - rho, lam + rho], t > 0, and d - 1 others in
    [-rho, rho].  Then |t^2 - t| = t |t - 1| lies between low * (distance from 1)
    and high * (farthest from 1), and each other |x^2 - x| is at most rho (1 + rho).
    ``slack`` covers the rounding of the test's own norm, a few eps per entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: no verdict is settled
        low, high = lam - rho, lam + rho
        least = low * np.maximum(np.maximum(low - 1, 1 - high), 0.0)
        most = np.hypot(high * np.maximum(1 - low, high - 1), math.sqrt(d - 1) * rho * (1 + rho))
        slack = 2.0**-42 * d * (high * high + tol.recon_tol)
        return most + slack <= tol.recon_tol, least > tol.recon_tol + slack


def _spectral_terms(
    effects: np.ndarray, ranks: np.ndarray, plain: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Term vectors psi = sqrt(lambda) v of a Hermitian effect stack, and the effect of each.

    ``ranks`` and ``plain`` are the stack's :func:`linalg.effect_ranks` verdicts:
    effect j has one term per eigenvalue above the rank cutoff, so that effect
    j = sum of |psi><psi| over its terms up to the dropped ones.  Terms come in
    row-major (effect, term) order, each effect's in :func:`eig_herm`'s
    descending order and phase convention.  A rank-1 effect's one term comes
    from two power steps on its largest-diagonal column e_k: y = E e_k, z = E y,
    lambda = y^H z / y^H y and psi = sqrt(lambda) z / |z|.  Only effects of
    rank >= 2 take eigenvectors from ``eig_herm``, and so does a rank-1 effect
    that is not plain.
    """
    starts = np.cumsum(ranks) - ranks
    psi = np.empty((int(ranks.sum()), effects.shape[-1]), dtype=np.complex128)
    one = np.flatnonzero(plain)
    if one.size:
        psi[starts[one]] = _top_terms(effects[one])
    many = np.flatnonzero(~plain & (ranks > 0))
    if many.size:
        dec = eig_herm(effects[many], tol)
        rows, k = np.nonzero(np.arange(effects.shape[-1]) < ranks[many, None])
        psi[starts[many][rows] + k] = (
            np.sqrt(dec.eigenvalues[rows, k])[:, None] * dec.eigenvectors[rows, :, k]
        )
    return np.repeat(np.arange(ranks.size), ranks), psi


def _top_terms(effects: np.ndarray) -> np.ndarray:
    """sqrt(lambda) v of each rank-1 effect's top eigenpair, phase-fixed as :func:`eig_herm` does.

    The largest diagonal entry E_kk is at least the trace over d, so the
    column y = E e_k is not small against the top eigenvector; a second
    product z = E y damps what the dropped eigenvalues left in it.
    """
    k = np.argmax(np.diagonal(effects, axis1=1, axis2=2).real, axis=1)
    y = effects[np.arange(k.size), :, k]
    z = (effects @ y[:, :, None])[:, :, 0]
    lam = np.einsum("ij,ij->i", y.conj(), z).real / np.einsum("ij,ij->i", y.conj(), y).real
    v = _fix_phases((z / np.linalg.norm(z, axis=1, keepdims=True))[:, :, None])[:, :, 0]
    return np.sqrt(lam)[:, None] * v


def classify(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> PovmClass:
    """Rank-1 and PVM flags plus the extremality type label.

    One spectral pass over the nonzero effects (:func:`_spectrum`: the rank-1
    bound settles what it can, ``eigvalsh`` the rest) gives their ranks
    (:func:`linalg.effect_ranks`) and projection tests, and so the flags, the
    rank profile and the operators of ``extremality.pair_independence``.
    Only effects with an eigenvalue above the rank cutoff count, in the
    flags and the rank profile.  When multiple type predicates hold the
    most specific label wins (a > b > c > d); a rank-1 basis PVM
    therefore reports "a" with ``is_pvm`` still set.
    """
    from .extremality import pair_independence  # here: extremality builds on this module

    _, effects, ranks, plain, projection = _spectrum(p, tol)
    report = pair_independence(effects, ranks, plain, tol)
    projection, ranks = projection[ranks > 0], ranks[ranks > 0]
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


def equivalent(
    p: Povm,
    q: Povm,
    tol: ToleranceConfig = DEFAULT_TOL,
    up_to_permutation: bool = False,
) -> bool:
    """Equality after pruning zero effects, each effect within recon_tol in Frobenius norm.

    By default outcome order matters.  With ``up_to_permutation`` the nonzero
    effects must pair off one to one, each pair within recon_tol: a perfect
    matching of the graph of such pairs, found by augmenting paths.
    """
    if p.dim != q.dim:
        return False
    a, _ = prune_zero_effects(p, tol)
    b, _ = prune_zero_effects(q, tol)
    if a.n_outcomes != b.n_outcomes:
        return False
    if not up_to_permutation:
        return bool(
            np.all(np.linalg.norm(a.effects - b.effects, axis=(1, 2)) <= tol.recon_tol)
        )
    close = [
        np.flatnonzero(np.linalg.norm(b.effects - e, axis=(1, 2)) <= tol.recon_tol).tolist()
        for e in a.effects
    ]
    return _perfect_matching(close)


def _perfect_matching(close: list[list[int]]) -> bool:
    """Whether rows 0..n-1 can each take a distinct column of ``close[row]``, n columns in all.

    Kuhn's method: each row in turn searches breadth first for an alternating
    path to a free column, then flips the path; a row with none ends the search.
    """
    owner = [-1] * len(close)  # the row holding each column
    taken = [-1] * len(close)  # the column held by each row
    for root in range(len(close)):
        reached = {}  # column -> the row it was reached from
        frontier, free = [root], -1
        while frontier and free < 0:
            following = []
            for i in frontier:
                for j in close[i]:
                    if j not in reached:
                        reached[j] = i
                        if owner[j] < 0:
                            free = j
                            break
                        following.append(owner[j])
                if free >= 0:
                    break
            frontier = following
        if free < 0:
            return False
        j = free
        while j >= 0:  # flip: each row on the path takes the column it reached
            i = reached[j]
            previous = taken[i]  # -1 at the root
            owner[j], taken[i] = i, j
            j = previous
    return True
