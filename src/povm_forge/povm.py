"""POVM domain model: validation, pruning, relabeling, mixing, classification.

A POVM is an ordered list of d x d Hermitian PSD effects summing to the
identity.  Zero effects are permitted (an outcome that never fires); two
POVMs differing only in zero effects are equivalent.  Relabeling merges
outcomes through a total map f, mixing forms convex combinations, and
``spectral_relabel`` rewrites any POVM as a relabeling of a rank-1 POVM
with at most N*d outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .linalg import DEFAULT_TOL, ToleranceConfig, eig_herm, hermitian_deviation, rank_cutoff

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
            arr = np.asarray(self.effects, dtype=np.complex128)
        except (ValueError, TypeError) as exc:
            raise DimensionMismatchError(f"effects are not a uniform complex array: {exc}")
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise DimensionMismatchError(
                f"effects must have shape (n, d, d), got {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyInputError("a POVM needs at least one effect on dimension >= 1")
        arr = arr.copy()
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

    def effect_norms(self) -> np.ndarray:
        """Frobenius norm of each effect."""
        return np.linalg.norm(self.effects, axis=(1, 2))

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
        """Parse the POVM document schema; raises ValueError on malformed input."""
        try:
            d = int(obj["dim"])
            raw = obj["effects"]
            effects = []
            for entry in raw:
                re = np.asarray(entry["re"], dtype=np.float64)
                im = np.asarray(entry["im"], dtype=np.float64)
                if re.shape != (d, d) or im.shape != (d, d):
                    raise ValueError(
                        f"effect must be {d}x{d}, got re {re.shape}, im {im.shape}"
                    )
                effects.append(re + 1j * im)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed POVM document: {exc}") from exc
        if not effects:
            raise ValueError("POVM document lists no effects")
        return cls(np.stack(effects))


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
        arr = np.asarray(self.targets, dtype=np.int64).copy()
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
    def identity(cls, n: int) -> "RelabelMap":
        return cls(n, n, np.arange(n))

    @classmethod
    def constant(cls, n: int, target: int = 0, target_size: int = 1) -> "RelabelMap":
        return cls(n, target_size, np.full(n, target))

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
        arr = np.asarray(entries, dtype=np.int64)
        return cls(arr.shape[0], target_size, arr - 1)


@dataclass(frozen=True)
class PovmClass:
    """Classification record: rank-1 and PVM flags, type label, ranks, extremality report."""

    is_rank1: bool
    is_pvm: bool
    extremal_type: str
    rank_profile: tuple[int, ...] = ()
    extremality: ExtremalityReport | None = None


def _non_finite(p: Povm) -> list[NonFiniteError]:
    """One error per effect with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(p.effects).all(axis=(1, 2)))
    return [NonFiniteError(f"effect {j} has a non-finite entry", outcome=int(j)) for j in bad]


def violations(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[PovmForgeError]:
    """Every violated POVM invariant, in check order; an empty list means valid.

    Every entry must be finite; if one is not, only the non-finite effects
    are reported.  Then, effect by effect: Hermitian (herm_tol; a
    non-Hermitian effect is not judged further), PSD (psd_tol), and
    bounded by the identity (psd_tol slack).  Last, the effects must sum
    to the identity within recon_tol in Frobenius norm.
    """
    found: list[PovmForgeError] = _non_finite(p)
    if found:
        return found  # eigvalsh and the residual are meaningless on NaN/Inf
    deviation = hermitian_deviation(p.effects)
    w = np.linalg.eigvalsh(p.effects)
    failing = (deviation > tol.herm_tol) | (w[:, 0] < -tol.psd_tol) | (w[:, -1] > 1 + tol.psd_tol)
    for j in np.flatnonzero(failing).tolist():
        if deviation[j] > tol.herm_tol:
            found.append(NotHermitianError(
                f"effect {j}: matrix deviates from Hermitian symmetry by {deviation[j]:.3e} "
                f"(herm_tol = {tol.herm_tol:.3e})"
            ))
            continue
        if w[j, 0] < -tol.psd_tol:
            found.append(NotPSDError(
                f"effect {j} is not PSD: smallest eigenvalue {w[j, 0]:.3e}", outcome=j
            ))
        if w[j, -1] > 1 + tol.psd_tol:
            found.append(NotPSDError(
                f"effect {j} exceeds the identity: largest eigenvalue {w[j, -1]:.6g}",
                outcome=j,
            ))
    residual = float(
        np.linalg.norm(p.effects.sum(axis=0) - np.eye(p.dim, dtype=np.complex128))
    )
    if residual > tol.recon_tol:
        found.append(NotNormalizedError(
            f"effects do not sum to the identity: normalization residual {residual:.3e} "
            f"(recon_tol = {tol.recon_tol:.3e})",
            residual=residual,
        ))
    return found


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
    bad = _non_finite(p)
    if bad:
        raise bad[0]
    keep = np.flatnonzero(p.effect_norms() > tol.zero_effect_tol)
    if keep.size == 0:
        raise AllZeroError("every effect is numerically zero")
    return Povm(p.effects[keep]), RelabelMap(keep.size, p.n_outcomes, keep)


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
    pruned, _ = prune_zero_effects(p, tol)
    dec = eig_herm(pruned.effects, tol)
    w = dec.eigenvalues
    sources, k = np.nonzero(w > rank_cutoff(w, tol))  # row-major: (outcome, term)
    v = dec.eigenvectors[sources, :, k]
    pieces = w[sources, k][:, None, None] * (v[:, :, None] * v.conj()[:, None, :])
    return Povm(pieces), RelabelMap(sources.size, pruned.n_outcomes, sources)


def classify(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> PovmClass:
    """Rank-1 and PVM flags plus the extremality type label.

    Only effects with an eigenvalue above the rank cutoff count, in the
    flags and the rank profile.  When multiple type predicates hold the
    most specific label wins (a > b > c > d); a rank-1 basis PVM
    therefore reports "a" with ``is_pvm`` still set.
    """
    from .extremality import pair_independence  # here: extremality builds on this module

    pruned, _ = prune_zero_effects(p, tol)
    dec = eig_herm(pruned.effects, tol)
    w = dec.eigenvalues
    ranks = np.count_nonzero(np.abs(w) > rank_cutoff(w, tol), axis=1)  # the rank_of rule
    w, ranks = w[ranks > 0], ranks[ranks > 0]
    projection = np.linalg.norm(w * w - w, axis=1) <= tol.recon_tol  # = |E^2 - E|_F
    rank1 = bool(np.all(ranks == 1))
    pvm = bool(np.all(projection))
    report = pair_independence(dec, tol)
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
    return PovmClass(rank1, pvm, label, tuple(int(r) for r in ranks), report)


def equivalent(
    p: Povm,
    q: Povm,
    tol: ToleranceConfig = DEFAULT_TOL,
    up_to_permutation: bool = False,
) -> bool:
    """Equality after pruning zero effects.

    By default outcome order matters.  With ``up_to_permutation`` the
    nonzero effects are matched greedily under Frobenius distance.
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
    unused = list(range(b.n_outcomes))
    for e in a.effects:
        dists = [float(np.linalg.norm(e - b.effects[j])) for j in unused]
        best = int(np.argmin(dists))
        if dists[best] > tol.recon_tol:
            return False
        unused.pop(best)
    return True
