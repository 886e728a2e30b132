"""POVM domain model: validation, pruning, relabeling, mixing, the spectral pass.

A POVM is an ordered list of d x d Hermitian PSD effects summing to the
identity.  Zero effects are permitted (an outcome that never fires); two
POVMs differing only in zero effects are equivalent.  Relabeling merges
outcomes through a total map f, mixing forms convex combinations, and
``spectral_relabel`` rewrites any POVM as a relabeling of a rank-1 POVM
with at most N*d outcomes, from the validator's pass (``_spectrum``) that
every analysis starts from.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate

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
    hermitian_split,
    rank1_interval,
    rank1_settled,
)

__all__ = [
    "Povm",
    "RelabelMap",
    "violations",
    "validate",
    "prune_zero_effects",
    "relabel",
    "mix",
    "spectral_relabel",
    "equivalent",
]

_NO_RANK = "no effect has an eigenvalue above the rank cutoff"  # AllZeroError's text


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

    @classmethod
    def _frozen(cls, effects: np.ndarray) -> "Povm":
        """A Povm that keeps ``effects``, a read-only (n, d, d) complex128 stack, without a copy."""
        p = cls.__new__(cls)
        object.__setattr__(p, "effects", effects)
        return p

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


def _checked(
    effects: np.ndarray, sizes, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[list[list[PovmForgeError]], np.ndarray, np.ndarray]:
    """:func:`violations` of each POVM of a ragged stack, its Hermitian part and eigenvalues ``w``.

    ``effects`` concatenates the POVMs' effect stacks, of the (checked) ``sizes``.
    One ``isfinite``, :func:`linalg.hermitian_split`, :func:`_eigenvalues` pass
    of the Hermitian part and ``np.add.reduceat`` sum cover the stack; every
    verdict read from ``w`` is the one ``eigvalsh`` of that part would give, the
    same for E and E^H.  Errors are built only where a check fails.  The split,
    the eigenvalues and the sum read a non-finite effect as zero, and its POVM
    reports its non-finite effects only.
    """
    ends = list(accumulate(sizes))
    starts = [0, *ends[:-1]]
    finite = np.isfinite(effects.reshape(len(effects), -1).view(np.float64)).all(axis=1)
    clean = effects if finite.all() else np.where(finite[:, None, None], effects, 0.0)
    hermitian, deviation = hermitian_split(clean)
    w = _eigenvalues(hermitian, tol)
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
    return found, hermitian, w


# The bound costs about 25 NumPy calls whatever the stack's size (some 60 us on a
# 2-CPU x86_64 host), eigvalsh about 1 us per 4 x 4 effect and 9 us per 8 x 8 one:
# below some 400 entries n d^2 eigvalsh is cheaper.  n <= d keeps the bound off POVMs of
# a few full-rank effects, which it never settles; it skips a rank-1 basis too, which it would.
_BOUND_MIN_ENTRIES = 400


def _eigenvalues(effects: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Ascending eigenvalues ``w`` of a Hermitian (n, d, d) stack, or certified stand-ins for them.

    An effect is settled when the box of :func:`linalg.rank1_interval`, the top
    eigenvalue in lam +- rho and the rest in +-rho, holds only vectors that
    :func:`linalg.effect_ranks` finds plain rank 1, that lie inside [0, I]
    (rho <= psd_tol, lam + rho <= 1 + psd_tol; :func:`linalg.rank1_settled`) and
    that :func:`_projection_bounds` gives one projection verdict.  Its row is the
    box's centre (0, ..., 0, lam), which gets those verdicts too; the other rows
    take one ``eigvalsh``.  A small stack takes one ``eigvalsh`` whole.
    """
    n, d = effects.shape[:2]
    if n <= d or n * d * d <= _BOUND_MIN_ENTRIES:
        return np.linalg.eigvalsh(effects)
    lam, rho = rank1_interval(effects)
    projection, other = _projection_bounds(lam, rho, d, tol)
    settled = rank1_settled(lam, rho, d, tol) & (projection | other)
    w = np.zeros((n, d))
    w[:, -1] = lam  # the stand-ins; eigvalsh overwrites the other rows whole
    if not settled.all():
        w[~settled] = np.linalg.eigvalsh(effects[~settled])
    return w


def violations(p: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> list[PovmForgeError]:
    """Every violated POVM invariant, in check order; an empty list means valid.

    Every entry must be finite; if one is not, only the non-finite effects
    are reported.  Then, effect by effect: Hermitian (herm_tol; a
    non-Hermitian effect is not judged further), then PSD (psd_tol) and
    bounded by the identity (psd_tol slack), both of (E + E^H)/2, as for E^H.
    Last, the effects must sum to the identity within recon_tol in Frobenius
    norm (an entry near overflow gives an infinite residual).  This is the one
    validator pass (``_checked``, its eigenvalues from :func:`_eigenvalues`) that
    every analysis starts from (``_spectrum``) and ``extremality.rank1_failures``
    runs over a certificate's stack of components.
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
    which no norm test may silently drop.

    The returned map sends surviving outcomes back to their original
    positions, so ``relabel(pruned, map)`` restores ``p`` (zeros placed
    at outcomes with empty preimage).
    """
    norms, nonzero = _effect_norms(p.effects, tol)
    if not np.isfinite(norms).all():  # NaN or Inf shows in its norm
        raise violations(p, tol)[0]
    kept = np.flatnonzero(nonzero)
    if kept.size == p.n_outcomes:
        return p, RelabelMap.identity(p.n_outcomes)  # nothing to drop: no copy
    if kept.size == 0:
        raise AllZeroError("every effect is numerically zero")
    return Povm(p.effects[kept]), RelabelMap(kept.size, p.n_outcomes, kept)


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
    """Rewrite a valid POVM as a relabeling of a rank-1 POVM.

    ``p`` raises what :func:`_spectrum` raises.  Each effect is expanded into its spectral
    terms ``lambda_k |v_k><v_k|`` (eigenvalues above the rank cutoff; :func:`_outer`), in
    row-major (outcome, term) order.  The returned map sends each term to the outcome of ``p``
    it came from, so ``relabel(rank1, map)`` reproduces ``p``, its zero and rank-0 effects as
    empty preimages.  The rank-1 POVM has at most N*d outcomes, exactly Hermitian.
    """
    sources, psi = _spectral_terms(*_spectrum(p, tol)[:3], tol)
    return Povm(_outer(psi)), RelabelMap(sources.size, p.n_outcomes, sources)


def _spectrum(
    p: Povm, tol: ToleranceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every analysis' front end: the validator's pass of ``p``, and which effects count.

    One :func:`_checked` pass raises the first :func:`violations` entry of an invalid
    ``p`` (an all-zero stack: ``NotNormalizedError``), else ``AllZeroError`` if no rank
    is above 0.  Returns, for every outcome, the Hermitian part, its (ranks, plain) of
    :func:`linalg.effect_ranks` (rank 0 for a zero effect, :func:`_effect_norms`) and
    its row of the pass's eigenvalues ``w``, which :func:`_is_projection` reads.
    """
    (found,), hermitian, w = _checked(p.effects, (p.n_outcomes,), tol)
    if found:
        raise found[0]
    nonzero = _effect_norms(p.effects, tol)[1]
    ranks, plain = effect_ranks(w, tol)
    ranks, plain = ranks * nonzero, plain & nonzero
    if not ranks.any():
        raise AllZeroError(_NO_RANK)
    return hermitian, ranks, plain, w


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


@cache
def _strict_upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the strict upper triangle of a d x d matrix, row-major; cached per d."""
    indices = np.triu_indices(d, 1)
    for index in indices:
        index.setflags(write=False)
    return indices


def _outer(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of an (n, d) stack, exactly Hermitian: never averaged downstream."""
    out = psi[:, :, None] * psi.conj()[:, None, :]
    row, col = _strict_upper(psi.shape[-1])
    # the upper triangle and real diagonal, all that hermitian_coords reads, stay as multiplied
    out[:, col, row] = out[:, row, col].conj()
    np.einsum("kii->ki", out).imag = 0.0  # a writeable view of the diagonals
    return out


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


def equivalent(p: Povm, q: Povm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality after pruning zero effects, each effect within recon_tol in Frobenius norm.

    Outcome order matters: to compare up to a permutation, :func:`relabel` one side first.
    """
    if p.dim != q.dim:
        return False
    a, _ = prune_zero_effects(p, tol)
    b, _ = prune_zero_effects(q, tol)
    if a.n_outcomes != b.n_outcomes:
        return False
    return bool(np.all(np.linalg.norm(a.effects - b.effects, axis=(1, 2)) <= tol.recon_tol))
