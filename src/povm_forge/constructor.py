"""Generators for reference and random POVMs.

Covers basis PVMs, extremal rank-1 POVMs with any admissible outcome
count N in [d, d^2] (one congruence S^{-1/2} P_k S^{-1/2} of the first N
rank-1 projections P_k built from :func:`hermitian_basis`, S their sum),
the paper's one-step extension of an extremal rank-1 POVM, two worked
reference POVMs, and a seeded random generator for test corpora.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AlreadyMaximalError,
    BadDimensionError,
    DimensionMismatchError,
    InternalContradictionError,
    NotExtremalRank1Error,
    NotPositiveDefiniteError,
    OutOfRangeError,
    SingularSumError,
)
from .extremality import is_extremal_rank1, pair_independence
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_basis,
    normalize_sum,
    rank_of,
)
from .povm import Povm, _spectrum

__all__ = [
    "onb_pvm",
    "extend_extremal",
    "construct_extremal_rank1",
    "qubit_example",
    "type_d_example",
    "random_povm",
]


def onb_pvm(d: int) -> Povm:
    """The d-outcome PVM of the computational basis: effects |j><j|."""
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    effects = np.zeros((d, d, d), dtype=np.complex128)
    for j in range(d):
        effects[j, j, j] = 1.0
    return Povm(effects)


def _basis_projections(d: int) -> np.ndarray:
    """The d^2 rank-1 projections (s + s^2)/2 over :func:`hermitian_basis`; first d: |i><i|."""
    basis = hermitian_basis(d)
    return (basis + basis @ basis) / 2.0


def _normalize_extremal(ops: np.ndarray, tol: ToleranceConfig) -> Povm:
    """S^{-1/2} ops S^{-1/2} (S = sum of ops), checked to be an extremal rank-1 POVM."""
    out = Povm(normalize_sum(ops, tol))
    if not is_extremal_rank1(out, tol):
        raise InternalContradictionError("normalization lost extremality (tolerance inconsistency)")
    return out


def extend_extremal(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL, projection: np.ndarray | None = None
) -> Povm:
    """Extend an extremal rank-1 POVM by one outcome, preserving extremality.

    Raises what ``povm._spectrum`` raises, and ``NotExtremalRank1Error`` unless extremal rank-1.
    Finds a rank-1 projection P outside the real span of the effects (the
    first of the projections (s + s^2)/2, s in :func:`hermitian_basis`,
    unless ``projection`` overrides the choice), sets T = sum_j A(j) + P
    (I + P up to the input's normalization residual), and returns every
    outcome in place, zero and rank-0 ones too, and the new one last:

        effects -> T^{-1/2} A(j) T^{-1/2},  new outcome T^{-1/2} P T^{-1/2}.
    """
    hermitian, ranks, plain, _ = _spectrum(p, tol)
    if ranks.max() > 1 or not pair_independence(hermitian, ranks, plain, tol).extremal:
        raise NotExtremalRank1Error("input must be an extremal rank-1 POVM")
    d = p.dim
    if np.count_nonzero(ranks) >= d * d:
        raise AlreadyMaximalError(
            f"an extremal rank-1 POVM on dimension {d} has at most {d * d} outcomes"
        )
    ranks, plain = np.append(ranks, 1), np.append(plain, True)

    def outside_span(candidate: np.ndarray) -> bool:
        stack = np.concatenate([hermitian, candidate[None]])
        return bool(pair_independence(stack, ranks, plain, tol).extremal)

    if projection is not None:
        proj = np.asarray(projection, dtype=np.complex128)
        if proj.shape != (d, d):
            raise DimensionMismatchError(f"projection must be {d}x{d}, got shape {proj.shape}")
        if rank_of(proj, tol) != 1 or float(np.linalg.norm(proj @ proj - proj)) > tol.recon_tol:
            raise NotExtremalRank1Error("supplied projection must be a rank-1 projection")
        if not outside_span(proj):
            raise NotExtremalRank1Error(
                "supplied projection lies in the span of the effects"
            )
    else:
        proj = next((c for c in _basis_projections(d) if outside_span(c)), None)
        if proj is None:
            raise InternalContradictionError(
                "no basis direction found outside the effect span (tolerance inconsistency)"
            )
    return _normalize_extremal(np.concatenate([p.effects, proj[None]]), tol)


def construct_extremal_rank1(d: int, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> Povm:
    """Extremal rank-1 POVM with exactly n outcomes, d <= n <= d^2.

    One congruence E_k = S^{-1/2} P_k S^{-1/2} of the first n projections P_k of
    :func:`_basis_projections`, with S = sum_k P_k >= I (the first d are |i><i|).
    It is invertible on operator space, so the E_k stay rank-1 and independent,
    and they sum to I.  Deterministic for given (d, n); n = d gives the basis PVM.
    """
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    if not d <= n <= d * d:
        raise OutOfRangeError(
            f"outcome count must satisfy {d} <= n <= {d * d}, got {n}"
        )
    return _normalize_extremal(_basis_projections(d)[:n], tol)


def qubit_example() -> Povm:
    """Three-outcome extremal rank-1 qubit POVM with closed-form effects.

    Equals one extension step applied to the sigma_x basis PVM with
    P = (I + sigma_z)/2:

        A(1) = (3I + (4/sqrt2) sx - sz) / 8
        A(2) = (3I - (4/sqrt2) sx - sz) / 8
        A(3) = (I + sz) / 4
    """
    eye = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    a1 = (3.0 * eye + (4.0 / np.sqrt(2.0)) * sx - sz) / 8.0
    a2 = (3.0 * eye - (4.0 / np.sqrt(2.0)) * sx - sz) / 8.0
    a3 = (eye + sz) / 4.0
    return Povm(np.stack([a1, a2, a3]))


def type_d_example() -> Povm:
    """Three-outcome extremal POVM on dimension 4 whose effects have rank 2.

    With omega = exp(2 pi i / 3) and K = |0><2| + |1><3|:

        A(j) = (I + omega^j K + conj(omega^j) K^T) / 3,   j = 1, 2, 3.

    Every effect satisfies A(j)^2 = (2/3) A(j), so no effect is a
    projection or rank-1, yet the POVM is extremal: the classifier
    reports type "d".
    """
    omega = np.exp(2j * np.pi / 3.0)
    eye = np.eye(4, dtype=np.complex128)
    k = np.zeros((4, 4), dtype=np.complex128)
    k[0, 2] = 1.0
    k[1, 3] = 1.0
    effects = [
        (eye + omega**j * k + np.conj(omega**j) * k.T) / 3.0 for j in (1, 2, 3)
    ]
    return Povm(np.stack(effects))


def random_povm(d: int, n: int, seed: int, rank: int | None = None) -> Povm:
    """Seeded random n-outcome POVM on dimension d.

    Draws Wishart factors W_j = G_j G_j* with complex standard normal
    G_j of shape (d, rank) (rank defaults to d, i.e. full rank; rank=1
    yields a rank-1 POVM), then normalizes: S = sum_j W_j and
    effects = S^{-1/2} W_j S^{-1/2}.  Deterministic per seed.
    """
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise OutOfRangeError(f"outcome count must be >= 1, got {n}")
    r = d if rank is None else rank
    if r < 1:
        raise OutOfRangeError(f"rank must be >= 1, got {r}")
    rng = np.random.default_rng(seed)
    for _ in range(8):
        factors = rng.standard_normal((n, d, r)) + 1j * rng.standard_normal((n, d, r))
        try:
            return Povm(normalize_sum(np.einsum("jab,jcb->jac", factors, factors.conj())))
        except NotPositiveDefiniteError:
            continue
    raise SingularSumError(
        f"normalization sum stayed singular after 8 draws (d={d}, n={n}, rank={r})"
    )
