"""Generators for reference and random POVMs.

Covers basis PVMs, the inductive construction of extremal rank-1 POVMs
with any admissible outcome count N in [d, d^2] (conjugate an N-outcome
extremal rank-1 POVM by (I + P)^{-1/2} for a rank-1 projection P outside
the real span of its effects, and append the conjugated P as a new
outcome), two worked reference POVMs, and a seeded random generator for
test corpora.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AlreadyMaximalError,
    BadDimensionError,
    DimensionMismatchError,
    InternalContradictionError,
    NotExtremalRank1Error,
    NotRank1Error,
    OutOfRangeError,
    SingularSumError,
)
from .extremality import banded_verdict, is_extremal_rank1
from .linalg import DEFAULT_TOL, ToleranceConfig, inv_sqrt, rank_of
from .povm import Povm, prune_zero_effects, validate

__all__ = [
    "hermitian_basis",
    "onb_pvm",
    "extend_extremal",
    "construct_extremal_rank1",
    "qubit_example",
    "type_d_example",
    "random_povm",
]


def hermitian_basis(d: int) -> np.ndarray:
    """Canonical basis of the d^2-dimensional real space of Hermitian matrices.

    Scan order: diagonal units |i><i|, then symmetric pairs
    |i><j| + |j><i|, then antisymmetric pairs -i|i><j| + i|j><i|, each
    group in row-major (i, j) order.  Returns shape (d*d, d, d).
    """
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    ops = []
    for i in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[i, i] = 1.0
        ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = 1.0
            ops.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = -1.0j
            m[j, i] = 1.0j
            ops.append(m)
    return np.stack(ops)


def onb_pvm(d: int) -> Povm:
    """The d-outcome PVM of the computational basis: effects |j><j|."""
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    effects = np.zeros((d, d, d), dtype=np.complex128)
    for j in range(d):
        effects[j, j, j] = 1.0
    return Povm(effects)


def _outside_span(span_ops: np.ndarray, candidate: np.ndarray, tol: ToleranceConfig) -> bool:
    """Robust out-of-span test; borderline margins are rejected.

    Takes at most d^2 operators in all, so the last singular value is the K-th.
    """
    ops = np.concatenate([span_ops, candidate[None]])
    s = np.linalg.svd(ops.reshape(ops.shape[0], -1), compute_uv=False)
    return banded_verdict(float(s[-1] / s[0]), tol)[0]


def extend_extremal(
    p: Povm, tol: ToleranceConfig = DEFAULT_TOL, projection: np.ndarray | None = None
) -> Povm:
    """Extend an extremal rank-1 POVM by one outcome, preserving extremality.

    Finds a rank-1 projection P outside the real span of the effects (the
    first of the projections (s + s^2)/2, s in :func:`hermitian_basis`,
    unless ``projection`` overrides the choice), sets T = I + P, and returns

        effects -> T^{-1/2} A(j) T^{-1/2},  new outcome T^{-1/2} P T^{-1/2}.
    """
    pruned, _ = prune_zero_effects(p, tol)
    try:
        extremal = is_extremal_rank1(pruned, tol)
    except NotRank1Error as exc:
        raise NotExtremalRank1Error(str(exc)) from None
    if not extremal:
        raise NotExtremalRank1Error("input must be an extremal rank-1 POVM")
    d = pruned.dim
    n = pruned.n_outcomes
    if n >= d * d:
        raise AlreadyMaximalError(
            f"an extremal rank-1 POVM on dimension {d} has at most {d * d} outcomes"
        )
    span_ops = pruned.effects
    if projection is not None:
        proj = np.asarray(projection, dtype=np.complex128)
        if proj.shape != (d, d):
            raise DimensionMismatchError(f"projection must be {d}x{d}, got shape {proj.shape}")
        if rank_of(proj, tol) != 1 or float(np.linalg.norm(proj @ proj - proj)) > tol.recon_tol:
            raise NotExtremalRank1Error("supplied projection must be a rank-1 projection")
        if not _outside_span(span_ops, proj, tol):
            raise NotExtremalRank1Error(
                "supplied projection lies in the span of the effects"
            )
    else:
        # each basis element has one eigenvalue +1, the rest 0 or -1; these d^2
        # projections span the Hermitian matrices, so one lies outside the span
        basis = hermitian_basis(d)
        candidates = (basis + basis @ basis) / 2.0
        proj = next((c for c in candidates if _outside_span(span_ops, c, tol)), None)
        if proj is None:
            raise InternalContradictionError(
                "no basis direction found outside the effect span (tolerance inconsistency)"
            )
    t_inv_sqrt = inv_sqrt(np.eye(d) + proj, tol)
    extended = t_inv_sqrt @ np.concatenate([pruned.effects, proj[None]]) @ t_inv_sqrt
    extended = (extended + np.conj(np.transpose(extended, (0, 2, 1)))) / 2.0
    out = validate(Povm(extended), tol)
    if not is_extremal_rank1(out, tol):
        raise InternalContradictionError(
            "extension lost extremality (tolerance inconsistency)"
        )
    return out


def construct_extremal_rank1(d: int, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> Povm:
    """Extremal rank-1 POVM with exactly n outcomes, d <= n <= d^2.

    Starts from the computational-basis PVM and applies n - d extension
    steps; deterministic for given (d, n).
    """
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    if not d <= n <= d * d:
        raise OutOfRangeError(
            f"outcome count must satisfy {d} <= n <= {d * d}, got {n}"
        )
    p = onb_pvm(d)
    for _ in range(n - d):
        p = extend_extremal(p, tol)
    return p


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


def random_povm(
    d: int,
    n: int,
    seed: int,
    rank: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Povm:
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
        wisharts = np.einsum("jab,jcb->jac", factors, factors.conj())
        total = wisharts.sum(axis=0)
        if float(np.linalg.eigvalsh(total)[0]) > tol.psd_tol:
            break
    else:
        raise SingularSumError(
            f"normalization sum stayed singular after 8 draws (d={d}, n={n}, rank={r})"
        )
    root = inv_sqrt(total, tol)
    effects = np.einsum("ab,jbc,cd->jad", root, wisharts, root)
    effects = (effects + np.conj(np.transpose(effects, (0, 2, 1)))) / 2.0
    return Povm(effects)
