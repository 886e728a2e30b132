"""Complex Hermitian linear-algebra kernel.

Everything downstream (POVM validation, extremality tests, the
decomposition engine) reduces to a handful of primitives implemented
here: one Hermitian rule (:func:`hermitian_split`), eigendecomposition
with a deterministic ordering and phase convention, one rank rule
(:func:`effect_ranks`), inverse square roots and the one congruence
that makes operators sum to I, real coordinates of Hermitian matrices
and their canonical basis, and independence tests by a singular-value
margin with one banded cutoff, which a Cholesky bound settles without
an SVD for sets clear of it.

All functions are pure; numerical decisions are governed by a
:class:`ToleranceConfig` passed explicitly (defaulting to
:data:`DEFAULT_TOL`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "eig_herm",
    "rank_of",
    "inv_sqrt",
    "hermitian_coords",
    "hermitian_basis",
    "independence_cutoff",
    "banded_verdict",
    "independence_margin",
    "settled_independent",
]

# Verdicts require a margin clear of the independence cutoff by this
# factor on either side; inside the band the verdict is "dependent"
# with the borderline flag set.  Such a set is reported not extremal and
# flagged, and a certificate component inside the band fails
# ``verify_certificate``; a wrong "extremal" would pass unnoticed.  A constant, not a
# ToleranceConfig field: the band already scales with indep_tol under
# ``scaled()``, and a field would be a setting that no caller changes.
_BORDERLINE_FACTOR = 2.0


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used by every tolerance-sensitive decision.

    herm_tol
        Max entrywise deviation from conjugate symmetry.
    psd_tol
        Allowed magnitude of negative eigenvalues in PSD tests; also the
        slack on the upper effect bound.
    rank_tol
        Relative eigenvalue cutoff in rank decisions, applied as
        ``rank_tol * max(1, |lambda|_max)``.
    indep_tol
        Relative singular-value cutoff in linear-independence tests.
    recon_tol
        Frobenius-norm budget for reconstruction identities
        (normalization, spectral round trips, certificate residuals).
    zero_effect_tol
        Frobenius norm below which an effect counts as the zero operator.
    """

    herm_tol: float = 1e-10
    psd_tol: float = 1e-10
    rank_tol: float = 1e-9
    indep_tol: float = 1e-9
    recon_tol: float = 1e-8
    zero_effect_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {value!r}")

    def scaled(self, factor: float) -> "ToleranceConfig":
        """Return a copy with every threshold multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be finite and positive, got {factor!r}")
        return replace(self, **{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULT_TOL = ToleranceConfig()


def hermitian_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Hermitian part (a + a^H) / 2, deviation max |a - a^H|) of a complex matrix or stack of them.

    The one Hermitian kernel: every solver reading one triangle reads the part,
    every herm_tol test the deviation (one per matrix).  A finite ``a`` equal to
    a^H comes back uncopied, deviation 0; else the part is built in a^H's buffer.
    A NaN or Inf entry gives a NaN or Inf deviation, which no tolerance passes.
    """
    adjoint = np.conjugate(a.swapaxes(-1, -2), order="C")  # a^H, laid out as a
    parts = a.reshape(-1).view(np.float64)  # real and imaginary parts: float compares are fast
    if np.isfinite(parts).all() and np.array_equal(adjoint.reshape(-1).view(np.float64), parts):
        return a, np.zeros(a.shape[:-2])
    with np.errstate(invalid="ignore", over="ignore"):  # Inf - Inf or overflow: NaN or Inf
        adjoint -= a
        deviation = np.abs(adjoint).max(axis=(-2, -1))
        np.conjugate(a.swapaxes(-1, -2), out=adjoint)  # a^H again: no second stack-sized buffer
        adjoint += a
    halves = adjoint.view(np.float64)  # halving the real and imaginary parts is exact and
    halves *= 0.5  # several times cheaper than a complex division by 2
    return adjoint, deviation


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The Hermitian part of ``m`` (a matrix or a stack of them), from :func:`hermitian_split`.

    Raises unless every entry is finite and within herm_tol of its conjugate
    transpose.  An exactly Hermitian ``m`` comes back uncopied.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    hermitian, deviation = hermitian_split(a)
    worst = float(deviation.max(initial=0.0))
    if not worst <= tol.herm_tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian symmetry by {worst:.3e} "
            f"(herm_tol = {tol.herm_tol:.3e})"
        )
    return hermitian


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive."""
    # entries at or below 1e-12 are rounding noise of eigh with an arbitrary phase
    first = np.argmax(np.abs(vectors) > 1e-12, axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, first, axis=-2)
    size = np.abs(pivot)
    return vectors * np.where(size > 1e-12, pivot.conj() / np.maximum(size, 1e-12), 1.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending.

    ``eigenvectors`` holds orthonormal eigenvectors as columns, aligned
    with ``eigenvalues`` and phase-fixed for reproducibility.  Degenerate
    eigenvalues come with an arbitrary orthonormal basis of their
    eigenspace; consumers must rely on reconstruction, not on the basis
    choice.  For a (..., d, d) stack both arrays keep its leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_herm(m, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic ordering.

    ``m`` may also be a (..., d, d) stack, decomposed with one batched
    ``eigh``.  Eigenvalues are returned in descending order; each
    eigenvector's first nonzero component is made real positive.
    """
    w, v = np.linalg.eigh(require_hermitian(m, tol))
    order = np.argsort(-w, axis=-1, kind="stable")  # eigh is ascending; keep tie order
    w = np.take_along_axis(w, order, axis=-1)
    v = _fix_phases(np.take_along_axis(v, order[..., None, :], axis=-1))
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def effect_ranks(w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """(ranks, plain) of each row of ascending eigenvalues ``w``: int and bool arrays.

    A rank counts the eigenvalues above the cutoff rank_tol * max(1, |lambda|_max);
    a negative one never counts.  A plain row has rank 1 and none below -cutoff,
    so E / |E|_F is its effect's one unit pair operator and power steps on E find
    its eigenvector without an ``eigh`` (past a large negative one they would not).
    |lambda|_max is read from the row's ends, exact for an ascending row.  The one
    other row passed here, the settle corner (-rho, rho, ..., rho, lam - rho) of
    ``povm._eigenvalues``, is plain under either reading only when ascending:
    plain needs rho <= cutoff, so the one entry above it is lam - rho > cutoff >= rho.
    """
    cutoff = tol.rank_tol * np.maximum(1.0, np.maximum(-w[..., :1], w[..., -1:]))
    ranks = np.count_nonzero(w > cutoff, axis=-1)
    return ranks, (ranks == 1) & (w[..., 0] >= -cutoff[..., 0])


# LAPACK's Hermitian eigensolvers return the eigenvalues of some E + F with
# |F|_2 <= p(d) eps |E|_2, p a modest polynomial (LAPACK Users' Guide, sec. 4.7).
# 2**-42 d = 1024 d eps is far above the few eps d seen in practice; it also
# covers the rounding of the bound itself and of lam +- rho.
_EIGVALSH_ROUNDING = 2.0**-42


def rank1_interval(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, rho) per effect of a Hermitian (n, d, d) stack: eigenvalues within rho of (0, ..., 0, lam).

    For y the column of E at its largest diagonal entry E_kk > 0, A = y y^H / E_kk
    is Hermitian of rank 1 with eigenvalue lam = |y|^2 / E_kk.  By Weyl's
    inequality each eigenvalue of E lies within |E - A|_2 <= |E - A|_F of A's;
    a rounding allowance covers ``eigvalsh``'s backward error.  A row with
    E_kk <= 0, a non-finite entry or entries near overflow gets a negative lam or
    an infinite or NaN lam or rho, which no rank rule reads as rank 1.  No
    tolerance enters: the caller decides what the interval settles.
    """
    n, d = effects.shape[:2]
    diagonal = np.diagonal(effects, axis1=-2, axis2=-1).real
    k = diagonal.argmax(axis=-1)
    rows = np.arange(n)
    y = effects[rows, :, k]
    with np.errstate(all="ignore"):  # E_kk = 0 or an overflow: inf or NaN, which settles nothing
        scaled = y.conj() / diagonal[rows, k, None]
        gap = (effects - y[:, :, None] * scaled[:, None, :]).reshape(n, -1).view(np.float64)
        lam = np.einsum("ij,ij->i", scaled, y).real
        spread = np.sqrt(np.einsum("ki,ki->k", gap, gap))
        return lam, spread + _EIGVALSH_ROUNDING * d * (np.abs(lam) + spread)


def rank_of(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Eigenvalue count above the cutoff rank_tol * max(1, |lambda|_max): :func:`effect_ranks`."""
    return int(effect_ranks(np.linalg.eigvalsh(require_hermitian(m, tol)), tol)[0])


def inv_sqrt(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    The result R is Hermitian positive definite and satisfies
    ``R @ m @ R ~ identity`` within recon_tol.
    """
    w, v = np.linalg.eigh(require_hermitian(m, tol))  # ascending; no order or phase rule needed
    if not w[0] > tol.psd_tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"<= psd_tol = {tol.psd_tol:.3e}"
        )
    r = (v / np.sqrt(w)) @ v.conj().T
    return (r + r.conj().T) / 2.0


def normalizer(total: np.ndarray, count: int, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """S^{-1/2} for S the Hermitian part of ``total``, the sum of ``count`` operators.

    The one congruence that makes operators sum to I: S^{-1/2} A S^{-1/2} for
    each operator A, or S^{-1/2} psi for each vector psi when the operators are
    |psi><psi|.  Each operator may be herm_tol off Hermitian, S ``count`` times that.
    """
    return inv_sqrt(total, replace(tol, herm_tol=count * tol.herm_tol))


def normalize_sum(ops: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """S^{-1/2} ops S^{-1/2}, Hermitian-symmetrized, with S^{-1/2} from :func:`normalizer`."""
    root = normalizer(ops.sum(axis=0), len(ops), tol)
    out = root @ ops @ root
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def independence_cutoff(tol: ToleranceConfig) -> float:
    """Margin a set of operators must exceed to count as independent."""
    return tol.indep_tol * _BORDERLINE_FACTOR


@cache
def _upper_entries(d: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of a d x d matrix, row-major; cached per d."""
    entries = np.flatnonzero(np.arange(d)[:, None] < np.arange(d))
    entries.setflags(write=False)
    return entries


def hermitian_coords(a: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of a Hermitian matrix or a (..., d, d) stack of them.

    The diagonal, then sqrt(2)*Re and sqrt(2)*Im of the strict upper triangle
    in row-major order: an isometry of the real space of Hermitian matrices onto
    R^{d^2}, so Frobenius norms, inner products and the singular values of a
    stack are those of the complex vectorization, in half the real entries.
    Only the upper triangle is read.
    """
    d = a.shape[-1]
    upper = a.reshape(*a.shape[:-2], d * d)[..., _upper_entries(d)] * math.sqrt(2.0)
    diagonal = np.diagonal(a, axis1=-2, axis2=-1).real
    return np.concatenate([diagonal, upper.real, upper.imag], axis=-1)


def hermitian_basis(d: int) -> np.ndarray:
    """Canonical basis of the d^2-dimensional real space of Hermitian matrices.

    Scan order: diagonal units |i><i|, then symmetric pairs
    |i><j| + |j><i|, then antisymmetric pairs -i|i><j| + i|j><i|, each
    group in row-major (i, j) order.  Returns shape (d*d, d, d).
    """
    if d < 1:
        raise BadDimensionError(f"dimension must be >= 1, got {d}")
    k = np.arange(d)
    i, j = np.triu_indices(d, 1)  # row-major pairs
    sym = d + np.arange(i.size)
    anti = sym + i.size
    ops = np.zeros((d * d, d, d), dtype=np.complex128)
    ops[k, k, k] = 1.0
    ops[sym, i, j] = ops[sym, j, i] = 1.0
    ops[anti, i, j] = -1.0j
    ops[anti, j, i] = 1.0j
    return ops


@cache
def unit_hermitian_basis(r: int) -> np.ndarray:
    """Orthonormal basis of the r x r Hermitian matrices, coordinates the r^2 unit vectors.

    :func:`hermitian_basis` at unit Frobenius norm with the antisymmetric pairs
    negated, so that :func:`hermitian_coords` maps it onto the identity; cached
    per r and read-only.
    """
    pairs = r * (r - 1) // 2  # the antisymmetric ones have -Im of their upper entries
    scale = np.repeat([1.0, math.sqrt(0.5), -math.sqrt(0.5)], [r, pairs, pairs])
    basis = hermitian_basis(r) * scale[:, None, None]
    basis.setflags(write=False)
    return basis


def banded_verdict(margin, tol: ToleranceConfig):
    """(independent, borderline) of a margin, or of each in an array, with a band around the cutoff."""
    low = tol.indep_tol / _BORDERLINE_FACTOR
    high = independence_cutoff(tol)
    return margin > high, (low < margin) & (margin <= high)


def independence_margin(rows: np.ndarray) -> np.ndarray:
    """Smallest-to-largest singular-value ratio of K <= n rows, per (..., K, n) stack; one SVD."""
    s = np.linalg.svd(rows, compute_uv=False)
    return s[..., -1] / s[..., 0]


_UNIT_ROUNDOFF = 2.0**-53  # of float64
_SMALLEST_NORMAL = 2.0**-1022  # above the absolute error of any product that underflows


def settled_independent(rows: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Where K <= n rows, per (..., K, n) stack, are proved independent under :func:`banded_verdict`.

    One Gram matmul G = R R^T and one batched Cholesky factorization of G - tau I,
    tau = (rho^2 + 2 (n + K + 2) u) tr G plus an absolute term for products that
    underflow, u the unit roundoff.  The computed G is within gamma_n tr G of the
    exact one in the 2-norm, and a factorization that succeeds is exact for a
    matrix within gamma_(K+1) tr G of the one factored (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10).  So success proves
    sigma_min^2 = lambda_min(G) >= rho^2 tr G >= rho^2 sigma_max^2, up to a
    relative gamma_n.  The SVD behind :func:`independence_margin` is backward
    stable: its singular values are within a modest multiple of n u sigma_max of
    the true ones, far below 2**-40 n sigma_max.  With rho = 2 *
    independence_cutoff(tol) + 2**-40 n its margin is then above the cutoff (the
    factor 2 covers the relative errors), and :func:`banded_verdict` says
    "independent", under every tolerance.  False means "not proved", and the SVD
    decides.  A failed factorization fails the whole batch (numpy raises for it).
    A NaN or Inf row fails it too, or gives a NaN factor, whose last pivot every
    NaN entry reaches: it settles nothing.
    """
    k, n = rows.shape[-2:]
    rho = 2.0 * independence_cutoff(tol) + 2.0**-40 * n
    slack = 2.0 * (n + k + 2)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, Inf or overflow: a NaN factor
        gram = rows @ rows.swapaxes(-1, -2)
        diagonal = gram.reshape(*gram.shape[:-2], k * k)[..., :: k + 1]  # a view into gram
        trace = diagonal.sum(axis=-1, keepdims=True)
        diagonal -= (rho * rho + slack * _UNIT_ROUNDOFF) * trace + slack * k * _SMALLEST_NORMAL
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return np.zeros(gram.shape[:-2], dtype=bool)
    return np.isfinite(factor[..., -1, -1])
