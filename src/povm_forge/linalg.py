"""Complex Hermitian linear-algebra kernel.

Everything downstream (POVM validation, extremality tests, the
decomposition engine) reduces to a handful of primitives implemented
here: eigendecomposition with a deterministic ordering and phase
convention, rank decisions with explicit tolerances, inverse
square roots, and linear-independence testing of operator sets via
vectorization and a singular-value rank cut.

All functions are pure; numerical decisions are governed by a
:class:`ToleranceConfig` passed explicitly (defaulting to
:data:`DEFAULT_TOL`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NotHermitianError,
    NotPositiveDefiniteError,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "IndependenceResult",
    "eig_herm",
    "rank_of",
    "inv_sqrt",
    "linearly_independent",
]


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


def hermitian_deviation(a: np.ndarray) -> np.ndarray:
    """Max entrywise |a - a^H| of a matrix, or of each matrix in a (..., d, d) stack."""
    with np.errstate(invalid="ignore"):  # a NaN or Inf entry gives NaN or Inf: no tolerance passes
        return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Return ``m`` (a matrix or a stack of them) as a complex array; raise if not Hermitian."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    deviation = float(hermitian_deviation(a).max())
    if not deviation <= tol.herm_tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian symmetry by {deviation:.3e} "
            f"(herm_tol = {tol.herm_tol:.3e})"
        )
    return a


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

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def projection(self, k: int) -> np.ndarray:
        """Rank-1 projection onto the k-th eigenvector."""
        v = self.eigenvectors[..., :, k]
        return v[..., :, None] * v.conj()[..., None, :]

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted eigenprojections."""
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def eig_herm(m, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with deterministic ordering.

    ``m`` may also be a (..., d, d) stack, decomposed with one batched
    ``eigh``.  Eigenvalues are returned in descending order; each
    eigenvector's first nonzero component is made real positive.
    """
    a = require_hermitian(m, tol)
    w, v = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)
    order = np.argsort(-w, axis=-1, kind="stable")  # eigh is ascending; keep tie order
    w = np.take_along_axis(w, order, axis=-1)
    v = _fix_phases(np.take_along_axis(v, order[..., None, :], axis=-1))
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def rank_cutoff(w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Per-row rank cutoff rank_tol * max(1, |lambda|_max) of eigenvalues ``w``, axis kept."""
    return tol.rank_tol * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True))


def rank_of(m, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Eigenvalue count above the relative cutoff rank_tol * max(1, |lambda|_max)."""
    a = require_hermitian(m, tol)
    w = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(np.abs(w) > rank_cutoff(w, tol)))


def inv_sqrt(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix.

    The result R is Hermitian positive definite and satisfies
    ``R @ m @ R ~ identity`` within recon_tol.
    """
    dec = eig_herm(m, tol)
    smallest = float(dec.eigenvalues[-1])
    if smallest <= tol.psd_tol:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {smallest:.3e} "
            f"<= psd_tol = {tol.psd_tol:.3e}"
        )
    v = dec.eigenvectors
    r = (v / np.sqrt(dec.eigenvalues)) @ v.conj().T
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of a linear-independence test over complex scalars.

    ``margin`` is the smallest-to-largest singular-value ratio of the
    stacked vectorized operators (0.0 when there are more operators than
    the ambient dimension d^2 allows).  ``null_vector`` is a unit-norm
    dependence vector, populated only when the set is dependent; it has
    real entries whenever all input operators are Hermitian.
    """

    independent: bool
    null_vector: np.ndarray | None
    margin: float

    def __bool__(self) -> bool:
        return self.independent


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Scale a vector so its largest-magnitude entry is real positive."""
    pivot = vec[np.argmax(np.abs(vec))]
    if abs(pivot) == 0.0:
        return vec
    return vec * (pivot.conjugate() / abs(pivot))


def linearly_independent(ops, tol: ToleranceConfig = DEFAULT_TOL) -> IndependenceResult:
    """Test a list of same-dimension matrices for linear independence.

    The matrices are vectorized into the columns of a d^2 x K matrix and
    declared independent iff its numerical rank (relative singular-value
    cutoff ``indep_tol``) equals K.  When dependent, the right-singular
    direction of the smallest singular value is returned as a unit-norm
    dependence vector; for all-Hermitian inputs it is projected onto real
    coefficients (a real dependence exists whenever a complex one does).
    """
    mats = [np.asarray(op, dtype=np.complex128) for op in ops]
    if not mats:
        raise EmptyInputError("independence test requires at least one operator")
    d = mats[0].shape[0] if mats[0].ndim == 2 else -1
    for a in mats:
        if a.ndim != 2 or a.shape != (d, d):
            raise DimensionMismatchError(
                f"all operators must be {d}x{d}, got shape {a.shape}"
            )
    k = len(mats)
    stack = np.stack(mats)
    # vh has null rows beyond the first d^2 only when K > d^2
    _, s, vh = np.linalg.svd(stack.reshape(k, d * d).T, full_matrices=k > d * d)
    s_max = float(s[0]) if s.size else 0.0
    if s_max == 0.0:
        # All operators are exactly zero; any unit vector is a dependence.
        null = np.zeros(k)
        null[0] = 1.0
        return IndependenceResult(independent=False, null_vector=null, margin=0.0)
    smallest = float(s[k - 1]) if k <= s.size else 0.0
    margin = smallest / s_max
    rank = int(np.count_nonzero(s > tol.indep_tol * s_max))
    if rank == k:
        return IndependenceResult(independent=True, null_vector=None, margin=margin)

    null = vh[-1, :].conj()
    if np.all(hermitian_deviation(stack) <= tol.herm_tol):
        real_part, imag_part = null.real, null.imag
        null = real_part if np.linalg.norm(real_part) >= np.linalg.norm(imag_part) else imag_part
        null = null / np.linalg.norm(null)
    null = _canonical_sign(null)
    null.setflags(write=False)
    return IndependenceResult(independent=False, null_vector=null, margin=margin)
