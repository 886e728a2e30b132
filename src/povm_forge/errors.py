"""Exception hierarchy shared by all modules.

Every error raised on a domain-level contract violation derives from
:class:`PovmForgeError`, so callers (notably the CLI) can distinguish
domain failures from I/O and programming errors.
"""

from __future__ import annotations


class PovmForgeError(Exception):
    """Base class for all domain errors raised by this package."""


class NotHermitianError(PovmForgeError):
    """A matrix violates the Hermitian symmetry tolerance."""


class NotPositiveDefiniteError(PovmForgeError):
    """A matrix required to be positive definite has a non-positive eigenvalue."""


class NotPSDError(PovmForgeError):
    """An effect violates its eigenvalue bounds.

    ``outcome`` is the 0-based index of the offending effect, or None when
    the matrix was checked outside a POVM context.
    """

    def __init__(self, message: str, outcome: int | None = None):
        super().__init__(message)
        self.outcome = outcome


class NonFiniteError(PovmForgeError):
    """An effect has a NaN or infinite entry."""

    def __init__(self, message: str, outcome: int):
        super().__init__(message)
        self.outcome = outcome


class NotNormalizedError(PovmForgeError):
    """The effects of a candidate POVM do not sum to the identity."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DimensionMismatchError(PovmForgeError):
    """Operands live on different Hilbert-space dimensions or have bad shape."""


class EmptyInputError(PovmForgeError):
    """An operation received an empty collection where at least one item is required."""


class MapSizeMismatchError(PovmForgeError):
    """A relabeling map's source size does not match the POVM's outcome count."""


class BadWeightError(PovmForgeError):
    """A mixing weight lies outside the open interval (0, 1)."""


class AllZeroError(PovmForgeError):
    """Every effect of a POVM is numerically zero (impossible for valid input)."""


class NotRank1Error(PovmForgeError):
    """A POVM required to be rank-1 has a nonzero effect of rank != 1."""


class NotADependenceError(PovmForgeError):
    """A claimed linear dependence does not annihilate the effects within tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateDependenceError(PovmForgeError):
    """A dependence vector lacks a positive or a negative entry."""


class NotExtremalError(PovmForgeError):
    """The input POVM is not extremal."""


class NotExtremalRank1Error(NotExtremalError):
    """The input POVM is not an extremal rank-1 POVM."""


class InternalContradictionError(PovmForgeError):
    """A mathematically guaranteed property failed numerically (tolerance inconsistency)."""


class NonConvergenceError(PovmForgeError):
    """The decomposition peel exceeded its step bound, N - rank + 1, or missed its input."""


class AlreadyMaximalError(PovmForgeError):
    """An extremal rank-1 POVM already has the maximal number d^2 of outcomes."""


class OutOfRangeError(PovmForgeError):
    """A requested outcome count lies outside the admissible range [d, d^2]."""


class BadDimensionError(PovmForgeError):
    """A Hilbert-space dimension is not a positive integer."""


class SingularSumError(PovmForgeError):
    """Random POVM generation repeatedly produced a singular normalization sum."""


class UnknownExampleError(PovmForgeError):
    """An unknown reference-POVM name was requested."""


class TargetMismatchError(PovmForgeError):
    """A certificate's target POVM does not match the given POVM."""
