"""Finite-outcome POVMs on finite-dimensional complex Hilbert spaces.

Extremality testing, relabeling, mixing, decomposition of arbitrary
POVMs into relabeled mixtures of extremal rank-1 POVMs, and reference
constructions of extremal rank-1 POVMs with any admissible outcome
count.
"""

from .constructor import (
    construct_extremal_rank1,
    extend_extremal,
    onb_pvm,
    qubit_example,
    random_povm,
    type_d_example,
)
from .decomposer import (
    CertificateComponent,
    DecompositionCertificate,
    StatisticsReport,
    VerificationReport,
    decompose,
    outcome_probabilities,
    random_density_matrix,
    statistics_equivalence,
    verify_certificate,
)
from .errors import PovmForgeError
from .extremality import (
    NOT_EXTREMAL,
    ExtremalityReport,
    PovmClass,
    classify,
    extremal_to_rank1,
    extremality_report,
    is_extremal,
    is_extremal_rank1,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    ToleranceConfig,
    eig_herm,
    hermitian_basis,
    inv_sqrt,
    rank_of,
)
from .povm import (
    Povm,
    RelabelMap,
    equivalent,
    mix,
    prune_zero_effects,
    relabel,
    spectral_relabel,
    validate,
    violations,
)

__version__ = "0.1.0"

__all__ = [
    "Povm",
    "RelabelMap",
    "PovmClass",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SpectralDecomposition",
    "ExtremalityReport",
    "DecompositionCertificate",
    "CertificateComponent",
    "VerificationReport",
    "StatisticsReport",
    "PovmForgeError",
    "NOT_EXTREMAL",
    "eig_herm",
    "rank_of",
    "inv_sqrt",
    "violations",
    "validate",
    "prune_zero_effects",
    "relabel",
    "mix",
    "spectral_relabel",
    "classify",
    "equivalent",
    "extremality_report",
    "is_extremal",
    "is_extremal_rank1",
    "decompose",
    "extremal_to_rank1",
    "verify_certificate",
    "outcome_probabilities",
    "statistics_equivalence",
    "random_density_matrix",
    "hermitian_basis",
    "onb_pvm",
    "extend_extremal",
    "construct_extremal_rank1",
    "qubit_example",
    "type_d_example",
    "random_povm",
]
