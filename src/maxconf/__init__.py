"""Maximum-confidence discrimination of quantum state ensembles.

Compute the measurement that identifies each state of an ensemble with the
highest possible confidence, minimize the probability of the inconclusive
outcome among such measurements, and certify optimality with a verifiable
dual witness. Closed forms cover cyclic (symmetric) ensembles; a
self-contained numerical solver covers everything else.
"""

from .ensembles import (
    StateEnsemble,
    SymmetrySpec,
    ValidationReport,
    Violation,
    average_state,
    build_depolarized_family,
    build_symmetric_ensemble,
    default_phases,
    orbit,
    validate,
)
from .errors import (
    DegenerateCoefficientError,
    DegenerateMappingError,
    DegenerateTopEigenvalueError,
    InfeasibleInputError,
    InvalidPhasesError,
    MaxconfError,
    NoNegativeEigenvalueError,
    NonHermitianError,
    NotConvergedError,
    NotPSDError,
    NotSymmetricError,
)
from .families import (
    FamilySolution,
    SymmetricFamily,
    flat_mixed_solution,
    pure_symmetric_solution,
    qubit_mixed_solution,
    square_root_measurement,
)
from .geometry import (
    MCGeometry,
    geometry,
    is_unambiguous,
    two_state_components,
)
from .operators import opnorm
from .solver import (
    DetectionSet,
    MeasurementStats,
    OptimalityCertificate,
    PerturbationWitness,
    SolveReport,
    evaluate_measurement,
    perturbation_witness,
    solve_numeric,
    solve_rank1_symmetric,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateCoefficientError",
    "DegenerateMappingError",
    "DegenerateTopEigenvalueError",
    "DetectionSet",
    "FamilySolution",
    "InfeasibleInputError",
    "InvalidPhasesError",
    "MCGeometry",
    "MaxconfError",
    "MeasurementStats",
    "NoNegativeEigenvalueError",
    "NonHermitianError",
    "NotConvergedError",
    "NotPSDError",
    "NotSymmetricError",
    "OptimalityCertificate",
    "PerturbationWitness",
    "SolveReport",
    "StateEnsemble",
    "SymmetricFamily",
    "SymmetrySpec",
    "ValidationReport",
    "Violation",
    "average_state",
    "build_depolarized_family",
    "build_symmetric_ensemble",
    "default_phases",
    "evaluate_measurement",
    "flat_mixed_solution",
    "geometry",
    "is_unambiguous",
    "opnorm",
    "orbit",
    "perturbation_witness",
    "pure_symmetric_solution",
    "qubit_mixed_solution",
    "solve_numeric",
    "solve_rank1_symmetric",
    "square_root_measurement",
    "two_state_components",
    "validate",
    "verify_certificate",
]
