"""Exception types raised across the package.

Everything derives from MaxconfError so callers can catch the package's
failures with a single except clause while letting genuine bugs surface
as ordinary exceptions.
"""


class MaxconfError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(MaxconfError):
    """An operator that must be Hermitian is not, beyond tolerance."""


class NotPSDError(MaxconfError):
    """An operator that must be positive semidefinite has a negative eigenvalue."""


class InfeasibleInputError(MaxconfError):
    """Input data violates a precondition of the requested operation."""


class InvalidPhasesError(MaxconfError):
    """Cyclic-symmetry data no orbit carries: phases not unit modulus, not order-th roots of unity or repeated
    where distinct ones are required; a group order that is not an integer >= 1 (check_order); fewer than dim
    distinct roots of the order (default_phases); a phase vector not of the dimension's length (_cyclic_ensemble)."""


class NotSymmetricError(MaxconfError):
    """An ensemble carries no symmetry data where solve_rank1_symmetric needs it. A claimed
    symmetry that fails is a validate violation, refused as an InfeasibleInputError."""


class DegenerateCoefficientError(MaxconfError):
    """A symmetric-family coefficient vanishes; the family construction
    requires every component to be nonzero."""


class DegenerateTopEigenvalueError(MaxconfError):
    """The top eigenvalue of a transformed state is degenerate, so a rank-one
    closed form does not apply."""


class DegenerateMappingError(MaxconfError):
    """The two-state component decomposition is singular (confidences sum to one)."""


class NotConvergedError(MaxconfError):
    """The numerical solver failed to reach the requested duality gap."""


class NoNegativeEigenvalueError(MaxconfError):
    """A perturbation witness was requested but every certificate condition
    is already satisfied; there is no negative direction to exploit."""

