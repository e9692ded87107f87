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
    """Cyclic-symmetry eigenphases are not unit modulus, not N-th roots of
    unity, or not pairwise distinct where distinctness is required."""


class NotSymmetricError(MaxconfError):
    """An ensemble does not actually possess the cyclic symmetry it claims."""


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

