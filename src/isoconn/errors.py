"""Domain exceptions shared across the package."""


class AnalysisError(Exception):
    """Base class for every domain error raised by isoconn."""


class NonFiniteError(AnalysisError):
    """A matrix or position contains NaN or infinity."""


class NonSymmetricError(AnalysisError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class ConvergenceError(AnalysisError):
    """The eigensolver hit its sweep cap without converging."""


class NotBijectionError(AnalysisError):
    """A permutation repeats or skips an index."""


class OrderTooSmallError(AnalysisError):
    """The construction needs a larger matrix order."""


class OrderTooLargeError(AnalysisError):
    """Full enumeration was requested beyond the factorial cutoff."""


class OrderMismatchError(AnalysisError):
    """Two matrices that must share an order do not."""


class NotLaplacianError(AnalysisError):
    """A matrix fails structural Laplacian validation."""


class DegenerateFiedlerError(AnalysisError):
    """The second eigenvalue is (near-)repeated, so the Fiedler vector is not unique."""


class InvalidTransformError(AnalysisError):
    """A similarity transform fails orthonormality or the ones fixed-point test."""


class CoincidentAgentsError(AnalysisError):
    """Two agents occupy the same position."""


class InvalidVariationError(AnalysisError):
    """A Laplacian variation is asymmetric or its rows do not sum to zero."""


class NonPositiveParameterError(AnalysisError):
    """A family parameter that must be positive is not."""


class NegativeDiscriminantError(AnalysisError):
    """The closed-form spectrum would need the square root of a negative number.

    Never raised: the discriminant is computed as a sum of squares.  Kept
    because it is part of the public API.
    """


class EmptyGridError(AnalysisError):
    """A sampling grid has no cells."""
