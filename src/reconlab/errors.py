"""Exception types shared across the package."""


class ReconError(Exception):
    """Base class for all reconlab errors."""


class DegenerateOrder(ReconError):
    """Matrix order too small for the requested operation."""


class NotSymmetric(ReconError):
    """Input matrix violates the symmetry tolerance."""


class NotFinite(ReconError):
    """Input matrix has a NaN or infinite entry."""


class DimensionMismatch(ReconError):
    """Operands have incompatible sizes."""


class SearchTooLarge(ReconError):
    """Requested search exceeds the configured cap."""


class ParseError(ReconError):
    """Malformed input text. `offset` is the 0-based byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NotPositiveSemidefinite(ReconError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotPositiveDefinite(ReconError):
    """Matrix is singular or indefinite where positive definiteness is required."""


class BadPosition(ReconError):
    """Presentation is not in good position."""


class NonSimplicialCone(ReconError):
    """Cone generators are linearly dependent."""


class NotNested(ReconError):
    """Claimed cone containment fails certification."""


class PreconditionViolated(ReconError):
    """Geometric precondition of a comparison check fails."""


class NotHypomorphic(ReconError):
    """Matrix pair fails the deck-matching certificate gate."""


class LambdaTooSmall(ReconError):
    """Shift parameter below the certified threshold."""


class NotCertified(ReconError):
    """No shift could be certified within the search budget."""


class DrawFailed(ReconError):
    """A random construction found no acceptable draw within its attempt budget."""


class ConsistencyError(ReconError):
    """Two independent closed forms of the same quantity disagree."""
