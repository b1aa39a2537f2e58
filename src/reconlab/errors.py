"""Exception types; the CLI exits 1 on a `CheckFailed` and 2 on any other `ReconError`."""


class ReconError(Exception):
    """Base class for all reconlab errors."""


class CheckFailed(ReconError):
    """A mathematical check failed or was inconclusive (CLI exit 1)."""


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


class NotPositiveSemidefinite(CheckFailed):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotPositiveDefinite(CheckFailed):
    """Matrix is singular or indefinite where positive definiteness is required."""


class BadPosition(CheckFailed):
    """Presentation is not in good position."""


class NonSimplicialCone(ReconError):
    """Cone generators are linearly dependent."""


class NotNested(CheckFailed):
    """Claimed cone containment fails certification."""


class PreconditionViolated(CheckFailed):
    """Geometric precondition of a comparison check fails."""


class NotHypomorphic(CheckFailed):
    """Matrix pair fails the deck-matching certificate gate."""


class LambdaTooSmall(CheckFailed):
    """Shift parameter below the certified threshold."""


class NotCertified(CheckFailed):
    """No shift could be certified within the search budget."""


class DrawFailed(ReconError):
    """A random construction found no acceptable draw within its attempt budget."""


class ConsistencyError(CheckFailed):
    """Two independent closed forms of the same quantity disagree."""
