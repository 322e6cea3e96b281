"""Exception types shared across the package, and the input contract.

Every public constructor and function, and every reader of a file or of
text, raises a TournsimError subclass on bad input, naming the field or
argument, or the place in the text."""


class TournsimError(ValueError):
    """Base class for all domain errors."""


class IngestionError(TournsimError):
    """Malformed or inconsistent tabular model input."""


class InvalidPairingError(TournsimError):
    """A game was requested between a team and itself."""


class InvalidInputError(TournsimError):
    """Empty or mixed-pair game lists, bad parameters."""


class InvalidComparisonError(TournsimError):
    """Rankings or distributions over different team sets."""


class UnsupportedSizeError(TournsimError):
    """Format engine invoked with a team count it does not support."""
