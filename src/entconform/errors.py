"""Exception hierarchy shared by all modules.

``ValidationError`` subclasses signal bad inputs or configuration (CLI exit
code 2); everything else under ``EntconformError`` is a runtime failure
(exit code 3).
"""

import numbers


class EntconformError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EntconformError):
    """Invalid input data, arguments, or configuration."""


class InvalidInput(ValidationError):
    """An argument violates a documented precondition."""


class InvalidGamma(InvalidInput):
    """Entropic index outside the supported range."""


class LabelOutOfRange(ValidationError):
    """A label index does not address a valid class."""


class DimensionMismatch(ValidationError):
    """Array shapes are inconsistent with each other or the predictor."""


class EmptyCalibration(ValidationError):
    """Calibration requires at least one labeled instance."""


class EmptyRun(ValidationError):
    """Metrics require at least one prediction set."""


class InvalidFractions(ValidationError):
    """Split fractions must be positive and sum to one."""


class InsufficientData(ValidationError):
    """Not enough instances to carry out the requested protocol."""


class ParseError(ValidationError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InconsistentWidth(ParseError):
    """A CSV row has the wrong number of fields."""


class NonConvergence(EntconformError):
    """The entmax threshold failed to normalize within the iteration cap."""


class IoError(EntconformError):
    """Failed to write an output artifact."""


def checked(value, kind: type, what: str):
    """``value`` unchanged if it has type ``kind``, else :class:`InvalidInput`.

    ``int`` and ``float`` accept any integral or real number (a JSON integer
    passes as a float); a bool passes only as ``bool``.
    """
    numeric = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, numeric):
        raise InvalidInput(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value
