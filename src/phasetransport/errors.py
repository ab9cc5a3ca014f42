"""Exception types shared across the package.

``ValidationError`` is invalid input, raised by the check that each type
defines on its own values; it is also a ``ValueError``.  A plain
``ValueError`` reports a broken call contract, not bad input.
"""


class TransportError(Exception):
    """Base class for everything raised deliberately by this package."""


class SingularMetric(TransportError):
    """Metric determinant vanished (or inversion failed) at a queried event."""


class OutsideDomain(TransportError):
    """An event was rejected by a domain guard; message carries the reason."""


class MalformedFaraday(TransportError):
    """A field-strength matrix failed the antisymmetry check."""


class StepRejected(TransportError):
    """Adaptive stepping could not meet tolerance above the minimum step size."""


class NonMonotoneTime(TransportError):
    """Coordinate-time samples were not strictly increasing."""


class IncompatibleChecker(TransportError):
    """A checker was requested for a scenario lacking the required data."""


class ParseError(TransportError):
    """Scenario document is syntactically malformed or has unknown keys."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        self.line = line
        self.key = key
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ValidationError(TransportError, ValueError):
    """A value is invalid input: out of its type's range, or a scenario
    document that is well formed but semantically invalid."""
