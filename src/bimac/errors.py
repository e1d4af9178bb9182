"""Exception types shared across the package."""


class DivisibilityError(ArithmeticError):
    """Exact division left a nonzero remainder.

    The offending remainder is kept on the exception so that a failed
    division can be diagnosed (a nonzero remainder in the Vandermonde
    division is a consistency alarm, not merely a bad input).
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ConsistencyError(RuntimeError):
    """A property that the theory guarantees failed to hold at runtime."""


class CacheRecordError(ValueError):
    """A cache record failed the check it gets before it is served; the
    message names the file and line it came from."""


class DegenerateEvaluationError(ZeroDivisionError):
    """An evaluation point annihilated a denominator factor."""
