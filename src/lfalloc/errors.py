"""Exception types shared across the package."""


class LfallocError(Exception):
    """Base class for every package-specific error."""


class ParseError(LfallocError):
    """Malformed input file or text record."""


class DegenerateWeights(LfallocError):
    """All raw frame weights are zero, so they cannot be rescaled."""


class IncompleteInput(LfallocError):
    """A per-frame map does not cover every coordinate of the grid."""


class InsufficientSamples(LfallocError):
    """Too few distinct rate samples to fit a rate-distortion model."""


class NonDecreasingRD(LfallocError):
    """Fitted rate-distortion exponent is not negative."""


class ModelOutOfRange(LfallocError):
    """Fitted rate-distortion parameters lie outside floating-point range."""


class DomainError(LfallocError):
    """Numeric argument outside the mathematical domain of an operation."""


class InsufficientPoints(LfallocError):
    """Too few curve points for the cubic rate-quality fit."""


class NoOverlap(LfallocError):
    """Two rate-quality curves share no quality interval."""


class InfeasibleBudget(LfallocError):
    """The rate floor alone already exceeds the total budget."""


class EncodeFailed(LfallocError):
    """The encoder adapter could not produce a result for a frame."""


class NotConverged(LfallocError):
    """An iterative solve ran out of iterations.

    Carries the best iterate found so far so the caller can decide whether
    to use it anyway.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
