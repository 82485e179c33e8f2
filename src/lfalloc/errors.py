"""Exception types shared across the package, and the one rule that names
an input in front of an error.

Every error about one input begins with that input's name: a file's path,
then, for one part of it, the part (`path: frame 7: `). `named` writes
that prefix. Two places write it by hand: the record reader's per-line
handler, whose block runs once per line, too often for a context
manager, and the `metrics` command's message for a frame missing from
the weight map, which names the map after it. An option value that the
allocator rejects names the quantity, not the file.
"""


class LfallocError(Exception):
    """Base class for every package-specific error."""


class ParseError(LfallocError):
    """Malformed input file or text record."""


class DegenerateWeights(LfallocError):
    """All raw frame weights are zero, so they cannot be rescaled."""


class IncompleteInput(LfallocError):
    """A per-frame map misses a coordinate of the grid or names one off it."""


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


class named:
    """Context manager that raises an error of kinds from its block again,
    as f"{name}: {message}", chained from the original.

    kinds defaults to any LfallocError or ValueError. A package error keeps
    its type; any other error becomes a ParseError. Not for NotConverged,
    whose result the new error would not carry.
    """

    __slots__ = ("name", "kinds")

    def __init__(self, name, *kinds: type[Exception]):
        self.name = name
        self.kinds = kinds or (LfallocError, ValueError)

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, self.kinds):
            renamed = kind if isinstance(exc, LfallocError) else ParseError
            raise renamed(f"{self.name}: {exc}") from exc
