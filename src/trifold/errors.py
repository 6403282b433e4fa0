"""Exception types shared across the package."""


class TrifoldError(Exception):
    """Base class for all trifold errors."""


class MalformedLayer(TrifoldError):
    """A segment's layer triangle could not be resolved (internal bug)."""


class OutOfRegion(TrifoldError):
    """A query outside the domain of a finite folding sequence or window."""


class IncompatibleSequences(TrifoldError):
    """Two folding sequences differ in infinitely many positions."""


class OrientationMismatch(TrifoldError):
    """A patch or seed has the wrong orientation for the requested step."""


class SeamConflict(TrifoldError):
    """Adjacent tiles assigned different colors to a shared segment."""


class NotTriangular(TrifoldError):
    """A conjugated substitution matrix failed to be lower triangular."""


class Inconsistent(TrifoldError):
    """Tiling data admits no segment coloring (corrupted input)."""


class WindowTooSmall(TrifoldError):
    """The window cannot support the requested measurement."""


class ParseError(TrifoldError):
    """Malformed pattern or tiling file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
