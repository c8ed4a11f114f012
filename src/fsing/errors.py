"""Exceptions shared across the package."""


class FsingError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(FsingError):
    """Operands live in different rings (or a different monomial order)."""


class DegreeGuardError(FsingError):
    """A resource guard tripped instead of letting a computation grow without bound.

    The message names the module constant that sets the limit:
    ``groebner.MAX_DEGREE`` or ``groebner.MAX_BASIS`` (Groebner bases),
    ``newton.MAX_BOX_POINTS`` (lattice walks, and plain monomial powers in
    any number of variables, refused before they expand) or
    ``frobenius.MAX_DIGIT_VECTORS`` (roots of plain powers).  The guard reads
    it when it runs, so a caller that trusts the input can raise it and retry.
    """


class NonconvergenceError(FsingError):
    """An iteration did not stabilize within the configured bounds."""


class ParseError(FsingError):
    """Malformed textual input.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
