"""Exceptions shared across the package."""


class FsingError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(FsingError):
    """Operands live in different rings (or a different monomial order)."""


class DegreeGuardError(FsingError):
    """A resource guard tripped instead of letting a computation grow without bound.

    The message names the knob that raises the limit: ``max_degree`` or
    ``max_basis`` (Groebner bases), ``newton.MAX_BOX_POINTS`` (lattice walks)
    or ``frobenius.MAX_DIGIT_VECTORS`` (roots of plain powers).  The caller
    can retry with a larger limit if the input is trusted.
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
