"""Exception types shared across the package.

Everything derives from ValueError so callers that only care about
"bad input" can catch one base class; the CLI maps the subclasses to
distinct exit codes.
"""

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class GridFormatError(ValueError):
    """Grid input is malformed: not square, bad token, or symbol out of range."""


class UndefinedDistanceError(ValueError):
    """Raised for order-1 grids, which have no adjacent cell pairs."""


class NonexistenceError(ValueError):
    """The requested object provably does not exist (not a search failure)."""


class NotReducibleError(ValueError):
    """Canonicalization could not verify the cyclic row structure it needs.

    This is a limitation of the constructive reduction, not a proof that
    the input lies outside the circulant isotopy class.
    """


class SearchIncompleteError(ValueError):
    """An exhaustive search ran out of node budget before deciding.

    Attributes carry the bracketing interval that remains open.
    """

    def __init__(self, message: str, lower: int, upper: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
