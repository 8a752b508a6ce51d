"""Constructors for Latin squares with prescribed inner distance.

The workhorse is `algorithm1`, a doubly-periodic fill
    m[i][j] = 1 + (i-1)r + (j-1)c + alpha*floor((i-1)/R) + beta*floor((j-1)/C)  (mod n)
whose vertical/horizontal increments r, c set the distance classes and
whose offsets alpha, beta repair collisions whenever r or c shares a
factor with n.  `algorithm2` is the one other fill: it needs a four-case
row-offset rule to reach the maximum distance on (even, even) block
shapes.  The remaining constructors choose parameters for these two.  For
block shapes that choice is made once, in `_sudoku_plan`: `sudoku_square`
builds the fill it names, and `sudoku_bounds` takes its lower bound from
the distance that fill reaches.

Each constructor checks its output once, against all units of its own class,
before returning; a failed check is an internal bug, not a caller error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from numbers import Integral

import numpy as np

from .errors import NonexistenceError, ParameterError
from .grid import SquareGrid, SudokuShape, _validate
from .modmath import mod1n
from .transform import transpose

__all__ = [
    "BoundsEntry",
    "ShiftParams",
    "algorithm1",
    "algorithm2",
    "known_bounds",
    "max_distance_square",
    "pandiagonal_bounds",
    "pandiagonal_max",
    "plain_bounds",
    "predicted_inner_distance",
    "row_offset",
    "shift_by_k",
    "sudoku_bounds",
    "sudoku_square",
]


def _order(n, what: str = "an order") -> int:
    """An order, or another integer argument named by what, as a Python int.

    numpy ints are integers; a bool, a float or a string is none, whatever it rounds to.
    """
    if type(n) is int:
        # the common case, without the slower Integral check
        return n
    if not isinstance(n, Integral) or isinstance(n, bool):
        raise ParameterError(f"{what} is an integer; got {n!r}")
    return int(n)


@dataclass(frozen=True)
class ShiftParams:
    """Parameter bundle for `algorithm1`.

    r and c are the vertical and horizontal increments, 1 <= r, c <= n-1
    after reduction mod n; alpha and beta are the offsets applied when
    crossing a period boundary (every R rows / C columns, where
    R = n/gcd(n, r) and C = n/gcd(n, c)).

    Negative values are accepted and reduced into [1, n]; the coprimality
    requirements gcd(alpha, r) = gcd(beta, c) = 1 are checked against the
    absolute value of the offsets as given, since e.g. alpha = -1 is
    coprime to everything while its reduced form n-1 need not be.
    """

    n: int
    r: int
    c: int
    alpha: int
    beta: int

    def __post_init__(self):
        for name in ("n", "r", "c", "alpha", "beta"):
            object.__setattr__(self, name, _order(getattr(self, name), f"ShiftParams.{name}"))
        if self.n < 2:
            raise ParameterError(f"order must be at least 2, got {self.n}")
        r = self.r % self.n
        c = self.c % self.n
        if r == 0 or c == 0:
            raise ParameterError(f"increments must not be divisible by n={self.n}")
        if gcd(abs(self.alpha), r) != 1:
            raise ParameterError(f"gcd(|alpha|={abs(self.alpha)}, r={r}) must be 1")
        if gcd(abs(self.beta), c) != 1:
            raise ParameterError(f"gcd(|beta|={abs(self.beta)}, c={c}) must be 1")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "alpha", mod1n(self.alpha, self.n))
        object.__setattr__(self, "beta", mod1n(self.beta, self.n))

    @property
    def R(self) -> int:
        return self.n // gcd(self.n, self.r)

    @property
    def C(self) -> int:
        return self.n // gcd(self.n, self.c)


def _require(cells, shape: SudokuShape | None = None, pandiagonal: bool = False) -> SquareGrid:
    """The grid of cells, checked in one pass over every unit of its class."""
    grid = SquareGrid(cells)
    if not _validate(grid, shape, pandiagonal).verdict:
        raise RuntimeError("constructor repeated a symbol in a unit of its class (internal bug)")
    return grid


def _shift_fill(params: ShiftParams) -> np.ndarray:
    """The cells of `algorithm1(params)`, unchecked."""
    n, r, c = params.n, params.r, params.c
    i = np.arange(n).reshape(-1, 1)
    j = np.arange(n).reshape(1, -1)
    vals = i * r + j * c + params.alpha * (i // params.R) + params.beta * (j // params.C)
    return vals % n + 1


def algorithm1(params: ShiftParams) -> SquareGrid:
    """Fill an n x n grid with the doubly-periodic shift pattern.

    The output is always Latin: within a period the increment walks a
    fixed coset, and the offsets are coprime to the increments, so no row
    or column can repeat a symbol.
    """
    return _require(_shift_fill(params))


def _half_range(t: int, n: int) -> int:
    t %= n
    return min(t, n - t)


def predicted_inner_distance(params: ShiftParams) -> int:
    """Inner distance of `algorithm1(params)` without building the grid.

    The realized adjacent differences are r and c inside a period, and
    r+alpha / c+beta across period boundaries.  A boundary class only
    exists when the period is shorter than the grid (R < n resp. C < n);
    with a full-length period the offset is never applied and must not
    enter the minimum.
    """
    n = params.n
    classes = [_half_range(params.r, n), _half_range(params.c, n)]
    if params.R < n:
        classes.append(_half_range(params.r + params.alpha, n))
    if params.C < n:
        classes.append(_half_range(params.c + params.beta, n))
    return min(classes)


def shift_by_k(n: int, k: int) -> SquareGrid:
    """Top row 1..n, each following row rotated right by k; needs gcd(k, n) = 1.

    k = 1 gives the circulant square, k = -1 the back circulant.  It is the
    shift fill with increments -k and 1, whose periods span the whole grid.
    """
    n, k = _order(n), _order(k, "a shift")
    if n < 1:
        raise ParameterError(f"order must be positive, got {n}")
    if gcd(k, n) != 1:
        raise ParameterError(f"shift {k} is not coprime to {n}")
    if n == 1:
        return SquareGrid([[1]])
    return algorithm1(ShiftParams(n, r=-k, c=1, alpha=n, beta=n))


def max_distance_square(n: int) -> SquareGrid:
    """A Latin square of order n with the largest possible inner distance.

    The maximum is floor((n-1)/2) for n >= 3 (adding more than half the
    order is the same as subtracting less); for n = 2 both squares of that
    order have distance 1.
    """
    n = _order(n)
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    if n == 2:
        return shift_by_k(2, 1)
    if n % 2:
        h = (n - 1) // 2
        return algorithm1(ShiftParams(n, h, h, n, n))
    h = (n - 2) // 2
    return algorithm1(ShiftParams(n, h, h, 1, 1))


def pandiagonal_max(n: int) -> SquareGrid:
    """A pandiagonal Latin square of order n with inner distance (n-3)/2.

    Pandiagonal squares exist iff n is coprime to 6 (n = 1, 5 mod 6), and
    (n-3)/2 is the largest inner distance the diagonal constraints allow:
    at distance (n-1)/2 the increments satisfy |r| = |c|, which forces a
    constant diagonal.
    """
    n = _order(n)
    if n < 1:
        raise ParameterError(f"order must be positive, got {n}")
    if n % 6 not in (1, 5):
        raise NonexistenceError(
            f"no pandiagonal Latin square of order {n} exists (order must be 1 or 5 mod 6)")
    if n == 1:
        raise ParameterError("no inner distance is defined below order 2")
    params = ShiftParams(n, r=mod1n(-(n - 3) // 2, n), c=(n - 1) // 2, alpha=n, beta=n)
    return _require(_shift_fill(params), pandiagonal=True)


# row-offset rule for the (even, even) fill ---------------------------------


def row_offset(k: int, x: int) -> int:
    """Extra vertical offset added when entering row k, for block height 2x.

    Exactly one case applies to every k >= 1:
      0   for the first row and all even rows,
      -x  for the first row of every later band (k = 1 mod 2x, k > 1),
      +1  for the remaining odd rows in even bands,
      -1  for the remaining odd rows in odd bands.
    """
    if x < 2:
        raise ParameterError(f"half-height must be at least 2, got {x}")
    if k < 1:
        raise ParameterError(f"row index must be positive, got {k}")
    a = 2 * x
    if k == 1 or k % 2 == 0:
        return 0
    if k % a == 1:
        return -x
    m = k % (2 * a)
    if 1 < m < a:
        return 1
    # remaining odd rows necessarily fall in an odd band
    assert a + 1 < m < 2 * a, (k, x)
    return -1


def algorithm2(x: int, y: int) -> SquareGrid:
    """A (2x, 2y)-Sudoku Latin square with inner distance 2xy - x = (n-a)/2.

    The plain shift fill cannot reach (n-a)/2 here: the horizontal
    increment shares only a/2 with n, so its offsets fire every two stacks
    instead of every stack, and the vertical direction needs the four-case
    row offsets to keep blocks collision-free.
    """
    x, y = _order(x, "a half-height"), _order(y, "a half-width")
    if x < 2:
        raise ParameterError(f"half-height must be at least 2, got {x} (height 2 has its own rule)")
    if y < x:
        raise ParameterError(f"needs x <= y, got ({x}, {y}); build ({y}, {x}) and transpose")
    a, b = 2 * x, 2 * y
    n = a * b
    offsets = np.cumsum([row_offset(k, x) for k in range(1, n + 1)])
    i = np.arange(n).reshape(-1, 1)
    j = np.arange(n).reshape(1, -1)
    vals = j * (2 * x * y - x) + j // (4 * y) + i * (2 * x * y) + offsets.reshape(-1, 1)
    return _require(vals % n + 1, SudokuShape(a, b))


# block shapes ----------------------------------------------------------------


def _sudoku_plan(a: int, b: int) -> tuple[str, ShiftParams | None]:
    """The fill that builds the (a, b)-Sudoku square for 2 <= a <= b.

    Returns the fill's provenance name and its `ShiftParams`, or None for
    `algorithm2`, which reaches (n-a)/2.  Otherwise the reached inner
    distance is `predicted_inner_distance` of the parameters.
    """
    n = a * b
    if a == 2:
        # inner distance b - 1, the maximum
        return "two-row-block-formula", ShiftParams(n, r=b, c=b - 1, alpha=1,
                                                     beta=1 if b % 2 else n)
    if b % 2:
        # (n-a)/2: the horizontal increment (n-a)/2 shares exactly the factor
        # a with n, so the stack offset fires every b columns, right on the
        # block seams
        if a == b:
            # square blocks: the mirrored parameter set (both increments
            # negated, axes swapped) realizes the same distances; R == a
            # keeps the vertical offsets on the block seams
            params = ShiftParams(n, r=mod1n(-(n - a) // 2, n), c=mod1n(-(n - 1) // 2, n),
                                 alpha=-1, beta=n)
        else:
            # the vertical increment is the largest value under n/2 coprime
            # to n, which depends on a mod 4
            if a % 2:
                r = (n - 1) // 2
            elif a % 4 == 0:
                r = (n - 2) // 2
            else:
                r = (n - 4) // 2
            params = ShiftParams(n, r=r, c=(n - a) // 2, alpha=n, beta=1)
        return "odd-width-shift-fill", params
    if a % 2 == 0:
        # the shift fill cannot reach (n-a)/2 on (even, even) blocks; see
        # `algorithm2`
        return "even-even-row-offset-fill", None
    # odd a, even b: (n - min(2a, b))/2 when b = 0 mod 4 and (n - min(4a, b))/2
    # when b = 2 mod 4; whichever of the two increments is smaller rides on
    # the block seams, so the parameter roles swap when b is small
    # relative to a
    if b % 4 == 0:
        if b >= 2 * a:
            params = ShiftParams(n, r=(n - 2) // 2, c=(n - 2 * a) // 2, alpha=n, beta=1)
        else:
            params = ShiftParams(n, r=(n - b) // 2, c=(n - 2) // 2, alpha=1, beta=n)
        return "width-div4-shift-fill", params
    if b >= 4 * a:
        params = ShiftParams(n, r=(n - 4) // 2, c=(n - 4 * a) // 2, alpha=n, beta=1)
    else:
        params = ShiftParams(n, r=(n - b) // 2, c=(n - 4) // 2, alpha=1, beta=n)
    return "width-2mod4-shift-fill", params


def sudoku_square(a: int, b: int) -> SquareGrid:
    """Best known (a, b)-Sudoku construction for any shape.

    a > b builds and validates the (b, a) square and transposes it, which
    keeps it valid: the (b, a) blocks become (a, b) blocks.  Otherwise the
    fill is the one `_sudoku_plan` picks.
    """
    shape = SudokuShape(a, b)
    if a > b:
        return transpose(sudoku_square(b, a))
    if a == 1:
        return max_distance_square(b) if b >= 2 else SquareGrid([[1]])
    _, params = _sudoku_plan(a, b)
    if params is None:
        return algorithm2(a // 2, b // 2)
    return _require(_shift_fill(params), shape)


# bounds table ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundsEntry:
    """Best proven bounds on the maximum inner distance of one square class.

    exact means lower == upper is proven; existence is False only for
    pandiagonal orders divisible by 2 or 3, where the class is empty.
    provenance names the rules that produced the bounds.
    """

    kind: str
    n: int
    a: int | None
    b: int | None
    lower: int
    upper: int
    exact: bool
    existence: bool
    provenance: tuple[str, ...]

    def __post_init__(self):
        if self.existence and self.lower > self.upper:
            raise RuntimeError(f"inconsistent bounds {self.lower} > {self.upper} (internal bug)")

    def as_json_dict(self) -> dict:
        return {
            "kind": self.kind, "a": self.a, "b": self.b, "n": self.n,
            "lower": self.lower, "upper": self.upper, "exact": self.exact,
            "existence": self.existence, "provenance": list(self.provenance),
        }


def plain_bounds(n: int) -> BoundsEntry:
    """Exact maximum inner distance over all Latin squares of order n."""
    n = _order(n)
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    if n == 2:
        return BoundsEntry("plain", n, None, None, 1, 1, True, True, ("order-two-census",))
    value = (n - 1) // 2
    return BoundsEntry("plain", n, None, None, value, value, True, True,
                       ("half-range-cap", "max-distance-shift-fill"))


def pandiagonal_bounds(n: int) -> BoundsEntry:
    """Existence and exact maximum for pandiagonal Latin squares of order n."""
    n = _order(n)
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    if n % 6 not in (1, 5):
        return BoundsEntry("pandiagonal", n, None, None, 0, 0, False, False,
                           ("divisibility-existence",))
    value = (n - 3) // 2
    return BoundsEntry("pandiagonal", n, None, None, value, value, True, True,
                       ("diagonal-increment-cap", "pandiagonal-shift-fill"))


def sudoku_bounds(a: int, b: int) -> BoundsEntry:
    """Best proven bounds for (a, b)-Sudoku Latin squares.

    Shapes are normalized to a <= b (transposing swaps the shape and
    preserves all distances), so (a, b) and (b, a) return the same entry.
    For a >= 2 the lower bound is the distance `sudoku_square` reaches.
    """
    shape = SudokuShape(a, b)
    a, b = min(shape.a, shape.b), max(shape.a, shape.b)
    n = a * b
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    if a == 1:
        base = plain_bounds(b)
        return BoundsEntry("sudoku", n, a, b, base.lower, base.upper, True, True,
                           ("single-row-blocks",) + base.provenance)
    lower_prov, params = _sudoku_plan(a, b)
    lower = (n - a) // 2 if params is None else predicted_inner_distance(params)
    if a == 2:
        # two-row blocks cap the distance at b - 1, and the plan's fill reaches it
        return BoundsEntry("sudoku", n, a, b, lower, b - 1, lower == b - 1, True, (lower_prov,))

    if a % 2 and b % 2 and a >= 5:
        upper, upper_prov = (n - 5) // 2, "odd-blocks-interior-cap"
    else:
        upper, upper_prov = (n - 3) // 2, "block-interior-cap"

    return BoundsEntry("sudoku", n, a, b, lower, upper, lower == upper, True,
                       (lower_prov, upper_prov))


def known_bounds(kind: str, *, n: int | None = None,
                 a: int | None = None, b: int | None = None) -> BoundsEntry:
    """Dispatch to the bounds table by class kind: plain, pandiagonal, or sudoku."""
    if kind == "plain":
        if n is None:
            raise ParameterError("plain bounds need an order n")
        return plain_bounds(n)
    if kind == "pandiagonal":
        if n is None:
            raise ParameterError("pandiagonal bounds need an order n")
        return pandiagonal_bounds(n)
    if kind == "sudoku":
        if a is None or b is None:
            raise ParameterError("sudoku bounds need a block shape (a, b)")
        return sudoku_bounds(a, b)
    raise ParameterError(f"unknown kind {kind!r}")
