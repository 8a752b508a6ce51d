"""Constructors for Latin squares with prescribed inner distance.

Every square built here is a sum square: cell (i, j) is y_i + x_j + 1
(mod n) for row terms y and column terms x.  Each constructor only chooses
the two vectors and hands them to `_require`, which adds them and checks
the square once, against all units of its own class (a failed check is an
internal bug, not a caller error).  The inner distance is the least cyclic
step between consecutive terms (`_least_step`).

The workhorse is `algorithm1`, a doubly-periodic fill
    m[i][j] = 1 + (i-1)r + (j-1)c + alpha*floor((i-1)/R) + beta*floor((j-1)/C)  (mod n)
whose vertical/horizontal increments r, c set the distance classes and
whose offsets alpha, beta repair collisions whenever r or c shares a
factor with n.  `algorithm2` is the one other fill: its row terms add an
offset that depends on the row's band, and so reach the maximum distance
on (even, even) block shapes.  For block shapes the terms are chosen once,
in `_sudoku_plan`: `sudoku_square` builds their square, and `known_bounds`
takes its Sudoku lower bound from their least step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import NonexistenceError, ParameterError
from .grid import (SquareGrid, SudokuShape, _cyclic_distance, _narrow, _order, _square_class,
                   _validate)

__all__ = [
    "BoundsEntry",
    "ShiftParams",
    "algorithm1",
    "algorithm2",
    "known_bounds",
    "max_distance_square",
    "pandiagonal_max",
    "shift_by_k",
    "sudoku_square",
]


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
        object.__setattr__(self, "alpha", (self.alpha - 1) % self.n + 1)
        object.__setattr__(self, "beta", (self.beta - 1) % self.n + 1)

    @property
    def R(self) -> int:
        return self.n // gcd(self.n, self.r)

    @property
    def C(self) -> int:
        return self.n // gcd(self.n, self.c)


def _add_mod(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The n x n cells (rows[i] + cols[j]) mod n + 1, for rows and cols reduced mod n.

    The vectors are added once, in the narrowest signed dtype that holds
    their sums (at most 2n - 1), and n is taken off each sum above n.
    """
    dtype = _narrow(2 * n - 1)
    vals = np.add.outer(rows.astype(dtype), (cols + 1).astype(dtype))
    vals -= (vals > n) * dtype(n)
    return vals


def _require(rows: np.ndarray, cols: np.ndarray, shape: SudokuShape | None = None,
             pandiagonal: bool = False) -> SquareGrid:
    """The sum square of the terms, checked in one pass over every unit of its class."""
    grid = SquareGrid(_add_mod(rows, cols, len(rows)))
    if not _validate(grid, shape, pandiagonal).verdict:
        raise RuntimeError("constructor repeated a symbol in a unit of its class (internal bug)")
    return grid


def _least_step(rows: np.ndarray, cols: np.ndarray) -> int:
    """The inner distance of the sum square of the terms, without building it.

    Vertical neighbours differ by consecutive row terms and horizontal ones
    by consecutive column terms, so it is the least cyclic step in either.
    """
    return int(_cyclic_distance(np.diff((rows, cols)), len(rows)).min())


def _shift_terms(params: ShiftParams) -> tuple[np.ndarray, np.ndarray]:
    """The row and column terms of `algorithm1(params)`, reduced mod n.

    They are i*r + alpha*floor(i/R) and j*c + beta*floor(j/C), 0-based.
    """
    n = params.n
    k = np.arange(n)
    return ((k * params.r + params.alpha * (k // params.R)) % n,
            (k * params.c + params.beta * (k // params.C)) % n)


def algorithm1(params: ShiftParams) -> SquareGrid:
    """Fill an n x n grid with the doubly-periodic shift pattern.

    The output is always Latin: within a period the increment walks a
    fixed coset, and the offsets are coprime to the increments, so no row
    or column can repeat a symbol.
    """
    return _require(*_shift_terms(params))


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
    order have distance 1.  Both increments are that maximum.  Where they
    share the factor 2 with n (n = 2 mod 4), the unit offset at the
    half-grid seam makes the crossing difference n/2; otherwise the periods
    span the grid and the offsets are never applied.
    """
    n = _order(n)
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    h = max(1, (n - 1) // 2)
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
    params = ShiftParams(n, r=-(n - 3) // 2, c=(n - 1) // 2, alpha=n, beta=n)
    return _require(*_shift_terms(params), pandiagonal=True)


def algorithm2(x: int, y: int) -> SquareGrid:
    """A (2x, 2y)-Sudoku Latin square with inner distance 2xy - x = (n-a)/2.

    The paper's choice of shift-fill parameters cannot reach (n-a)/2
    here: its horizontal increment shares only a/2 with n, so its offsets
    fire every two stacks instead of every stack, and the vertical
    direction needs an extra offset on entering each row to keep blocks
    collision-free.  With the rows cut into bands of a = 2x, numbered
    from 0, exactly one of four cases applies to every row k >= 1:
      0   for the first row and all even rows,
      -x  for the first row of every later band,
      +1  for the remaining odd rows in even bands,
      -1  for the remaining odd rows in odd bands.
    """
    x, y = _order(x, "a half-height"), _order(y, "a half-width")
    if x < 2:
        raise ParameterError(f"half-height must be at least 2, got {x} (height 2 has its own rule)")
    if y < x:
        raise ParameterError(f"needs x <= y, got ({x}, {y}); build ({y}, {x}) and transpose")
    return _require(*_offset_terms(x, y), SudokuShape(2 * x, 2 * y))


def _offset_terms(x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and column terms of `algorithm2(x, y)`, reduced mod n = 4xy.

    With (t, p) = divmod(i, 2x), the band of 0-based row i and its place in
    it, the row term is i*2xy plus the offsets summed down to row i,
    -x*t + (x-1)*(t mod 2) + (-1)**t * floor(p/2); the column term is
    j*(2xy - x) + floor(j/4y).
    """
    n = 4 * x * y
    k = np.arange(n)
    t, p = np.divmod(k, 2 * x)
    odd = t % 2
    offsets = -x * t + (x - 1) * odd + (1 - 2 * odd) * (p // 2)
    return (k * (2 * x * y) + offsets) % n, (k * (2 * x * y - x) + k // (4 * y)) % n


# block shapes ----------------------------------------------------------------


def _sudoku_plan(a: int, b: int) -> tuple[str, np.ndarray, np.ndarray]:
    """The fill that builds the (a, b)-Sudoku square, for sides a, b >= 2.

    Returns the fill's provenance name and its row and column terms, whose
    `_least_step` is the inner distance the square reaches.  Tall blocks
    (a > b) take the (b, a) plan with its terms swapped: the transpose of
    y_i + x_j is x_i + y_j, and it turns (b, a) blocks into (a, b) blocks.
    """
    if a > b:
        provenance, rows, cols = _sudoku_plan(b, a)
        return provenance, cols, rows
    n = a * b
    if a == 2:
        # inner distance b - 1, the maximum
        return ("two-row-block-formula",
                *_shift_terms(ShiftParams(n, r=b, c=b - 1, alpha=1, beta=1 if b % 2 else n)))
    if b % 2:
        # (n-a)/2: the horizontal increment (n-a)/2 shares exactly the factor
        # a with n, so the stack offset fires every b columns, right on the
        # block seams
        if a == b:
            # square blocks: the mirrored parameter set (both increments
            # negated, axes swapped) realizes the same distances; R == a
            # keeps the vertical offsets on the block seams
            params = ShiftParams(n, r=-(n - a) // 2, c=-(n - 1) // 2, alpha=-1, beta=n)
        else:
            # the vertical increment is the largest value under n/2 coprime
            # to n, at most two steps below (n-1)//2
            r = next(r for r in range((n - 1) // 2, 0, -1) if gcd(r, n) == 1)
            params = ShiftParams(n, r=r, c=(n - a) // 2, alpha=n, beta=1)
        return "odd-width-shift-fill", *_shift_terms(params)
    if a % 2 == 0:
        # the paper's shift-fill parameters cannot reach (n-a)/2 on (even,
        # even) blocks; see `algorithm2`
        return "even-even-row-offset-fill", *_offset_terms(a // 2, b // 2)
    # odd a, even b: (n - min(ka, b))/2 with k = 2 when b = 0 mod 4 and k = 4
    # when b = 2 mod 4; whichever of the two increments is smaller rides on
    # the block seams, so the parameter roles swap when b is small
    # relative to ka
    k = 2 if b % 4 == 0 else 4
    if b >= k * a:
        params = ShiftParams(n, r=(n - k) // 2, c=(n - k * a) // 2, alpha=n, beta=1)
    else:
        params = ShiftParams(n, r=(n - b) // 2, c=(n - k) // 2, alpha=1, beta=n)
    return ("width-div4-shift-fill" if k == 2 else "width-2mod4-shift-fill",
            *_shift_terms(params))


def sudoku_square(a: int, b: int) -> SquareGrid:
    """Best known (a, b)-Sudoku construction for any shape.

    Blocks one row or one column wide are the rows or columns of a plain
    square, so they take `max_distance_square`, whose row and column terms
    are equal and which is therefore its own transpose.  Every other shape
    takes the terms `_sudoku_plan` picks, in either orientation.
    """
    shape = SudokuShape(a, b)
    if min(shape.a, shape.b) == 1:
        return max_distance_square(shape.n) if shape.n >= 2 else SquareGrid([[1]])
    _, rows, cols = _sudoku_plan(shape.a, shape.b)
    return _require(rows, cols, shape)


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


def known_bounds(kind: str, *, n: int | None = None,
                 a: int | None = None, b: int | None = None) -> BoundsEntry:
    """Best proven bounds on the maximum inner distance of one square class.

    kind is plain or pandiagonal with an order n, or sudoku with a block
    shape (a, b) and, optionally, the order a*b it makes, by the class rule
    of `grid._square_class`, which refuses an argument the kind does not
    use rather than dropping it.  Shapes are normalized to
    a <= b (transposing swaps the shape and preserves all distances), so
    (a, b) and (b, a) return the same entry.  Blocks one row high follow the
    plain rule; for a >= 2 the lower bound is the distance `sudoku_square`
    reaches.
    """
    n, shape = _square_class(kind, n, a, b)
    if shape is not None:
        a, b = sorted((shape.a, shape.b))
    if kind == "pandiagonal":
        if n % 6 not in (1, 5):
            return BoundsEntry(kind, n, None, None, 0, 0, False, False, ("divisibility-existence",))
        value = (n - 3) // 2
        return BoundsEntry(kind, n, None, None, value, value, True, True,
                           ("diagonal-increment-cap", "pandiagonal-shift-fill"))
    if kind == "plain" or a == 1:
        prefix = ("single-row-blocks",) if a == 1 else ()
        if n == 2:
            return BoundsEntry(kind, n, a, b, 1, 1, True, True, prefix + ("order-two-census",))
        value = (n - 1) // 2
        return BoundsEntry(kind, n, a, b, value, value, True, True,
                           prefix + ("half-range-cap", "max-distance-shift-fill"))

    lower_prov, rows, cols = _sudoku_plan(a, b)
    lower = _least_step(rows, cols)
    if a == 2:
        # two-row blocks cap the distance at b - 1, and the plan's fill reaches it
        return BoundsEntry(kind, n, a, b, lower, b - 1, lower == b - 1, True, (lower_prov,))
    if a % 2 and b % 2 and a >= 5:
        upper, upper_prov = (n - 5) // 2, "odd-blocks-interior-cap"
    else:
        upper, upper_prov = (n - 3) // 2, "block-interior-cap"
    return BoundsEntry(kind, n, a, b, lower, upper, lower == upper, True, (lower_prov, upper_prov))
