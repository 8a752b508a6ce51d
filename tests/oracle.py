"""Brute-force reference implementations, independent of the library.

Everything here works on plain tuples of row tuples and recomputes each
property from its definition, so these functions can arbitrate the
package's validators, metric, and search engine without sharing code
paths with them.
"""

from functools import lru_cache
from itertools import pairwise, permutations
from operator import eq


def all_latin_squares(n: int):
    """Yield every Latin square of order n as a tuple of row tuples."""
    candidate_rows = list(permutations(range(1, n + 1)))

    def extend(stack):
        if len(stack) == n:
            yield tuple(stack)
            return
        for row in candidate_rows:
            if all(row[j] != prev[j] for prev in stack for j in range(n)):
                stack.append(row)
                yield from extend(stack)
                stack.pop()

    yield from extend([])


def row_tuples(grid):
    """A library grid as the tuple of row tuples the functions here take."""
    return tuple(map(tuple, grid.cells.tolist()))


def min_adjacent_distance(rows) -> int:
    n = len(rows)
    best = n
    for i in range(n):
        for j in range(n):
            for di, dj in ((0, 1), (1, 0)):
                ii, jj = i + di, j + dj
                if ii < n and jj < n:
                    u, v = rows[i][j], rows[ii][jj]
                    best = min(best, min((u - v) % n, (v - u) % n))
    return best


def is_latin(rows) -> bool:
    n = len(rows)
    full = set(range(1, n + 1))
    return (all(set(r) == full for r in rows)
            and all({rows[i][j] for i in range(n)} == full for j in range(n)))


def is_pandiagonal(rows) -> bool:
    n = len(rows)
    full = set(range(1, n + 1))
    if not is_latin(rows):
        return False
    for d in range(n):
        if {rows[i][(i - d) % n] for i in range(n)} != full:
            return False
        if {rows[i][(d - i) % n] for i in range(n)} != full:
            return False
    return True


def is_sudoku(rows, a: int, b: int) -> bool:
    n = len(rows)
    full = set(range(1, n + 1))
    if a * b != n or not is_latin(rows):
        return False
    for band in range(n // a):
        for stack in range(n // b):
            block = {rows[band * a + i][stack * b + j] for i in range(a) for j in range(b)}
            if block != full:
                return False
    return True


def count_by_filter(n: int, d: int, constraint: str = "plain", shape=None) -> int:
    """Count squares with inner distance >= d by filtering the full list."""
    count = 0
    for rows in all_latin_squares(n):
        if constraint == "pandiagonal" and not is_pandiagonal(rows):
            continue
        if constraint == "sudoku" and not is_sudoku(rows, shape[0], shape[1]):
            continue
        if min_adjacent_distance(rows) >= d:
            count += 1
    return count


def band_column_order(a: int, b: int):
    """The (row, column) cells of an (a, b)-Sudoku square, band by band
    (a rows each), and within a band column by column."""
    n = a * b
    return [(band + i, c) for band in range(0, n, a) for c in range(n) for i in range(a)]


def _negation(u: int, n: int) -> int:
    return (1 - u) % n + 1


def _prefix_count(n: int, d: int, order, units_of, transposition: bool):
    """Count the partial squares a walk over `order`, a list of (row, column) cells, places.

    A prefix of order is kept if its filled cells share no symbol within any
    unit units_of(r, c) names, every two filled side neighbours lie at cyclic
    distance >= d, the corner holds 1, and the filled part of row 0 is not
    lexicographically greater than its negation u -> 2 - u (mod n).  With
    transposition, take the pairs i >= 1 whose cells (0, i) and (i, 0) are
    both filled, 1..m; with R and C the row-0 and column-0 symbols of those
    pairs, c* the smaller of C and its negation, the prefix is also kept
    only if R <= c*.  A whole square whose row 0 is below c* stands for its
    transposed partner too, so it counts twice.

    Returns (prefixes, squares): how many non-empty prefixes are kept, and
    how many squares with symbol 1 in the corner and row 0 no greater than
    its negation the complete ones stand for.
    """
    grid = {}
    units = {}

    def row0_leads(row):
        for u in row:
            if u != _negation(u, n):
                return u < _negation(u, n)
        return True

    def lex_pairs():
        m = 1
        while (0, m) in grid and (m, 0) in grid:
            m += 1
        row = tuple(grid[0, i] for i in range(1, m))
        col = tuple(grid[i, 0] for i in range(1, m))
        return row, min(col, tuple(_negation(u, n) for u in col))

    def fits(r, c, s):
        if (r, c) == (0, 0) and s != 1:
            return False
        if any(s in units.get(unit, ()) for unit in units_of(r, c)):
            return False
        for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if cell in grid and min((s - grid[cell]) % n, (grid[cell] - s) % n) < d:
                return False
        grid[r, c] = s
        row = [grid[0, j] for j in range(n) if (0, j) in grid]
        keep = row0_leads(row)
        if transposition:
            row, star = lex_pairs()
            keep = keep and row <= star
        del grid[r, c]
        return keep

    def extend(k):
        if k == len(order):
            row, star = lex_pairs()
            return 0, 2 if transposition and row != star else 1
        r, c = order[k]
        prefixes = squares = 0
        for s in range(1, n + 1):
            if not fits(r, c, s):
                continue
            grid[r, c] = s
            for unit in units_of(r, c):
                units.setdefault(unit, set()).add(s)
            below, full = extend(k + 1)
            prefixes += 1 + below
            squares += full
            for unit in units_of(r, c):
                units[unit].discard(s)
            del grid[r, c]
        return prefixes, squares

    return extend(0)


def row_major_prefix_count(n: int, d: int, constraint: str = "plain"):
    """The count and enumerate walk of plain or pandiagonal squares of order n,
    row by row, with the transposition rule; see _prefix_count."""

    def units_of(r, c):
        units = [("row", r), ("col", c)]
        if constraint == "pandiagonal":
            units += [("forward", (r - c) % n), ("back", (r + c) % n)]
        return units

    return _prefix_count(n, d, [divmod(k, n) for k in range(n * n)], units_of, True)


def sudoku_prefix_count(a: int, b: int, d: int):
    """The count and enumerate walk of (a, b)-Sudoku squares in band-column
    order; square blocks (a = b) also take the transposition rule.  See
    _prefix_count."""

    def units_of(r, c):
        return [("row", r), ("col", c), ("block", r // a, c // b)]

    return _prefix_count(a * b, d, band_column_order(a, b), units_of, a == b)


def _near(n: int, d: int):
    """The pairs of symbols of 1..n at cyclic distance below d."""
    return {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
            if min((u - v) % n, (v - u) % n) < d}


@lru_cache(maxsize=None)
def admissible_rows(n: int, d: int):
    """The permutations of 1..n whose side neighbours lie at cyclic distance >= d,
    in the lexicographic order itertools.permutations lists them."""
    near = _near(n, d)
    return tuple(row for row in permutations(range(1, n + 1)) if near.isdisjoint(pairwise(row)))


def row_prefixes(n: int, d: int, shape=None, rows=None):
    """The partial squares the count and enumerate row walk places, in its order.

    The walk stacks admissible_rows(n, d), or the given rows, a sorted part
    of them, top to bottom, trying them in their order.  A stack is kept if
    no column holds a symbol twice, every two vertically adjacent symbols
    lie at distance >= d, no (a, b) block of a Sudoku shape holds a symbol
    twice, row 0 starts with 1 and is not lexicographically greater than
    its negation u -> 2 - u (mod n), and, for plain and (a, a)-Sudoku
    squares, with R and C the symbols of row 0 and of column 0 in positions
    1..i-1 of a stack of i rows, R <= C and R <= -C.  Yields each kept
    stack as a tuple of row tuples.
    """
    a, b = shape if shape else (1, n)
    transposable = shape is None or a == b
    rows = admissible_rows(n, d) if rows is None else rows
    near = _near(n, d)

    def fits(stack, row):
        i = len(stack)
        if i == 0:
            return row[0] == 1 and row <= tuple(_negation(u, n) for u in row)
        if not near.isdisjoint(zip(stack[-1], row)):
            return False
        if any(any(map(eq, row, prev)) for prev in stack):
            return False
        band = stack[i - i % a:]
        for c in range(0, n, b):
            if set(row[c:c + b]) & {u for prev in band for u in prev[c:c + b]}:
                return False
        if transposable:
            r = stack[0][1:i + 1]
            c = tuple(prev[0] for prev in stack[1:]) + (row[0],)
            return r <= c and r <= tuple(_negation(u, n) for u in c)
        return True

    def extend(stack):
        for row in rows:
            if fits(stack, row):
                stack.append(row)
                yield tuple(stack)
                if len(stack) < n:
                    yield from extend(stack)
                stack.pop()

    yield from extend([])


def row_prefix_count(n: int, d: int, shape=None, rows=None):
    """(prefixes, squares) of the row walk; see row_prefixes.

    prefixes is the number of stacks it places; squares the number of
    squares with symbol 1 in the corner and row 0 no greater than its
    negation that its complete stacks stand for: a plain or (a, a)-Sudoku
    square whose row 0 differs from column 0 and from its negation stands
    for its transposed partner too, and counts twice.
    """
    a, b = shape if shape else (1, n)
    prefixes = squares = 0
    for stack in row_prefixes(n, d, shape, rows):
        prefixes += 1
        if len(stack) == n:
            r = stack[0]
            c = tuple(row[0] for row in stack)
            twin = (shape is None or a == b) and r != c and r != tuple(_negation(u, n) for u in c)
            squares += 2 if twin else 1
    return prefixes, squares


def first_bands(n: int, d: int, a: int = 1, b: int | None = None):
    """The first bands an exists walk of order n completes, in the order it meets them.

    A band is the first a rows of an (a, b)-Sudoku square, or row 0 of a
    plain or pandiagonal one (a = 1, b = n).  Its cells are filled column
    by column, each column top to bottom, and each cell tries the symbols
    cyclically upwards from its prev neighbour's: the left one, the upper
    one in column 0, and 0 at the corner, so 1 first.  A filled cell shares
    no symbol with its row, column or block and lies at cyclic distance >= d
    from its left and upper neighbours, the corner holds 1, and the filled
    part of row 0 is not lexicographically greater than its negation.
    Yields each band as a tuple of a row tuples.
    """
    b = b or n
    order = band_column_order(a, b)[:a * n]
    near = _near(n, d)
    grid = {}
    units = {}

    def extend(k):
        if k == len(order):
            yield tuple(tuple(grid[r, c] for c in range(n)) for r in range(a))
            return
        r, c = order[k]
        left, up = grid.get((r, c - 1)), grid.get((r - 1, c))
        start = left if c else up or 0
        cell_units = (("row", r), ("col", c), ("block", c // b))
        taken = set().union(*(units.get(unit, ()) for unit in cell_units))
        for i in range(n):
            s = (start + i) % n + 1
            if s in taken or (left, s) in near or (up, s) in near or (k == 0 and s != 1):
                continue
            if r == 0:
                row = tuple(grid[0, j] for j in range(c)) + (s,)
                if row > tuple(_negation(u, n) for u in row):
                    continue
            grid[r, c] = s
            for unit in cell_units:
                units.setdefault(unit, set()).add(s)
            yield from extend(k + 1)
            for unit in cell_units:
                units[unit].discard(s)
            del grid[r, c]

    yield from extend(0)


def mirror_images(band, n: int):
    """The band with its columns reversed, under both maps u -> +-(u - x) + 1 that put
    symbol 1 in the corner (x the symbol the reversal brings there)."""
    x = band[0][-1]
    return {tuple(tuple((sign * (u - x)) % n + 1 for u in row[::-1]) for row in band)
            for sign in (1, -1)}


def mirror_cuts(bands, n: int):
    """For each band of a list in walk order, whether one of its mirror images came
    before it: the mirror rule as a memo of the bands seen so far."""
    seen = set()
    cuts = []
    for band in bands:
        cuts.append(not seen.isdisjoint(mirror_images(band, n)))
        seen.add(band)
    return cuts
