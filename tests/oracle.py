"""Brute-force reference implementations, independent of the library.

Everything here works on plain tuples of row tuples and recomputes each
property from its definition, so these functions can arbitrate the
package's validators, metric, and search engine without sharing code
paths with them.
"""

from itertools import permutations


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
