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


def sudoku_prefix_count(a: int, b: int, d: int):
    """Count the partial (a, b)-Sudoku squares a walk in band-column order places.

    A prefix of band_column_order is kept if its filled cells share no
    symbol within a row, a column or a block, every two filled side
    neighbours lie at cyclic distance >= d, the corner holds 1, and the
    filled part of row 0 is not lexicographically greater than its
    negation u -> 2 - u (mod n).  Returns (prefixes, squares): how many
    non-empty prefixes are kept, and how many of them fill the square.
    """
    n = a * b
    order = band_column_order(a, b)
    grid = {}
    units = {}

    def negation(u):
        return (1 - u) % n + 1

    def row0_leads(row):
        for u in row:
            if u != negation(u):
                return u < negation(u)
        return True

    def fits(r, c, s):
        if (r, c) == (0, 0) and s != 1:
            return False
        if any(s in units.get(unit, ()) for unit in (("row", r), ("col", c),
                                                      ("block", r // a, c // b))):
            return False
        for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if cell in grid and min((s - grid[cell]) % n, (grid[cell] - s) % n) < d:
                return False
        row = [grid[0, j] for j in range(c)] + [s] if r == 0 else []
        return row0_leads(row)

    def extend(k):
        if k == len(order):
            return 0, 1
        r, c = order[k]
        prefixes = squares = 0
        for s in range(1, n + 1):
            if not fits(r, c, s):
                continue
            grid[r, c] = s
            cell_units = (("row", r), ("col", c), ("block", r // a, c // b))
            for unit in cell_units:
                units.setdefault(unit, set()).add(s)
            below, full = extend(k + 1)
            prefixes += 1 + below
            squares += full
            for unit in cell_units:
                units[unit].discard(s)
            del grid[r, c]
        return prefixes, squares

    return extend(0)
