"""Grid symmetries and the constructive reduction to circulant form.

Two squares are isotopic when one maps to the other under some
combination of row, column, and symbol permutations.  Deciding isotopy in
general is hard; this module only implements the constructive reduction
of Latin sum squares, whose cell (i, j) is y_i + x_j (mod n) (every
square the `construct` module builds, all shift-by-k squares included),
and fails cleanly on anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotReducibleError, ParameterError
from .grid import SquareGrid, _order

__all__ = [
    "GridPermutation",
    "apply_permutation",
    "to_circulant_canonical",
    "transpose",
]


@dataclass(frozen=True)
class GridPermutation:
    """A triple of bijections on {1..n}: rows, columns, and symbols.

    Entry k-1 of each tuple is the image of k.  Applying the triple moves
    the symbol in cell (i, j) to cell (rows[i-1], cols[j-1]) and relabels
    it to symbols[m - 1].
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    symbols: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        if len(self.cols) != n or len(self.symbols) != n:
            raise ParameterError("row, column, and symbol permutations must have equal length")
        for name in ("rows", "cols", "symbols"):
            # numpy entries become Python ints; a float, a bool or a string is no index
            what = f"an entry of {name}"
            perm = tuple(_order(k, what) for k in getattr(self, name))
            if sorted(perm) != list(range(1, n + 1)):
                raise ParameterError(f"{name} is not a permutation of 1..{n}")
            object.__setattr__(self, name, perm)

    @property
    def n(self) -> int:
        return len(self.rows)

    def as_json_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols), "symbols": list(self.symbols)}


def apply_permutation(grid: SquareGrid, perm: GridPermutation) -> SquareGrid:
    """Apply a row/column/symbol permutation triple; Latin-ness is preserved.

    Adjacent distances are generally not preserved (moving rows breaks
    adjacency), and transposition is not expressible as any triple: it
    exchanges the row and column roles rather than permuting within them.
    """
    n = grid.n
    if perm.n != n:
        raise ParameterError(f"permutation size {perm.n} does not match grid order {n}")
    # output cell (i, j) is the relabelled input cell (rows preimage of i, cols preimage of j)
    rows = np.empty(n, dtype=np.intp)
    rows[np.asarray(perm.rows) - 1] = np.arange(n)
    cols = np.empty(n, dtype=np.intp)
    cols[np.asarray(perm.cols) - 1] = np.arange(n)
    # symbols[m] is the image of symbol m; entry 0 is never read
    symbols = np.asarray((0, *perm.symbols))
    return SquareGrid(symbols.take(grid.cells.take(rows, axis=0).take(cols, axis=1)))


def transpose(grid: SquareGrid) -> SquareGrid:
    """Mirror across the main diagonal; all adjacent distances are preserved."""
    return SquareGrid(grid.cells.T)


def to_circulant_canonical(grid: SquareGrid) -> tuple[SquareGrid, GridPermutation]:
    """Reduce a Latin sum square to the circulant with first row 1..n.

    A grid is a Latin sum square iff row 0 and column 0 are permutations
    and every cell satisfies c[i][j] - c[i][0] - c[0][j] + c[0][0] = 0
    (mod n): every row is row 0 plus a constant.  The permutation triple is
    read off those two lines: symbols shift the corner to 1, each column
    moves to its shifted row-0 symbol, and the row whose column-0 symbol
    shifts to s moves to row (2 - s) mod n; the identity is exactly what
    makes every row of the image step by +1 cyclically.  Any other grid
    raises NotReducibleError, which says nothing about isotopy, only that
    this method does not apply.

    Returns the canonical grid together with the permutation triple that
    maps the input onto it.
    """
    n, cells = grid.n, grid.cells
    x, y = cells[0], cells[:, 0]
    full = np.arange(1, n + 1)
    latin = np.array_equal(np.sort(x), full) and np.array_equal(np.sort(y), full)
    if not latin or ((cells - y[:, None] - x + x[0]) % n).any():
        raise NotReducibleError(
            "not a Latin sum square, whose every row is row 0 plus a constant; the "
            "constructive reduction does not apply (this does not prove non-isotopy)")
    symbols = (full - x[0]) % n + 1
    perm = GridPermutation(rows=tuple(((x[0] - y) % n + 1).tolist()),
                           cols=tuple(symbols[x - 1].tolist()), symbols=tuple(symbols.tolist()))
    return apply_permutation(grid, perm), perm
