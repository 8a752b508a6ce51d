"""Grid symmetries and the constructive reduction to circulant form.

Two squares are isotopic when one maps to the other under some
combination of row, column, and symbol permutations.  Deciding isotopy in
general is hard; this module only implements the constructive reduction
that works for shift-structured squares (every fill produced by
`construct.algorithm1`, including all shift-by-k squares), and fails
cleanly on anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotReducibleError, ParameterError
from .grid import SquareGrid, _order, validate_latin

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


def is_circulant(grid: SquareGrid) -> bool:
    """Each row is the one above shifted right by one (with wraparound)."""
    return bool(np.array_equal(grid.cells, np.roll(grid.cells, (1, 1), axis=(0, 1))))


def to_circulant_canonical(grid: SquareGrid) -> tuple[SquareGrid, GridPermutation]:
    """Reduce a shift-structured square to the circulant with first row 1..n.

    The permutation triple is read off row 0 and one column: symbols shift
    the corner to 1, each column moves to its shifted row-0 symbol, and the
    row holding s where that symbol is 1 moves to row (2 - s) mod n.  One
    `apply_permutation` then puts 1..n in row 0 of a Latin input, and
    `is_circulant` holds exactly when every row steps by +1 cyclically
    after the column move.  Squares produced by the shift fills always do;
    for anything else a NotReducibleError is raised, which says nothing
    about isotopy, only that this method does not apply.

    Returns the canonical grid together with the permutation triple that
    maps the input onto it.
    """
    n = grid.n
    if not validate_latin(grid).verdict:
        raise NotReducibleError("input is not a Latin square")
    symbols = (np.arange(1, n + 1) - grid.cells[0, 0]) % n + 1
    cols = symbols[grid.cells[0] - 1]
    rows = (1 - symbols[grid.cells[:, np.argmin(cols)] - 1]) % n + 1
    perm = GridPermutation(rows=tuple(rows.tolist()), cols=tuple(cols.tolist()),
                           symbols=tuple(symbols.tolist()))
    canonical = apply_permutation(grid, perm)
    if not is_circulant(canonical):
        raise NotReducibleError(
            "rows do not advance cyclically by a constant step after column sorting; "
            "the constructive reduction does not apply (this does not prove non-isotopy)")
    return canonical, perm
