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
from .grid import SquareGrid, validate_latin
from .modmath import mod1n

__all__ = [
    "GridPermutation",
    "apply_permutation",
    "is_back_circulant",
    "is_circulant",
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
        for name, perm in (("rows", self.rows), ("cols", self.cols), ("symbols", self.symbols)):
            if sorted(perm) != list(range(1, n + 1)):
                raise ParameterError(f"{name} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "GridPermutation":
        ident = tuple(range(1, n + 1))
        return cls(rows=ident, cols=ident, symbols=ident)

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
    out = np.empty_like(grid.cells)
    rows = np.asarray(perm.rows) - 1
    cols = np.asarray(perm.cols) - 1
    symbols = np.asarray(perm.symbols)
    relabeled = symbols[grid.cells - 1]
    out[np.ix_(rows, cols)] = relabeled
    return SquareGrid(out)


def transpose(grid: SquareGrid) -> SquareGrid:
    """Mirror across the main diagonal; all adjacent distances are preserved."""
    return SquareGrid(grid.cells.T)


def is_circulant(grid: SquareGrid) -> bool:
    """Each row is the one above shifted right by one (with wraparound)."""
    return bool(np.array_equal(grid.cells, np.roll(grid.cells, (1, 1), axis=(0, 1))))


def is_back_circulant(grid: SquareGrid) -> bool:
    """Each row is the one above shifted left by one (with wraparound)."""
    return bool(np.array_equal(grid.cells, np.roll(grid.cells, (1, -1), axis=(0, 1))))


def _circulant_reference(n: int) -> SquareGrid:
    j = np.arange(n)
    cells = (j[None, :] - j[:, None]) % n + 1
    return SquareGrid(cells)


def to_circulant_canonical(grid: SquareGrid) -> tuple[SquareGrid, GridPermutation]:
    """Reduce a shift-structured square to the circulant with first row 1..n.

    The reduction shifts symbols so the corner becomes 1, sorts columns by
    the first row, and then checks the property it depends on: every row
    must now step by +1 cyclically.  Squares produced by the shift fills
    always pass; for anything else a NotReducibleError is raised, which
    says nothing about isotopy, only that this method does not apply.

    Returns the canonical grid together with the permutation triple that
    maps the input onto it.
    """
    n = grid.n
    if not validate_latin(grid).verdict:
        raise NotReducibleError("input is not a Latin square")

    # symbol shift: corner to 1 (a shift keeps all adjacent differences)
    shift = 1 - grid.at(1, 1)
    symbols = tuple(mod1n(v + shift, n) for v in range(1, n + 1))
    shifted = (grid.cells + shift - 1) % n + 1

    # sort columns by the (shifted) first row: column j lands at position m[0][j]
    cols = tuple(int(v) for v in shifted[0])
    sorted_cells = np.empty_like(shifted)
    sorted_cells[:, np.asarray(cols) - 1] = shifted

    steps = (sorted_cells[:, 1:] - sorted_cells[:, :-1]) % n
    if not np.all(steps == 1):
        raise NotReducibleError(
            "rows do not advance cyclically by a constant step after column sorting; "
            "the constructive reduction does not apply (this does not prove non-isotopy)")

    # place the row starting with s at position (2 - s) mod n
    starts = sorted_cells[:, 0]
    rows = tuple(mod1n(2 - int(s), n) for s in starts)
    canon_cells = np.empty_like(sorted_cells)
    canon_cells[np.asarray(rows) - 1] = sorted_cells

    canonical = SquareGrid(canon_cells)
    perm = GridPermutation(rows=rows, cols=cols, symbols=symbols)
    if canonical != _circulant_reference(n) or apply_permutation(grid, perm) != canonical:
        raise NotReducibleError("reduction did not reach the circulant reference square")
    return canonical, perm
