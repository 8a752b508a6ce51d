"""Grid representation, the Latin units of each square class, and the three validators.

A plain Latin square has every symbol once in each row and each column; a
pandiagonal (Knut-Vik) square also in each wrapped diagonal, and a Sudoku
square also in each a x b block.  `_unit_labels` numbers these units once,
for the validators here and for the search walk's occupancy masks, and
`_cyclic_distance` computes the adjacent distance of two symbols for the
metric, the constructions and the search.

Cells are addressed 1-based: (i, j) is row i from the top, column j from
the left, matching the usual combinatorial convention.  A grid of order n
holds symbols from {1, ..., n} only; partial grids are not representable.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import GridFormatError, ParameterError

__all__ = [
    "BlockAddress",
    "SquareGrid",
    "SudokuShape",
    "ValidationReport",
    "Violation",
    "format_grid_text",
    "grid_to_json",
    "parse_grid_json",
    "parse_grid_text",
    "validate_latin",
    "validate_pandiagonal",
    "validate_sudoku",
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


def _cyclic_distance(diff, n: int):
    """min(diff mod n, -diff mod n), the distance of symbols u, v with u - v = diff.

    diff is an int, which gives a numpy int, or an integer array, with
    every |diff| <= n: abs is much cheaper than a remainder on arrays.
    """
    dist = abs(diff)
    return np.minimum(dist, n - dist)


def _check_symbols(given: np.ndarray, n: int) -> None:
    """Raise GridFormatError unless every entry of given lies in [1, n]."""
    if given.min() < 1 or given.max() > n:
        raise GridFormatError(f"symbols must lie in [1, {n}]")


@dataclass(frozen=True, eq=False)
class SquareGrid:
    """Immutable n x n array of symbols in [1, n].

    The backing numpy array is made read-only on construction, so grids
    can be shared freely without copies.  The witnesses of one search
    share one read-only (W, n, n) array instead, each grid's cells a view
    of it, so holding one witness keeps the whole array alive.
    """

    cells: np.ndarray

    def __init__(self, cells):
        try:
            given = np.asarray(cells)
        except (TypeError, ValueError) as exc:
            raise GridFormatError(f"grid must be a square array of integers: {exc}") from exc
        if given.ndim != 2 or given.shape[0] != given.shape[1] or given.shape[0] == 0:
            raise GridFormatError(f"grid must be a non-empty square array, got shape {given.shape}")
        # every check runs on the given values: a cast to int64 first would
        # wrap or warn on floats and on ints beyond int64, which numpy holds
        # as float64 or as Python objects
        if given.dtype.kind == "f":
            integral = np.isfinite(given).all() and (np.trunc(given) == given).all()
        elif given.dtype.kind in "biu":
            integral = True
        else:
            integral = all(isinstance(v, Integral) or isinstance(v, float) and v.is_integer()
                           for v in given.flat)
        if not integral:
            raise GridFormatError("grid entries must be integers")
        _check_symbols(given, given.shape[0])
        arr = given.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    def rows(self) -> list[list[int]]:
        return self.cells.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareGrid):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(np.array_equal(self.cells, other.cells))

    def __hash__(self) -> int:
        return hash((self.n, self.cells.tobytes()))

    def __repr__(self) -> str:
        return f"SquareGrid(n={self.n})"


def _grids(stack: np.ndarray) -> tuple[SquareGrid, ...]:
    """The SquareGrids of an integer (W, n, n) stack, in order, without W constructor calls.

    The symbol range is checked once on the whole stack, with SquareGrid's
    message; the stack is copied to one read-only int64 array, and each
    grid's cells is a view of it.
    """
    if not len(stack):
        return ()
    _check_symbols(stack, stack.shape[1])
    cells = stack.astype(np.int64)
    cells.setflags(write=False)
    grids = tuple(map(object.__new__, repeat(SquareGrid, len(cells))))
    for grid, view in zip(grids, cells):
        object.__setattr__(grid, "cells", view)
    return grids


@dataclass(frozen=True)
class SudokuShape:
    """Block shape (a, b): blocks are a rows tall and b columns wide.

    An order-(a*b) grid tiles into b bands of a consecutive rows and
    a stacks of b consecutive columns; a band/stack intersection is a block.
    """

    a: int
    b: int

    def __post_init__(self):
        # numpy sides become Python ints: the search builds bitmasks from n = a * b
        object.__setattr__(self, "a", _order(self.a, "a block side"))
        object.__setattr__(self, "b", _order(self.b, "a block side"))
        if self.a < 1 or self.b < 1:
            raise ParameterError(f"block shape must be positive, got ({self.a}, {self.b})")

    @property
    def n(self) -> int:
        return self.a * self.b


class BlockAddress(NamedTuple):
    band: int
    stack: int


class Violation(NamedTuple):
    """One duplicated symbol in one unit.

    kind is 'row', 'column', 'forward-diagonal', 'back-diagonal', or
    'block'.  where is the 1-based row/column index, the 0-based diagonal
    residue ((i-j) mod n forward, (i+j) mod n back, both on 0-based
    coordinates), or a BlockAddress.
    """

    kind: str
    where: object
    symbol: int


@dataclass(frozen=True)
class ValidationReport:
    verdict: bool
    violations: tuple[Violation, ...]

    def as_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [
                {"kind": v.kind, "where": list(v.where) if isinstance(v.where, tuple) else v.where,
                 "symbol": v.symbol}
                for v in self.violations
            ],
        }


def _unit_labels(n: int, shape: SudokuShape | None = None,
                 pandiagonal: bool = False) -> list[np.ndarray]:
    """The Latin units of an order-n square class, one label array per cell partition.

    Each array, broadcast to (n, n), gives the unit every cell lies in: rows
    are units 0..n-1 and columns n..2n-1; with pandiagonal, forward diagonal
    (r - c) mod n is unit 2n + 2d and back diagonal (r + c) mod n unit
    2n + 2d + 1; with a shape, block (band, stack) is 2n + band * a + stack.
    Coordinates r, c are 0-based.  The units number len(result) * n.
    """
    r = np.arange(n).reshape(-1, 1)
    c = np.arange(n)
    labels = [r, n + c]
    if pandiagonal:
        labels += [2 * n + 2 * ((r - c) % n), 2 * n + 2 * ((r + c) % n) + 1]
    if shape is not None:
        labels.append(2 * n + r // shape.a * shape.a + c // shape.b)
    return labels


def _validate(grid: SquareGrid, shape: SudokuShape | None = None,
              pandiagonal: bool = False) -> ValidationReport:
    """One Violation per (unit, symbol) pair in which the symbol occurs more than once.

    The pairs are counted in one bincount over the units of `_unit_labels`
    and listed by unit, then symbol.
    """
    n = grid.n
    labels = _unit_labels(n, shape, pandiagonal)
    symbols = grid.cells - 1
    keys = np.concatenate([(label * n + symbols).ravel() for label in labels])
    hits = np.flatnonzero(np.bincount(keys, minlength=len(labels) * n * n) > 1)
    violations = []
    for u, s in zip((hits // n).tolist(), (hits % n + 1).tolist()):
        if u < n:
            kind, where = "row", u + 1
        elif u < 2 * n:
            kind, where = "column", u - n + 1
        elif shape is not None:
            kind, where = "block", BlockAddress(*divmod(u - 2 * n, shape.a))
        else:
            where, is_back = divmod(u - 2 * n, 2)
            kind = "back-diagonal" if is_back else "forward-diagonal"
        violations.append(Violation(kind, where, s))
    return ValidationReport(verdict=not violations, violations=tuple(violations))


def _check_tiling(grid: SquareGrid, shape: SudokuShape) -> None:
    """Raise ParameterError unless shape is a SudokuShape whose blocks tile grid."""
    if not isinstance(shape, SudokuShape):
        raise ParameterError(f"shape must be a SudokuShape, got {shape!r}")
    if shape.n != grid.n:
        raise ParameterError(f"shape ({shape.a}, {shape.b}) does not tile an order-{grid.n} grid")


def validate_latin(grid: SquareGrid) -> ValidationReport:
    """Check that every row and every column is a permutation of {1..n}."""
    return _validate(grid)


def validate_pandiagonal(grid: SquareGrid) -> ValidationReport:
    """Latin plus all n forward and all n back wrapped diagonals Latin.

    Forward diagonals are the classes (i - j) mod n, back diagonals the
    classes (i + j) mod n; both wrap around the grid edges.  Violations
    list rows, then columns, then forward diagonal d and back diagonal d
    for d = 0..n-1.
    """
    return _validate(grid, pandiagonal=True)


def validate_sudoku(grid: SquareGrid, shape: SudokuShape) -> ValidationReport:
    """Latin plus every a x b block a permutation of {1..n}.

    Block violations come band-major after the row and column ones.
    """
    _check_tiling(grid, shape)
    return _validate(grid, shape)


# ---------------------------------------------------------------------------
# shared text / JSON formats


def format_grid_text(grid: SquareGrid) -> str:
    """n lines of n space-separated integers, no alignment padding.

    parse_grid_text reads it back.  It accepts any token int() reads, and
    its error for a bad token names the line that holds it.
    """
    return _grids_text(grid.cells[None])


def _grids_text(stack: np.ndarray) -> str:
    """The grids of an integer (W, n, n) stack in format_grid_text's format, a blank line apart."""
    return _stack_text(stack, " ", "\n", "\n\n", "\n") if len(stack) else ""


def _grids_json(stack: np.ndarray) -> str:
    """json.dumps(stack.tolist()) for an integer (W, n, n) stack."""
    return "[[[" + _stack_text(stack, ", ", "], [", "]], [[", "]]]") if len(stack) else "[]"


def _stack_text(stack: np.ndarray, cell: str, row: str, grid: str, last: str) -> str:
    """Each symbol of a non-empty integer (W, n, n) stack in decimal, then its separator.

    The separator is cell inside a row, row after a row, grid after a
    grid's last row and last after the stack's last row.  The whole stack
    is converted at once: one gather through a table of symbol strings,
    one pass that drops the padding.
    """
    n = stack.shape[1]
    digits = len(str(n))
    pad = max(map(len, (cell, row, grid, last)))
    cell, row, grid, last = (np.frombuffer(sep.encode("ascii").ljust(pad, b"\0"), np.uint8)
                             for sep in (cell, row, grid, last))
    # the decimal string of each symbol 0..n, then cell, both NUL-padded
    table = np.empty((n + 1, digits + pad), np.uint8)
    table[:, :digits] = np.arange(n + 1).astype(f"S{digits}").view(np.uint8).reshape(n + 1, -1)
    table[:, digits:] = cell
    text = table[stack]
    text[:, :, -1, digits:] = row
    text[:, -1, -1, digits:] = grid
    text[-1, -1, -1, digits:] = last
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _int_rows(lines: list[str]) -> list[list[int]]:
    """Each line's tokens read with int(); a token int() rejects names its line."""
    rows = []
    for line in lines:
        try:
            rows.append(list(map(int, line.split())))
        except ValueError as exc:
            raise GridFormatError(f"bad token in line {line!r}") from exc
    return rows


def parse_grid_text(text: str) -> SquareGrid:
    """Parse the text format; blank lines and '#' comment lines are ignored.

    A token is any integer int() reads, such as 7, +7, 07, 1_0 or
    non-ASCII digits; a '#' inside a row is a bad token.  The rows are
    read with one numpy conversion; a text it rejects is read again line
    by line, which names the first line holding a bad token.
    """
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise GridFormatError("no grid rows found")
    cells = None
    # numpy reads some non-ASCII letters as digits (U+01FE as 462), so
    # only ASCII rows go to it
    if all(map(str.isascii, lines)):
        try:
            with warnings.catch_warnings():
                # numpy releases that read an integer through a float
                # ("1.0") only warn; int() rejects such a token
                warnings.simplefilter("error", DeprecationWarning)
                cells = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, DeprecationWarning):
            pass
    if cells is None:
        cells = _int_rows(lines)
    widths = sorted({len(row) for row in cells})
    if widths != [len(cells)]:
        raise GridFormatError(f"expected a square grid, got {len(cells)} rows of widths {widths}")
    return SquareGrid(cells)


def grid_to_json(grid: SquareGrid, shape: SudokuShape | None = None) -> dict:
    """The JSON document of a grid, with its block shape if one is given.

    A shape that is not a SudokuShape tiling the grid is a ParameterError,
    as in validate_sudoku: parse_grid_json would reject the document.
    """
    doc: dict = {"order": grid.n, "cells": grid.rows()}
    if shape is not None:
        _check_tiling(grid, shape)
        doc["shape"] = {"a": shape.a, "b": shape.b}
    return doc


def grid_from_json(doc: dict) -> tuple[SquareGrid, SudokuShape | None]:
    try:
        order = doc["order"]
        cells = doc["cells"]
    except (TypeError, KeyError) as exc:
        raise GridFormatError("JSON grid needs 'order' and 'cells' fields") from exc
    # 2.0 == 2 and True == 1, but neither is an order
    if type(order) is not int:
        raise GridFormatError(f"JSON order {order!r} is not an integer")
    # nor is true or 2.0 a symbol; json.loads gives lists, the compact reader an int64 array
    if isinstance(cells, list) and any(not {bool, float}.isdisjoint(map(type, row))
                                       for row in cells if isinstance(row, list)):
        raise GridFormatError("grid entries must be integers")
    grid = SquareGrid(cells)
    if grid.n != order:
        raise GridFormatError(f"declared order {order} but cells are {grid.n}x{grid.n}")
    shape = None
    if doc.get("shape") is not None:
        try:
            a, b = doc["shape"]["a"], doc["shape"]["b"]
        except (TypeError, KeyError) as exc:
            raise GridFormatError("JSON shape needs 'a' and 'b' fields") from exc
        # bool is an int subclass; a float or a string is no block side, whatever it rounds to
        if not all(type(side) is int and side > 0 for side in (a, b)):
            raise GridFormatError(f"JSON shape ({a!r}, {b!r}) is not two positive integers")
        shape = SudokuShape(a, b)
        if shape.n != grid.n:
            raise GridFormatError(f"shape ({shape.a}, {shape.b}) does not tile order {grid.n}")
    return grid, shape


# json.dumps(grid_to_json(grid, shape)), the one layout this package writes;
# every number is a canonical int of at most 18 digits, so it fits an int64
_COMPACT_HEAD = re.compile(rb'\{"order": ([1-9][0-9]{0,17}), "cells": \[\[')
_COMPACT_TAIL = re.compile(rb'\]\](?:, "shape": \{"a": ([1-9][0-9]{0,17}), "b": ([1-9][0-9]{0,17})\})?\}')


def _compact_json_doc(text) -> dict | None:
    """The document of a text in the compact layout, its cells an array; None for any other text.

    The text is proven to be that layout byte by byte: head and tail, then
    n*n maximal digit runs, none with a leading zero or over 18 digits,
    parted by ", " within a row and by "], [" between rows.  json.loads
    reads such a text as the same document.
    """
    if not isinstance(text, str) or not text.isascii():
        return None
    # JSON whitespace only: str.strip() would also drop "\x0b", which json.loads rejects
    data = text.strip(" \t\n\r").encode("ascii")
    head = _COMPACT_HEAD.match(data)
    stop = data.rfind(b"]]")
    tail = _COMPACT_TAIL.fullmatch(data, stop) if head and stop > head.end() else None
    if tail is None:
        return None
    n, start = int(head[1]), head.end()
    # digit values; every other byte reads 10 or more
    body = np.frombuffer(data, np.uint8, stop - start, start) - np.uint8(48)
    digit = np.concatenate(([False], body < 10, [False]))
    # token k is body[starts[k]:ends[k]]; narrow positions keep the temporaries small
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    edges = edges.astype(np.int32 if len(body) < 2**31 else np.int64)
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) != n * n:
        return None
    lengths = ends - starts
    widest = int(lengths.max())
    gaps = np.full(n * n, 2, dtype=edges.dtype)
    gaps[n - 1::n] = 4
    # no leading zeros; with every gap's length right, its bytes are the
    # non-digit bytes in turn
    if (widest > 18 or not body.take(starts).all()
            or not np.array_equal(starts[1:] - ends[:-1], gaps[:-1])
            or data[start:stop].translate(None, b"0123456789")
            != ((b", " * (n - 1) + b"], [") * n)[:-4]):
        return None
    # one gather per digit place, counted from each token's last digit
    last = ends - 1
    cells = body.take(last).astype(np.int64)
    for place in range(1, widest):
        cells += np.where(lengths > place, body.take(last - place), 0) * np.int64(10**place)
    doc = {"order": n, "cells": cells.reshape(n, n)}
    if tail[1] is not None:
        doc["shape"] = {"a": int(tail[1]), "b": int(tail[2])}
    return doc


def parse_grid_json(text: str) -> tuple[SquareGrid, SudokuShape | None]:
    """Read a JSON grid document, as grid_from_json(json.loads(text)) does.

    The compact layout that json.dumps(grid_to_json(...)) writes is read
    with array operations; any other text goes through json.loads.  Both
    give the same grid and shape, or the same error.
    """
    doc = _compact_json_doc(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            # a JSONDecodeError, or an integer past Python's digit limit
            # (sys.get_int_max_str_digits)
            raise GridFormatError(f"invalid JSON: {exc}") from exc
    return grid_from_json(doc)
