"""Grid representation, the Latin units of each square class, and the three validators.

A plain Latin square has every symbol once in each row and each column; a
pandiagonal (Knut-Vik) square also in each wrapped diagonal, and a Sudoku
square also in each a x b block.  `_validate` counts the symbols of these
units for the validators one unit family at a time, reading each cell's
unit off a table of O(n) labels, and `_cyclic_distance` computes the
adjacent distance of two symbols for the metric and the constructions,
in the dtype `_narrow` picks.

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
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _narrow(bound: int) -> type[np.signedinteger]:
    """The narrowest signed integer dtype that holds every integer from -bound to bound."""
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _cyclic_distance(diff, n: int):
    """min(diff mod n, -diff mod n), the distance of symbols u, v with u - v = diff.

    diff is an int, which gives a numpy int, or an integer array, with
    every |diff| <= n: abs is much cheaper than a remainder on arrays.  The
    metric passes differences of symbols in [1, n], in the dtype _narrow(n)
    picks, so abs(diff) and n - abs(diff), both in [0, n], stay in it.
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


_KINDS = ("plain", "pandiagonal", "sudoku")


def _square_class(kind: str, n=None, a=None, b=None) -> tuple[int, SudokuShape | None]:
    """The order and block shape of a square class, by the one class rule.

    kind is plain or pandiagonal with an order n, or sudoku with block
    sides (a, b) and, optionally, the order a*b they make.  Anything else
    is refused, not dropped: sides with another kind, another kind, a
    missing order or side, an order the sides do not make, an order below
    2.  numpy integers become Python ints.
    """
    if kind != "sudoku" and (a is not None or b is not None):
        raise ParameterError(f"a block shape only applies to sudoku, not {kind}")
    if kind not in _KINDS:
        raise ParameterError(f"unknown kind {kind!r}")
    shape = None
    if kind == "sudoku":
        if a is None or b is None:
            raise ParameterError("sudoku squares need a block shape (a, b)")
        shape = SudokuShape(a, b)
        if n is not None and _order(n) != shape.n:
            raise ParameterError(f"order {n} does not match shape ({shape.a}, {shape.b})")
        n = shape.n
    elif n is None:
        raise ParameterError(f"{kind} squares need an order n")
    n = _order(n)
    if n < 2:
        raise ParameterError("no inner distance is defined below order 2")
    return n, shape


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


def _validate(grid: SquareGrid, shape: SudokuShape | None = None,
              pandiagonal: bool = False) -> ValidationReport:
    """One Violation per (unit, symbol) pair in which the symbol occurs more than once.

    The units come in families: rows, columns, with pandiagonal the
    forward diagonals (r - c) mod n and the back diagonals (r + c) mod n,
    and with a shape the blocks band * a + stack, with r, c 0-based.  Each
    family labels every cell with its unit times n, less 1, so that label
    plus symbol is the cell's (unit, symbol) key.  Row and column labels
    are one n-vector broadcast along either axis; the diagonal labels are
    a Toeplitz and a Hankel view of one table that lists the n labels
    twice; the block labels are an outer sum of a band and a stack
    n-vector.  Each family's keys are written into one reused n x n buffer
    and counted by one bincount, so no index arithmetic runs on n*n values
    and only the buffer and one family's counts are held at a time.  The
    few repeated keys are numbered as units of the whole class, rows
    0..n-1, columns n..2n-1, then forward diagonal d as 2n + 2d and back
    diagonal d as 2n + 2d + 1, or block k as 2n + k, and listed by unit,
    then symbol.
    """
    n = grid.n
    label = np.arange(n) * n - 1
    # (terms whose sum is the labels, the class unit of label 0, the step between class units)
    families = [((label[:, None],), 0, 1), ((label,), n, 1)]
    if pandiagonal:
        # twice[k] is the label of k mod n; entry [r, c] of the windows of twice[1:], each
        # reversed, is twice[r - c + n], and that of the windows of twice[:-1] is twice[r + c]
        twice = np.concatenate((label, label))
        families += [((sliding_window_view(twice[1:], n)[:, ::-1],), 2 * n, 2),
                     ((sliding_window_view(twice[:-1], n),), 2 * n + 1, 2)]
    if shape is not None:
        bands = np.arange(n) // shape.a * shape.a * n - 1
        stacks = np.arange(n) // shape.b * n
        families.append(((bands[:, None], stacks), 2 * n, 1))
    keys = np.empty((n, n), dtype=np.int64)
    found = []
    for terms, first, step in families:
        np.add(terms[0], grid.cells, out=keys)
        for term in terms[1:]:
            keys += term
        repeated = np.flatnonzero(np.bincount(keys.ravel(), minlength=n * n) > 1)
        units, symbols = np.divmod(repeated, n)
        found.append((first + step * units) * n + symbols)
    hits = np.sort(np.concatenate(found))
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
    return "".join(_grids_text(grid.cells[None]))


def _grids_text(stack: np.ndarray) -> Iterator[str]:
    """The grids of an integer (W, n, n) stack in format_grid_text's format, a blank line
    apart, as parts to join or write in turn."""
    return _stack_text(stack, " ", "\n", "\n\n", "\n")


def _grids_json(stack: np.ndarray) -> Iterator[str]:
    """json.dumps(stack.tolist()) for an integer (W, n, n) stack, as parts to join or write."""
    yield "[[[" if len(stack) else "[]"
    yield from _stack_text(stack, ", ", "], [", "]], [[", "]]]")


# cells that _stack_text converts at a time, so that its padded gather stays a few megabytes
_TEXT_CELLS = 2**20


def _stack_text(stack: np.ndarray, cell: str, row: str, grid: str, last: str) -> Iterator[str]:
    """Each symbol of an integer (W, n, n) stack in decimal, then its separator.

    The separator is cell inside a row, row after a row, grid after a
    grid's last row and last after the stack's last row.  The stack is
    converted a block of _TEXT_CELLS // (n*n) witnesses (at least one) at a
    time, each block by one gather through a table of symbol strings and
    one pass that drops the padding, and each block's text is yielded as it
    is made, so that a writer holds one block at a time.  An empty stack
    yields nothing.
    """
    count, n = stack.shape[:2]
    digits = len(str(n))
    pad = max(map(len, (cell, row, grid, last)))
    cell, row, grid, last = (np.frombuffer(sep.encode("ascii").ljust(pad, b"\0"), np.uint8)
                             for sep in (cell, row, grid, last))
    # the decimal string of each symbol 0..n, then cell, both NUL-padded
    table = np.empty((n + 1, digits + pad), np.uint8)
    table[:, :digits] = np.arange(n + 1).astype(f"S{digits}").view(np.uint8).reshape(n + 1, -1)
    table[:, digits:] = cell
    block = max(1, _TEXT_CELLS // (n * n))
    for start in range(0, count, block):
        text = table[stack[start:start + block]]
        text[:, :, -1, digits:] = row
        text[:, -1, -1, digits:] = grid
        if start + block >= count:
            text[-1, -1, -1, digits:] = last
        yield text.tobytes().translate(None, b"\0").decode("ascii")


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
