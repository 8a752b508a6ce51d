import json
import re
import warnings

import numpy as np
import pytest

from latindist import (BlockAddress, GridFormatError, ParameterError,
                       SquareGrid, SudokuShape, Violation, format_grid_text,
                       grid_to_json, max_distance_square, parse_grid_json,
                       parse_grid_text, sudoku_square, transpose,
                       validate_latin, validate_pandiagonal, validate_sudoku)
from latindist.grid import _grids, _grids_json, _grids_text, grid_from_json

from oracle import is_latin, is_pandiagonal, is_sudoku
from conftest import FIXTURE_DIR, random_grids


def test_grid_construction_rejects_malformed_input():
    with pytest.raises(GridFormatError):
        SquareGrid([[1, 2], [1, 2], [2, 1]])  # not square
    with pytest.raises(GridFormatError):
        SquareGrid([[1, 2], [3, 2]])  # 3 out of range for n=2
    with pytest.raises(GridFormatError):
        SquareGrid([[0, 1], [1, 0]])  # 0 not a symbol
    with pytest.raises(GridFormatError):
        SquareGrid([])
    with pytest.raises(GridFormatError):
        SquareGrid([[1.5]])


def test_values_beyond_int64_are_rejected_without_a_warning():
    # numpy holds 12345678901234567890 as a float64 and 2**70 as a Python
    # object; neither may be cast to int64 before it is checked
    too_wide = [
        (lambda: SquareGrid([[1, 12345678901234567890], [1, 1]]), "symbols must lie in [1, 2]"),
        (lambda: SquareGrid([[1, 2**70], [1, 1]]), "symbols must lie in [1, 2]"),
        (lambda: SquareGrid([[1, -2**64], [1, 1]]), "symbols must lie in [1, 2]"),
        (lambda: parse_grid_text("1 12345678901234567890\n1 1\n"), "symbols must lie in [1, 2]"),
        (lambda: SquareGrid([[float("inf")]]), "grid entries must be integers"),
        (lambda: SquareGrid([[float("nan")]]), "grid entries must be integers"),
        (lambda: SquareGrid([[1, None], [2, 1]]), "grid entries must be integers"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build, message in too_wide:
            with pytest.raises(GridFormatError) as info:
                build()
            assert str(info.value) == message
        assert SquareGrid([[1.0, 2.0], [2.0, 1.0]]) == SquareGrid([[1, 2], [2, 1]])


def test_grid_is_immutable_and_1_indexed():
    g = SquareGrid([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        g.cells[0, 0] = 2
    assert g.cells[0, 1] == 2
    assert g.cells[1, 0] == 2


def test_grid_equality_and_hash():
    g1 = SquareGrid([[1, 2], [2, 1]])
    g2 = SquareGrid(np.array([[1, 2], [2, 1]]))
    g3 = SquareGrid([[2, 1], [1, 2]])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3
    # another type is left to compare itself, and is unequal
    assert g1.__eq__([[1, 2], [2, 1]]) is NotImplemented
    assert g1 != [[1, 2], [2, 1]] and not g1 == "SquareGrid(n=2)"
    assert repr(g1) == "SquareGrid(n=2)"


def test_a_stack_of_grids_is_checked_once_and_copied():
    stack = np.array([[[1, 2], [2, 1]], [[2, 1], [1, 2]]], np.uint8)
    grids = _grids(stack)
    assert grids == (SquareGrid([[1, 2], [2, 1]]), SquareGrid([[2, 1], [1, 2]]))
    assert all(g.cells.dtype == np.int64 and not g.cells.flags.writeable for g in grids)
    stack[0, 0, 0] = 2
    assert grids[0].cells[0, 0] == 1
    # out of range anywhere in the stack: SquareGrid's error, with its message
    for bad in (0, 3):
        stack[1, 1, 0] = bad
        with pytest.raises(GridFormatError) as got:
            _grids(stack)
        with pytest.raises(GridFormatError) as want:
            SquareGrid(stack[1])
        assert str(got.value) == str(want.value) == "symbols must lie in [1, 2]"
    assert _grids(np.zeros((0, 3, 3), np.int64)) == ()


def test_validate_latin_on_goldens(golden):
    assert validate_latin(golden("order5_back_circulant.txt")).verdict
    assert validate_latin(golden("order9_shift_r5_c4.txt")).verdict


def test_validate_latin_reports_all_violations():
    report = validate_latin(SquareGrid([[1, 2], [1, 2]]))
    assert not report.verdict
    assert Violation("column", 1, 1) in report.violations
    assert Violation("column", 2, 2) in report.violations


def test_validate_latin_verdict_transposes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        g = SquareGrid(rng.integers(1, n + 1, size=(n, n)))
        assert validate_latin(g).verdict == validate_latin(transpose(g)).verdict


def test_validate_pandiagonal(golden):
    assert validate_pandiagonal(golden("order11_pandiagonal.txt")).verdict
    report = validate_pandiagonal(golden("order5_back_circulant.txt"))
    assert not report.verdict
    assert any(v.kind == "back-diagonal" for v in report.violations)
    assert validate_pandiagonal(SquareGrid([[1]])).verdict


def test_pandiagonal_implies_latin(golden):
    for name in ("order11_pandiagonal.txt", "order5_circulant.txt", "order9_sudoku_3x3.txt"):
        g = golden(name)
        if validate_pandiagonal(g).verdict:
            assert validate_latin(g).verdict


def test_validate_sudoku(golden):
    assert validate_sudoku(golden("order9_sudoku_3x3.txt"), SudokuShape(3, 3)).verdict
    assert validate_sudoku(golden("order16_sudoku_4x4.txt"), SudokuShape(4, 4)).verdict
    report = validate_sudoku(golden("order9_shift_r5_c4.txt"), SudokuShape(3, 3))
    assert not report.verdict
    assert Violation("block", BlockAddress(0, 0), 1) in report.violations


def test_validate_sudoku_shape_mismatch():
    with pytest.raises(ParameterError):
        validate_sudoku(SquareGrid([[1, 2], [2, 1]]), SudokuShape(3, 3))
    # a shape is a SudokuShape, not a bare (a, b) pair
    with pytest.raises(ParameterError):
        validate_sudoku(SquareGrid([[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]),
                        (2, 2))


def test_sudoku_verdict_transposes_with_swapped_shape(golden):
    for name, (a, b) in [("order9_sudoku_3x3.txt", (3, 3)),
                         ("order16_sudoku_4x4.txt", (4, 4)),
                         ("order9_shift_r5_c4.txt", (3, 3))]:
        g = golden(name)
        assert (validate_sudoku(g, SudokuShape(a, b)).verdict
                == validate_sudoku(transpose(g), SudokuShape(b, a)).verdict)


def test_tiny_orders_are_valid_everywhere():
    one = SquareGrid([[1]])
    two = SquareGrid([[1, 2], [2, 1]])
    assert validate_latin(one).verdict and validate_latin(two).verdict
    assert validate_sudoku(one, SudokuShape(1, 1)).verdict
    assert validate_sudoku(two, SudokuShape(1, 2)).verdict
    assert validate_sudoku(two, SudokuShape(2, 1)).verdict


def test_sudoku_shape_sides_are_integers():
    # numpy sides are stored as Python ints: the search builds bitmasks from n = a * b
    shape = SudokuShape(np.int64(2), np.uint8(3))
    assert shape == SudokuShape(2, 3) and type(shape.a) is int and type(shape.b) is int
    for a, b in ((2.0, 3), (2, True), ("2", 3)):
        with pytest.raises(ParameterError):
            SudokuShape(a, b)


def test_text_round_trip_and_comments():
    g = SquareGrid([[1, 2, 3], [3, 1, 2], [2, 3, 1]])
    text = format_grid_text(g)
    assert text == "1 2 3\n3 1 2\n2 3 1\n"
    assert parse_grid_text(text) == g
    assert parse_grid_text("# order 3\n" + text) == g


def test_text_parse_errors():
    for text, message in [
        ("", "no grid rows found"),
        ("# only a comment\n  \n", "no grid rows found"),
        ("1 2\n1\n", "expected a square grid, got 2 rows of widths [1, 2]"),
        ("1 2 3\n3 1 2\n", "expected a square grid, got 2 rows of widths [3]"),
        ("1 x\n2 1\n", "bad token in line '1 x'"),
        ("1 2\n2 1 # note\n", "bad token in line '2 1 # note'"),
        ("1 2\n2 1.0\n", "bad token in line '2 1.0'"),
        ("2\n", "symbols must lie in [1, 1]"),
    ]:
        with pytest.raises(GridFormatError) as info:
            parse_grid_text(text)
        assert str(info.value) == message, text


def loop_format(grid: SquareGrid) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in grid.cells.tolist())


def test_format_matches_the_per_row_join(golden):
    # each order where the widest symbol gains a digit, and its neighbours
    grids = [SquareGrid([[1]])]
    grids += [max_distance_square(n) for n in (2, 9, 10, 11, 99, 100, 101, 999, 1000)]
    grids += [golden(path.name) for path in sorted(FIXTURE_DIR.glob("*.txt"))]
    grids += [SquareGrid(rows) for rows in random_grids(seed=29, count=200)]
    for g in grids:
        assert format_grid_text(g) == loop_format(g), g.n


def test_stack_text_is_the_grid_texts_joined():
    # one conversion of a whole stack gives what joining the grids' texts gives
    rng = np.random.default_rng(31)
    for n in (1, 2, 9, 10, 11, 100):
        stack = rng.integers(1, n + 1, size=(4, n, n))
        want = [loop_format(SquareGrid(cells)) for cells in stack]
        assert _grids_text(stack) == "\n".join(want), n
        assert _grids_text(stack[:1]) == want[0], n
    assert _grids_text(np.zeros((0, 4, 4), np.int64)) == ""


def test_stack_json_is_json_dumps_of_its_rows():
    # the JSON rows of a whole stack in one conversion, byte for byte what json.dumps writes
    rng = np.random.default_rng(41)
    for n in (1, 2, 9, 10, 11, 100):
        for count in (1, 4):
            stack = rng.integers(1, n + 1, size=(count, n, n))
            assert _grids_json(stack) == json.dumps(stack.tolist()), (n, count)
    assert _grids_json(np.zeros((0, 4, 4), np.int64)) == "[]"


def loop_parse(text: str) -> SquareGrid:
    """Per-line reference: every token read with int()."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(list(map(int, line.split())))
        except ValueError as exc:
            raise GridFormatError(f"bad token in line {line!r}") from exc
    if not rows:
        raise GridFormatError("no grid rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        raise GridFormatError(f"expected a square grid, got {len(rows)} rows of widths "
                              f"{sorted({len(r) for r in rows})}")
    return SquareGrid(rows)


# tokens int() reads in its own way, or rejects; U+01FE and U+0761 are
# letters that numpy's integer parser reads as digits
ODD_TOKENS = ["+2", "01", "-1", "0", "1_0", "\u0663", "\uff11", "\u01fe", "\u0761", "1.0",
              "1e0", "x", "#", "2#", "99999999999999999999", "-9223372036854775809"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "\x0b", "\x1f", "\u3000"]


def random_texts(seed: int, count: int):
    """Grid texts of order 1-6: mostly valid, some with odd tokens, odd
    separators, CRLF, comment and blank lines, a dropped token or row."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        tokens = [[str(v) for v in row] for row in rng.integers(1, n + 1, size=(n, n)).tolist()]
        if rng.random() < 0.4:
            for _ in range(int(rng.integers(1, 3))):
                tokens[rng.integers(n)][rng.integers(n)] = str(rng.choice(ODD_TOKENS))
        if rng.random() < 0.1:
            del tokens[rng.integers(n)][-1]
        if rng.random() < 0.1:
            del tokens[rng.integers(n)]
        lines = []
        for row in tokens:
            sep = str(rng.choice(SEPARATORS)) if rng.random() < 0.2 else " "
            lines.append(" " * int(rng.integers(0, 2)) + sep.join(row))
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "   ", "# comment", "  # indented \u00e9"])))
        end = "\r\n" if rng.random() < 0.2 else "\n"
        yield end.join(lines) + end * int(rng.integers(0, 2))


def outcome(parse, text):
    try:
        return parse(text)
    except GridFormatError as exc:
        return str(exc)


def test_parse_matches_the_per_line_loop():
    texts = list(random_texts(seed=31, count=5000))
    outcomes = [outcome(loop_parse, text) for text in texts]
    assert sum(isinstance(o, SquareGrid) for o in outcomes) > 2000
    assert [outcome(parse_grid_text, text) for text in texts] == outcomes


def test_parse_rejects_a_float_numpy_only_warns_about(monkeypatch):
    # older numpy reads "1.0" as the integer 1 and only warns
    def lenient_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.ones((1, 1), dtype=np.int64)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(GridFormatError, match=r"bad token in line '1.0'"):
        parse_grid_text("1.0\n")


def test_json_round_trip():
    g = SquareGrid([[1, 2], [2, 1]])
    doc = grid_to_json(g, SudokuShape(1, 2))
    assert doc == {"order": 2, "cells": [[1, 2], [2, 1]], "shape": {"a": 1, "b": 2}}
    back, shape = grid_from_json(json.loads(json.dumps(doc)))
    assert back == g and shape == SudokuShape(1, 2)
    bare, no_shape = parse_grid_json(json.dumps(grid_to_json(g)))
    assert bare == g and no_shape is None


def test_grid_to_json_rejects_a_shape_validate_sudoku_rejects():
    # a document with such a shape would not parse back
    g = max_distance_square(4)
    for shape in ((2, 2), SudokuShape(3, 3)):
        with pytest.raises(ParameterError):
            validate_sudoku(g, shape)
        with pytest.raises(ParameterError):
            grid_to_json(g, shape)


def test_json_parse_errors():
    with pytest.raises(GridFormatError):
        parse_grid_json("not json")
    with pytest.raises(GridFormatError):
        grid_from_json({"order": 3, "cells": [[1, 2], [2, 1]]})
    with pytest.raises(GridFormatError):
        grid_from_json({"order": 2, "cells": [[1, 2], [2, 1]], "shape": {"a": 2, "b": 2}})
    with pytest.raises(GridFormatError):
        grid_from_json({"cells": [[1]]})
    for shape in ({"a": 0, "b": 2}, {"a": 2.0, "b": 1}, {"a": 2, "b": True}):
        with pytest.raises(GridFormatError, match="is not two positive integers"):
            grid_from_json({"order": 2, "cells": [[1, 2], [2, 1]], "shape": shape})
    with pytest.raises(GridFormatError, match="needs 'a' and 'b' fields"):
        grid_from_json({"order": 2, "cells": [[1, 2], [2, 1]], "shape": {"a": 1}})


@pytest.mark.parametrize("text", [
    '{"order": 2, "cells": [[2, true], [true, 2]]}',
    '{"order": 1, "cells": [[true]]}',
    '{"order": 2, "cells": [[1, 2], [2, false]]}',
    '{"order": 2, "cells": [[2, 1], [1, true]], "shape": {"a": 1, "b": 2}}',
], ids=["true-as-1", "one-cell", "false-as-0", "with-shape"])
def test_json_cells_refuse_booleans(text):
    # true == 1 and false == 0, but neither is a symbol, as neither is an order or a side
    with pytest.raises(GridFormatError, match="^grid entries must be integers$"):
        parse_grid_json(text)
    with pytest.raises(GridFormatError, match="^grid entries must be integers$"):
        grid_from_json(json.loads(text))


@pytest.mark.parametrize("text", [
    '{"order": 2, "cells": [[2.0, 1], [1, 2]]}',
    '{"order": 1, "cells": [[1.0]]}',
    '{"order": 2, "cells": [[1, 2], [2, 1e0]]}',
    '{"order": 2, "cells": [[1, 2], [2, 1.5]]}',
    '{"order": 2, "cells": [[2, 1], [1, 2.0]], "shape": {"a": 1, "b": 2}}',
], ids=["two-point-zero", "one-cell", "exponent", "fraction", "with-shape"])
def test_json_cells_refuse_floats(text):
    # 2.0 == 2, but it is no symbol, as it is no order and the text reader's 1.0 no symbol
    with pytest.raises(GridFormatError, match="^grid entries must be integers$"):
        parse_grid_json(text)
    with pytest.raises(GridFormatError, match="^grid entries must be integers$"):
        grid_from_json(json.loads(text))


def reference_parse_json(text):
    """json.loads, then grid_from_json; a text json.loads rejects is a GridFormatError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GridFormatError(f"invalid JSON: {exc}") from exc
    return grid_from_json(doc)


def json_outcome(parse, text):
    try:
        grid, shape = parse(text)
    except Exception as exc:  # the reference's exception type is part of the outcome
        return type(exc), str(exc)
    return grid.cells.dtype, grid.cells.tolist(), shape


def compact_json_documents():
    """json.dumps(grid_to_json(...)) of grids of order 1-30 and a few of order 99-101,
    and of Sudoku squares with their shape, for every shape up to (5, 5)."""
    rng = np.random.default_rng(37)
    grids = [(SquareGrid(rng.integers(1, n + 1, size=(n, n))), None) for n in range(1, 31)]
    grids += [(max_distance_square(n), None) for n in (99, 100, 101)]
    grids += [(sudoku_square(a, b), SudokuShape(a, b)) for a in range(1, 6) for b in range(1, 6)]
    return [json.dumps(grid_to_json(grid, shape)) for grid, shape in grids]


def json_variants(text: str, rng):
    """Near misses of one compact document: whitespace, token spellings,
    structure, declared sizes, and random one-byte edits and deletions."""
    first, last = text.index("[[") + 2, text.rindex("]]")
    tokens = re.findall(r"[0-9]+", text[first:last])
    gaps = re.findall(r"[^0-9]+", text[first:last])
    n = round(len(tokens) ** 0.5)

    def joined(tokens, gaps):
        return text[:first] + "".join(map(str.__add__, tokens, gaps + [""])) + text[last:]

    def respell(spelling):
        k = int(rng.integers(len(tokens)))
        return joined(tokens[:k] + [spelling(tokens[k])] + tokens[k + 1:], gaps)

    yield " \t\n\r" + text + "\r\n "
    yield "\x0b" + text
    yield text + "\x0b"
    yield text.replace(", ", ",")
    yield text.replace("], [", "],[")
    at = int(rng.integers(len(text) + 1))
    yield text[:at] + " " + text[at:]
    for spelling in (lambda t: "0" + t, lambda t: t + ".0", lambda t: "-2", lambda t: "true",
                     lambda t: "1e0", lambda t: "1" * 20, lambda t: "1" * 18, lambda t: "\u0663",
                     lambda t: "0", lambda t: str(n + 1), lambda t: t + " "):
        yield respell(spelling)
    if n > 1:
        # a ragged row: one token and the ", " after it dropped
        k = int(rng.integers(n)) * n + int(rng.integers(n - 1))
        yield joined(tokens[:k] + tokens[k + 1:], gaps[:k] + gaps[k + 1:])
        # the boundary after row 0 moved one token forward, then one back
        yield joined(tokens, gaps[:n - 1] + [", ", "], ["] + gaps[n + 1:])
        yield joined(tokens, gaps[:n - 2] + ["], [", ", "] + gaps[n:])
        # the same separator bytes in the same order, parted differently
        yield joined(tokens, gaps[:n - 1] + ["], ", "[, "] + gaps[n + 1:])
        yield joined(tokens, gaps[:n - 1] + ["]", ", [, "] + gaps[n + 1:])
    yield text[:-1] + ', "extra": 1}'
    yield text[:-1] + ', "shape": null}'
    yield text.replace(f'"order": {n}', f'"order": {n + 1}')
    yield text.replace(f'"order": {n}', f'"order": {n - 1}')
    yield text.replace(f'"order": {n}', f'"order": 0{n}')
    if '"shape"' in text:
        yield text.replace('"a": ', '"a": 1')
        yield text.replace('"b": ', '"b": 0')
        yield text.replace('{"a"', '{"b": 1, "a"')
    yield text[:int(rng.integers(len(text)))]
    alphabet = list("0123456789 ,[]{}\":-.e") + ["\t", "\x0b", "\u0663"]
    for _ in range(6):
        at = int(rng.integers(len(text)))
        yield text[:at] + str(rng.choice(alphabet)) + text[at + 1:]
        at = int(rng.integers(len(text)))
        yield text[:at] + text[at + 1:]


def test_compact_json_reader_matches_json_loads():
    rng = np.random.default_rng(41)
    texts = [variant for text in compact_json_documents()
             for variant in [text, *json_variants(text, rng)]]
    outcomes = [json_outcome(reference_parse_json, text) for text in texts]
    assert sum(isinstance(o[1], list) for o in outcomes) > 300
    assert [json_outcome(parse_grid_json, text) for text in texts] == outcomes


def test_compact_json_documents_skip_json_loads(golden, monkeypatch):
    grids = [(golden(path.name), None) for path in sorted(FIXTURE_DIR.glob("*.txt"))]
    grids += [(golden("order9_sudoku_3x3.txt"), SudokuShape(3, 3)),
              (golden("order16_sudoku_4x4.txt"), SudokuShape(4, 4))]
    texts = [json.dumps(grid_to_json(grid, shape)) for grid, shape in grids]
    texts += compact_json_documents()
    outcomes = [json_outcome(reference_parse_json, text) for text in texts]

    def no_loads(*args, **kwargs):
        raise AssertionError("json.loads called on a compact document")

    monkeypatch.setattr(json, "loads", no_loads)
    assert [json_outcome(parse_grid_json, text) for text in texts] == outcomes
    for (grid, shape), text in zip(grids, texts):
        assert parse_grid_json(text) == (grid, shape)


def loop_violations(rows, kind: str, shape=None) -> list[Violation]:
    """Per-unit reference: rows, columns, then forward diagonal d and back
    diagonal d for d = 0..n-1, or the blocks band-major; each unit's
    repeated symbols in increasing order."""
    n = len(rows)

    def repeated(values):
        return sorted(s for s in set(values) if values.count(s) > 1)

    units = [("row", i + 1, list(rows[i])) for i in range(n)]
    units += [("column", j + 1, [rows[i][j] for i in range(n)]) for j in range(n)]
    if kind == "pandiagonal":
        for d in range(n):
            units.append(("forward-diagonal", d, [rows[i][(i - d) % n] for i in range(n)]))
            units.append(("back-diagonal", d, [rows[i][(d - i) % n] for i in range(n)]))
    elif kind == "sudoku":
        a, b = shape
        for band in range(b):
            for stack in range(a):
                block = [rows[band * a + i][stack * b + j] for i in range(a) for j in range(b)]
                units.append(("block", BlockAddress(band, stack), block))
    return [Violation(k, where, s) for k, where, values in units for s in repeated(values)]


def assert_same_violations(report, want: list[Violation]):
    assert report.violations == tuple(want)
    assert report.verdict == (not want)
    for v in report.violations:
        assert type(v.symbol) is int
        assert type(v.where) is (BlockAddress if v.kind == "block" else int)


def test_validators_match_the_per_unit_loop(golden):
    # random grids are Sudoku squares only for the shapes (1, n) and (n, 1),
    # so two golden ones join them
    squares = [golden(name).rows() for name in ("order9_sudoku_3x3.txt", "order16_sudoku_4x4.txt")]
    for rows in [*random_grids(seed=23, count=400), *squares]:
        n = len(rows)
        g = SquareGrid(rows)
        latin = validate_latin(g)
        assert_same_violations(latin, loop_violations(rows, "latin"))
        assert latin.verdict == is_latin(rows)
        pandiagonal = validate_pandiagonal(g)
        assert_same_violations(pandiagonal, loop_violations(rows, "pandiagonal"))
        assert pandiagonal.verdict == is_pandiagonal(rows)
        for a in range(1, n + 1):
            if n % a == 0:
                shape = (a, n // a)
                sudoku = validate_sudoku(g, SudokuShape(*shape))
                assert_same_violations(sudoku, loop_violations(rows, "sudoku", shape))
                assert sudoku.verdict == is_sudoku(rows, *shape)

