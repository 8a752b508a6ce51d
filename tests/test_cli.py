import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latindist import (SquareGrid, SudokuShape, format_grid_text, max_distance_square,
                       parse_grid_json, parse_grid_text, shift_by_k, validate_latin)
from latindist.cli import main

from conftest import FIXTURE_DIR, load_golden


def run_cli(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, fixture", [
    (["gen", "--algo", "shiftk", "--n", "5", "--k", "-1"], "order5_back_circulant.txt"),
    (["gen", "--algo", "shiftk", "--n", "5", "--k", "2"], "order5_shift_by_2.txt"),
    (["gen", "--algo", "shift", "--n", "9", "--r", "5", "--c", "4",
      "--alpha", "9", "--beta", "9"], "order9_shift_r5_c4.txt"),
    (["gen", "--algo", "shift", "--n", "6", "--r", "4", "--c", "2",
      "--alpha", "-1", "--beta", "1"], "order6_shift_r4_c2.txt"),
    (["gen", "--algo", "pandiagonal", "--n", "11"], "order11_pandiagonal.txt"),
    (["gen", "--algo", "sudoku", "--a", "3", "--b", "3"], "order9_sudoku_3x3.txt"),
    (["gen", "--algo", "eveneven", "--x", "2", "--y", "2"], "order16_sudoku_4x4.txt"),
])
def test_gen_matches_goldens(capsys, monkeypatch, argv, fixture):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == format_grid_text(load_golden(fixture))
    # the JSON output reads back without json.loads, as the same grid
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    # --a/--b give the block shape, --x/--y half of it
    scale = {"sudoku": 1, "eveneven": 2}.get(argv[2])
    shape = SudokuShape(scale * int(argv[4]), scale * int(argv[6])) if scale else None
    monkeypatch.setattr(json, "loads", None)
    assert parse_grid_json(out) == (load_golden(fixture), shape)


def test_gen_json_format(capsys):
    code, out, _ = run_cli(capsys, ["gen", "--algo", "sudoku", "--a", "2", "--b", "2",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4 and doc["shape"] == {"a": 2, "b": 2}


def test_gen_exit_codes(capsys):
    code, _, err = run_cli(capsys, ["gen", "--algo", "pandiagonal", "--n", "6"])
    assert code == 3 and "exist" in err
    code, _, err = run_cli(capsys, ["gen", "--algo", "shiftk", "--n", "4", "--k", "2"])
    assert code == 2
    code, _, err = run_cli(capsys, ["gen", "--algo", "maxdist"])
    assert code == 2 and "--n" in err


def test_internal_errors_exit_4_without_a_traceback(capsys, monkeypatch):
    # a constructor whose self-check fails, and a bounds entry with lower > upper, are bugs:
    # exit 4 with one line on stderr, not a traceback
    import latindist.construct as construct

    def failing(grid, shape=None, pandiagonal=False):
        return validate_latin(SquareGrid([[1, 1], [1, 1]]))

    def inconsistent(n):
        return construct.BoundsEntry("plain", n, None, None, 5, 4, False, True, ("broken",))

    monkeypatch.setattr(construct, "_validate", failing)
    monkeypatch.setattr(construct, "plain_bounds", inconsistent)
    for argv in (["gen", "--algo", "maxdist", "--n", "7"],
                 ["gen", "--algo", "pandiagonal", "--n", "5"],
                 ["bounds", "--kind", "plain", "--n", "10"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 4 and out == "", argv
        assert err.startswith("latindist: internal error: ") and err.count("\n") == 1, argv
        assert "Traceback" not in err and "internal bug" in err, argv


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--algo", "eveneven", "--x", "2", "--y", "3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_check_kinds_and_exit_codes(capsys, monkeypatch):
    sudoku_text = format_grid_text(load_golden("order9_sudoku_3x3.txt"))
    code, out, _ = run_cli(capsys, ["check", "--kind", "sudoku", "--a", "3", "--b", "3"],
                           stdin=sudoku_text, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["verdict"] is True

    back_circulant = format_grid_text(load_golden("order5_back_circulant.txt"))
    code, out, _ = run_cli(capsys, ["check", "--kind", "pandiagonal"],
                           stdin=back_circulant, monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False and report["violations"]

    code, _, _ = run_cli(capsys, ["check", "--kind", "latin"],
                         stdin="1 2 3 4\n2 1\n", monkeypatch=monkeypatch)
    assert code == 2


def test_check_reads_files_and_json(capsys, tmp_path, monkeypatch):
    path = tmp_path / "grid.txt"
    path.write_text(format_grid_text(shift_by_k(5, 2)))
    code, out, _ = run_cli(capsys, ["check", str(path), "--kind", "latin"])
    assert code == 0

    # shape taken from the JSON document itself; the circulant repeats a
    # symbol inside the top-left block, so the verdict is false
    jpath = tmp_path / "grid.json"
    jpath.write_text(json.dumps({"order": 4, "cells": shift_by_k(4, 1).rows(),
                                 "shape": {"a": 2, "b": 2}}))
    code, out, _ = run_cli(capsys, ["check", str(jpath), "--kind", "sudoku",
                                    "--format", "json"])
    assert code == 1 and json.loads(out)["verdict"] is False


def test_dist_outputs(capsys, monkeypatch):
    fig4 = format_grid_text(load_golden("order9_shift_r5_c4.txt"))
    code, out, _ = run_cli(capsys, ["dist", "--format", "json"], stdin=fig4,
                           monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["inner_distance"] == 4

    fig3 = format_grid_text(load_golden("order6_shift_r4_c2.txt"))
    code, out, _ = run_cli(capsys, ["dist"], stdin=fig3, monkeypatch=monkeypatch)
    assert code == 0 and out.startswith("inner distance: 2")

    fig7 = format_grid_text(load_golden("order11_pandiagonal.txt"))
    code, out, _ = run_cli(capsys, ["dist", "--format", "json"], stdin=fig7,
                           monkeypatch=monkeypatch)
    assert json.loads(out)["inner_distance"] == 4

    code, _, err = run_cli(capsys, ["dist"], stdin="1\n", monkeypatch=monkeypatch)
    assert code == 2 and "inner distance" in err


def test_bounds_outputs(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--kind", "plain", "--n", "10"])
    doc = json.loads(out)
    assert code == 0 and (doc["lower"], doc["upper"], doc["exact"]) == (4, 4, True)

    code, out, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--a", "5", "--b", "7"])
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"], doc["exact"]) == (15, 15, True)

    code, out, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--a", "2", "--b", "9"])
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"], doc["exact"]) == (8, 8, True)

    code, out, _ = run_cli(capsys, ["bounds", "--kind", "pandiagonal", "--n", "6"])
    assert json.loads(out)["existence"] is False

    code, _, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--a", "0", "--b", "3"])
    assert code == 2


@pytest.mark.parametrize("a, b, lower, upper, provenance", [
    (1, 5, 2, 2, ["single-row-blocks", "half-range-cap", "max-distance-shift-fill"]),
    (2, 6, 5, 5, ["two-row-block-formula"]),
    (3, 5, 6, 6, ["odd-width-shift-fill", "block-interior-cap"]),
    (5, 7, 15, 15, ["odd-width-shift-fill", "odd-blocks-interior-cap"]),
    (4, 6, 10, 10, ["even-even-row-offset-fill", "block-interior-cap"]),
    (3, 8, 9, 10, ["width-div4-shift-fill", "block-interior-cap"]),
    (3, 10, 10, 13, ["width-2mod4-shift-fill", "block-interior-cap"]),
])
def test_sudoku_bounds_json_is_pinned(capsys, a, b, lower, upper, provenance):
    # one shape per branch of the construction plan and of the upper caps
    code, out, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--a", str(a), "--b", str(b)])
    assert code == 0
    assert json.loads(out) == {
        "kind": "sudoku", "a": a, "b": b, "n": a * b, "lower": lower, "upper": upper,
        "exact": lower == upper, "existence": True, "provenance": provenance}


def test_search_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "5", "--kind", "plain",
                                    "--min-dist", "2", "--mode", "count"])
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 20 and doc["complete"] is True
    assert doc["query"]["min_distance"] == 2 and "elapsed_ms" in doc and "nodes" in doc

    code, out, _ = run_cli(capsys, ["search", "--a", "3", "--b", "3", "--kind", "sudoku",
                                    "--min-dist", "4", "--mode", "exists"])
    assert json.loads(out)["count"] == 0


def test_search_rejects_block_sides_outside_sudoku(capsys):
    # plain 6 d=2 counts 672 squares and (2, 3)-Sudoku 48: block sides are never dropped
    for argv, message in [(["--n", "6", "--a", "2", "--b", "3"], "only applies to sudoku"),
                          (["--kind", "pandiagonal", "--n", "7", "--a", "1"], "block side"),
                          (["--kind", "sudoku", "--a", "2"], "--kind sudoku needs --a and --b")]:
        code, out, err = run_cli(capsys, ["search", *argv, "--min-dist", "2"])
        assert code == 2 and out == "" and err.startswith("latindist: ") and message in err, argv
    code, out, _ = run_cli(capsys, ["search", "--kind", "sudoku", "--a", "2", "--b", "3",
                                    "--min-dist", "2"])
    assert code == 0 and json.loads(out)["count"] == 48


def test_kinds_without_their_sizes_exit_2(capsys, monkeypatch):
    text = format_grid_text(load_golden("order9_sudoku_3x3.txt"))
    code, out, err = run_cli(capsys, ["check", "--kind", "sudoku"], stdin=text,
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and "--kind sudoku needs --a and --b" in err
    code, out, err = run_cli(capsys, ["search", "--kind", "plain", "--min-dist", "2"])
    assert (code, out) == (2, "") and "--kind plain needs --n" in err


def test_search_exists_beyond_the_recursion_limit(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "33", "--min-dist", "16",
                                      "--mode", "exists"])
    assert code == 0 and json.loads(out)["count"] == 1 and err == ""


def test_search_enumerate_and_witness_file(capsys, tmp_path):
    wpath = tmp_path / "witnesses.txt"
    code, out, _ = run_cli(capsys, ["search", "--n", "4", "--kind", "plain",
                                    "--min-dist", "1", "--mode", "enumerate",
                                    "--witnesses-out", str(wpath)])
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 576 == len(doc["witnesses"])
    blocks = [b for b in wpath.read_text().split("\n\n") if b.strip()]
    assert len(blocks) == 576
    assert parse_grid_text(blocks[0]).cells[0, 0] == 1


def test_witness_file_needs_a_mode_that_keeps_squares(capsys, tmp_path):
    # a count keeps no squares: refused before the search, not an empty file
    wpath = tmp_path / "witnesses.txt"
    code, out, err = run_cli(capsys, ["search", "--n", "5", "--min-dist", "2",
                                      "--witnesses-out", str(wpath)])
    assert (code, out) == (2, "") and err.startswith("latindist: ") and err.count("\n") == 1
    assert "--witnesses-out" in err and not wpath.exists()
    code, out, _ = run_cli(capsys, ["search", "--n", "5", "--min-dist", "2", "--mode", "exists",
                                    "--witnesses-out", str(wpath)])
    assert code == 0 and json.loads(out)["count"] == 1
    assert validate_latin(parse_grid_text(wpath.read_text())).verdict


def test_canon_round_trip(capsys, monkeypatch):
    shifted = format_grid_text(shift_by_k(5, 3))
    code, out, _ = run_cli(capsys, ["canon", "--format", "json"], stdin=shifted,
                           monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["canonical"]["cells"] == shift_by_k(5, 1).rows()
    assert sorted(doc["permutation"]["rows"]) == [1, 2, 3, 4, 5]

    code, out, _ = run_cli(capsys, ["canon"], stdin=shifted, monkeypatch=monkeypatch)
    grid_part, perm_part = out.rsplit("\n\n", 1)
    assert parse_grid_text(grid_part) == shift_by_k(5, 1)
    assert json.loads(perm_part)["cols"]

    stubborn = "1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n"
    code, _, err = run_cli(capsys, ["canon"], stdin=stubborn, monkeypatch=monkeypatch)
    assert code == 1 and "reduc" in err


def test_gen_check_round_trip(capsys, monkeypatch):
    cases = [
        (["gen", "--algo", "maxdist", "--n", "7"], ["check", "--kind", "latin"]),
        (["gen", "--algo", "pandiagonal", "--n", "7"], ["check", "--kind", "pandiagonal"]),
        (["gen", "--algo", "sudoku", "--a", "2", "--b", "3"],
         ["check", "--kind", "sudoku", "--a", "2", "--b", "3"]),
        (["gen", "--algo", "eveneven", "--x", "2", "--y", "3"],
         ["check", "--kind", "sudoku", "--a", "4", "--b", "6"]),
    ]
    for gen_argv, check_argv in cases:
        _, out, _ = run_cli(capsys, gen_argv)
        code, _, _ = run_cli(capsys, check_argv, stdin=out, monkeypatch=monkeypatch)
        assert code == 0, (gen_argv, check_argv)


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "grid.txt"
    code, out, _ = run_cli(capsys, ["gen", "--algo", "shiftk", "--n", "5", "--k", "1",
                                    "--out", str(target)])
    assert code == 0 and out == ""
    assert parse_grid_text(target.read_text()) == shift_by_k(5, 1)


def test_dist_text_lists_at_most_100_pairs(capsys, monkeypatch):
    # every one of the 2 * 9 * 8 adjacent pairs of the order-9 maximum ties
    text = format_grid_text(max_distance_square(9))
    code, out, _ = run_cli(capsys, ["dist"], stdin=text, monkeypatch=monkeypatch)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4
    assert lines[2].count("-") == 100
    assert lines[3] == "... and 44 more (--format json lists them all)"
    code, out, _ = run_cli(capsys, ["dist", "--format", "json"], stdin=text,
                           monkeypatch=monkeypatch)
    assert len(json.loads(out)["argmin_pairs"]) == 144


@pytest.mark.parametrize("argv", [
    ["check", "{tmp}/nope.txt", "--kind", "latin"],
    ["dist", "{tmp}/grid.bin"],
    ["check", "{tmp}/grid.txt", "--kind", "latin", "--out", "{tmp}/missing/out.json"],
    ["search", "--n", "4", "--min-dist", "2", "--mode", "enumerate", "--witnesses-out", "{tmp}"],
])
def test_file_errors_exit_2_without_a_traceback(capsys, tmp_path, argv):
    (tmp_path / "grid.txt").write_text(format_grid_text(shift_by_k(5, 2)))
    (tmp_path / "grid.bin").write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("latindist: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"order": 2, "cells": [[1, 2], [1]]},
    {"order": 2, "cells": [[1, None], [2, 1]]},
    {"order": 2, "cells": [["a", "b"], ["b", "a"]]},
    {"order": 2, "cells": [["1", "2"], ["2", "1"]]},
    {"order": 4, "cells": shift_by_k(4, 1).rows(), "shape": {"a": "x", "b": 2}},
    # a shape field must be a positive int, not whatever int() makes of it
    {"order": 4, "cells": shift_by_k(4, 1).rows(), "shape": {"a": 2.7, "b": 2}},
    {"order": 4, "cells": shift_by_k(4, 1).rows(), "shape": {"a": "2", "b": "2"}},
    {"order": 2, "cells": [[1, 2], [2, 1]], "shape": {"a": True, "b": 2}},
    {"order": 4, "cells": shift_by_k(4, 1).rows(), "shape": {"a": -2, "b": -2}},
    # so must the order, though 2.0 == 2 and True == 1
    {"order": 2.0, "cells": [[1, 2], [2, 1]]},
    {"order": True, "cells": [[1]]},
    # integers past Python's 4300-digit limit for reading a decimal string
    pytest.param('{"order": 1, "cells": [[' + "1" * 5000 + ']]}', id="cell-past-digit-limit"),
    pytest.param('{"order": ' + "1" * 5000 + ', "cells": [[1]]}', id="order-past-digit-limit"),
])
def test_malformed_json_grids_exit_2(capsys, monkeypatch, doc):
    stdin = doc if isinstance(doc, str) else json.dumps(doc)
    code, out, err = run_cli(capsys, ["check", "--kind", "latin", "--format", "json"],
                             stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("latindist: ") and err.count("\n") == 1


BACK_CIRCULANT_DIST_TEXT = (
    "inner distance: 1\ndistance classes (value x pairs): 1x40\n"
    "minimum achieved at: (1,1)-(1,2); (1,2)-(1,3); (1,3)-(1,4); (1,4)-(1,5); "
    "(2,1)-(2,2); (2,2)-(2,3); (2,3)-(2,4); (2,4)-(2,5); (3,1)-(3,2); (3,2)-(3,3); "
    "(3,3)-(3,4); (3,4)-(3,5); (4,1)-(4,2); (4,2)-(4,3); (4,3)-(4,4); (4,4)-(4,5); "
    "(5,1)-(5,2); (5,2)-(5,3); (5,3)-(5,4); (5,4)-(5,5); (1,1)-(2,1); (1,2)-(2,2); "
    "(1,3)-(2,3); (1,4)-(2,4); (1,5)-(2,5); (2,1)-(3,1); (2,2)-(3,2); (2,3)-(3,3); "
    "(2,4)-(3,4); (2,5)-(3,5); (3,1)-(4,1); (3,2)-(4,2); (3,3)-(4,3); (3,4)-(4,4); "
    "(3,5)-(4,5); (4,1)-(5,1); (4,2)-(5,2); (4,3)-(5,3); (4,4)-(5,4); (4,5)-(5,5)\n"
)

BACK_CIRCULANT_DIST_JSON = (
    '{"inner_distance": 1, "classes": [{"distance": 1, "pairs": 40}], "argmin_pairs": '
    '[[[1, 1], [1, 2]], [[1, 2], [1, 3]], [[1, 3], [1, 4]], [[1, 4], [1, 5]], '
    '[[2, 1], [2, 2]], [[2, 2], [2, 3]], [[2, 3], [2, 4]], [[2, 4], [2, 5]], '
    '[[3, 1], [3, 2]], [[3, 2], [3, 3]], [[3, 3], [3, 4]], [[3, 4], [3, 5]], '
    '[[4, 1], [4, 2]], [[4, 2], [4, 3]], [[4, 3], [4, 4]], [[4, 4], [4, 5]], '
    '[[5, 1], [5, 2]], [[5, 2], [5, 3]], [[5, 3], [5, 4]], [[5, 4], [5, 5]], '
    '[[1, 1], [2, 1]], [[1, 2], [2, 2]], [[1, 3], [2, 3]], [[1, 4], [2, 4]], '
    '[[1, 5], [2, 5]], [[2, 1], [3, 1]], [[2, 2], [3, 2]], [[2, 3], [3, 3]], '
    '[[2, 4], [3, 4]], [[2, 5], [3, 5]], [[3, 1], [4, 1]], [[3, 2], [4, 2]], '
    '[[3, 3], [4, 3]], [[3, 4], [4, 4]], [[3, 5], [4, 5]], [[4, 1], [5, 1]], '
    '[[4, 2], [5, 2]], [[4, 3], [5, 3]], [[4, 4], [5, 4]], [[4, 5], [5, 5]]]}\n'
)

BACK_CIRCULANT_PANDIAGONAL_CHECK = (
    '{"verdict": false, "violations": ['
    '{"kind": "back-diagonal", "where": 0, "symbol": 1}, '
    '{"kind": "back-diagonal", "where": 1, "symbol": 2}, '
    '{"kind": "back-diagonal", "where": 2, "symbol": 3}, '
    '{"kind": "back-diagonal", "where": 3, "symbol": 4}, '
    '{"kind": "back-diagonal", "where": 4, "symbol": 5}]}\n'
)


@pytest.mark.parametrize("argv, want_code, want_out", [
    (["dist"], 0, BACK_CIRCULANT_DIST_TEXT),
    (["dist", "--format", "json"], 0, BACK_CIRCULANT_DIST_JSON),
    (["check", "--kind", "pandiagonal"], 1, BACK_CIRCULANT_PANDIAGONAL_CHECK),
])
def test_outputs_on_the_back_circulant_are_pinned(capsys, argv, want_code, want_out):
    path = FIXTURE_DIR / "order5_back_circulant.txt"
    code, out, err = run_cli(capsys, [*argv, str(path)])
    assert (code, out, err) == (want_code, want_out, "")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_cli_start_up_does_not_import_multiprocessing():
    # the search runs in one process; a process pool would only slow every CLI start-up
    proc = _run_python("-c", "import latindist.cli, sys; "
                             "assert 'multiprocessing' not in sys.modules, 'imported'")
    assert proc.returncode == 0, proc.stderr
    # nor does an enumerate pull in numpy.ma, which np.unique(axis=0) or np.pad would load
    proc = _run_python("-c", "import sys; from latindist.cli import main; "
                             "code = main(['search', '--n', '5', '--min-dist', '2', "
                             "'--mode', 'enumerate']); "
                             "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; "
                             "assert 'multiprocessing' not in sys.modules, 'imported'; "
                             "sys.exit(code)")
    assert proc.returncode == 0, proc.stderr


def test_search_has_no_workers_flag():
    proc = _run_python("-m", "latindist.cli", "search", "--n", "5", "--min-dist", "2",
                       "--workers", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: latindist ")
    assert "unrecognized arguments: --workers 2" in proc.stderr
    assert "Traceback" not in proc.stderr
