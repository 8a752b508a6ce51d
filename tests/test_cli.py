import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latindist import (DEFAULT_NODE_BUDGET, SearchQuery, SquareGrid, SudokuShape,
                       format_grid_text, grid_to_json, max_distance_square, parse_grid_json,
                       parse_grid_text, run_search, shift_by_k, sudoku_square, validate_latin)
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


@pytest.mark.parametrize("argv, stray", [
    (["--algo", "shift", "--n", "9", "--r", "5", "--c", "4", "--alpha", "9", "--beta", "9",
      "--k", "1"], "k"),
    (["--algo", "shiftk", "--n", "5", "--x", "2", "--k", "2"], "x"),
    (["--algo", "maxdist", "--n", "5", "--r", "3"], "r"),
    (["--algo", "pandiagonal", "--a", "1", "--n", "11"], "a"),
    (["--algo", "sudoku", "--n", "9", "--a", "3", "--b", "3"], "n"),
    (["--algo", "eveneven", "--x", "2", "--b", "4", "--y", "2"], "b"),
])
def test_gen_refuses_flags_its_algorithm_does_not_take(capsys, argv, stray):
    code, out, err = run_cli(capsys, ["gen", *argv])
    assert (code, out) == (2, "")
    assert err == f"latindist: --algo {argv[1]} does not take --{stray}\n"
    # the same line without the stray flag builds its grid, and without its last flag too
    # it names the flag it misses
    i = argv.index(f"--{stray}")
    used = argv[:i] + argv[i + 2:]
    code, out, err = run_cli(capsys, ["gen", *used])
    assert (code, err) == (0, "") and parse_grid_text(out)
    code, out, err = run_cli(capsys, ["gen", *used[:-2]])
    assert (code, out) == (2, "")
    assert err == f"latindist: --algo {argv[1]} requires {used[-2]}\n"


def test_internal_errors_exit_4_without_a_traceback(capsys, monkeypatch):
    # a constructor whose self-check fails, and a bounds entry with lower > upper, are bugs:
    # exit 4 with one line on stderr, not a traceback
    import latindist.construct as construct

    def failing(grid, shape=None, pandiagonal=False):
        return validate_latin(SquareGrid([[1, 1], [1, 1]]))

    def overshooting(rows, cols):
        # (3, 5) blocks cap the distance at 6
        return 7

    monkeypatch.setattr(construct, "_validate", failing)
    monkeypatch.setattr(construct, "_least_step", overshooting)
    for argv in (["gen", "--algo", "maxdist", "--n", "7"],
                 ["gen", "--algo", "pandiagonal", "--n", "5"],
                 ["bounds", "--kind", "sudoku", "--a", "3", "--b", "5"]):
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
    code, out, _ = run_cli(capsys, ["check", str(jpath), "--kind", "sudoku"])
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
    (1, 2, 1, 1, ["single-row-blocks", "order-two-census"]),
])
def test_sudoku_bounds_json_is_pinned(capsys, a, b, lower, upper, provenance):
    # one shape per branch of the construction plan and of the upper caps
    code, out, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--a", str(a), "--b", str(b)])
    assert code == 0
    assert json.loads(out) == {
        "kind": "sudoku", "a": a, "b": b, "n": a * b, "lower": lower, "upper": upper,
        "exact": lower == upper, "existence": True, "provenance": provenance}


@pytest.mark.parametrize("kind, n, value, existence, provenance", [
    ("plain", 2, 1, True, ["order-two-census"]),
    ("plain", 9, 4, True, ["half-range-cap", "max-distance-shift-fill"]),
    ("plain", 10, 4, True, ["half-range-cap", "max-distance-shift-fill"]),
    ("pandiagonal", 11, 4, True, ["diagonal-increment-cap", "pandiagonal-shift-fill"]),
    ("pandiagonal", 6, 0, False, ["divisibility-existence"]),
])
def test_order_bounds_json_is_pinned(capsys, kind, n, value, existence, provenance):
    # each branch of the plain and pandiagonal rules; an empty class is exact about nothing
    code, out, _ = run_cli(capsys, ["bounds", "--kind", kind, "--n", str(n)])
    assert code == 0
    assert json.loads(out) == {
        "kind": kind, "a": None, "b": None, "n": n, "lower": value, "upper": value,
        "exact": existence, "existence": existence, "provenance": provenance}


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
    for argv, message in [
        (["--n", "6", "--a", "2", "--b", "3"], "a block shape only applies to sudoku, not plain"),
        (["--kind", "pandiagonal", "--n", "7", "--a", "1"],
         "a block shape only applies to sudoku, not pandiagonal"),
        (["--kind", "sudoku", "--a", "2"], "--kind sudoku needs --a and --b"),
    ]:
        code, out, err = run_cli(capsys, ["search", *argv, "--min-dist", "2"])
        assert (code, out) == (2, "") and err == f"latindist: {message}\n", argv
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


@pytest.mark.parametrize("argv, query", [
    (["--n", "4", "--min-dist", "1", "--mode", "enumerate"],
     SearchQuery(n=4, min_distance=1, mode="enumerate")),
    # plain 4 d=2 and pandiagonal 4 have no squares: an empty file and an empty list
    (["--n", "4", "--min-dist", "2", "--mode", "enumerate"],
     SearchQuery(n=4, min_distance=2, mode="enumerate")),
    (["--kind", "pandiagonal", "--n", "4", "--min-dist", "1", "--mode", "enumerate"],
     SearchQuery(n=4, constraint="pandiagonal", min_distance=1, mode="enumerate")),
    (["--kind", "sudoku", "--a", "2", "--b", "3", "--min-dist", "2", "--mode", "exists"],
     SearchQuery(constraint="sudoku", shape=SudokuShape(2, 3), min_distance=2, mode="exists")),
])
def test_witness_outputs_match_the_grids_one_by_one(capsys, tmp_path, argv, query):
    wpath = tmp_path / "witnesses.txt"
    code, out, err = run_cli(capsys, ["search", *argv, "--witnesses-out", str(wpath)])
    assert (code, err) == (0, "")
    witnesses = run_search(query).witnesses
    doc = json.loads(out)
    assert doc["count"] == len(witnesses)
    assert wpath.read_bytes() == "\n".join(format_grid_text(w) for w in witnesses).encode()
    if query.mode == "enumerate":
        assert doc["witnesses"] == [w.rows() for w in witnesses]
    else:
        assert "witnesses" not in doc


@pytest.mark.parametrize("argv, query", [
    (["--n", "5", "--min-dist", "2"], SearchQuery(n=5, min_distance=2, mode="enumerate")),
    (["--kind", "sudoku", "--a", "2", "--b", "3", "--min-dist", "2"],
     SearchQuery(constraint="sudoku", shape=SudokuShape(2, 3), min_distance=2, mode="enumerate")),
    (["--kind", "sudoku", "--a", "1", "--b", "2", "--min-dist", "1"],
     SearchQuery(constraint="sudoku", shape=SudokuShape(1, 2), min_distance=1, mode="enumerate")),
    (["--n", "5", "--min-dist", "2", "--budget", "3"],
     SearchQuery(n=5, min_distance=2, mode="enumerate", node_budget=3)),
    (["--n", "5", "--min-dist", "3"], SearchQuery(n=5, min_distance=3, mode="enumerate")),
], ids=["plain-5", "sudoku-2x3", "sudoku-1x2", "starved", "no-squares"])
def test_enumerate_json_is_json_dumps_of_its_document(capsys, argv, query):
    # the witness rows are written as text in one conversion, byte for byte what
    # json.dumps writes for the same document
    code, out, err = run_cli(capsys, ["search", *argv, "--mode", "enumerate"])
    assert (code, err) == (0, "")
    result = run_search(query)
    doc = {"query": query.as_json_dict(), "count": result.count, "complete": result.complete,
           "nodes": result.nodes_expanded, "elapsed_ms": json.loads(out)["elapsed_ms"],
           "witnesses": [w.rows() for w in result.witnesses]}
    assert out == json.dumps(doc) + "\n"
    # only the --budget 3 case is starved
    assert result.complete == (query.node_budget > 3)


def test_search_keeps_the_default_budget(capsys):
    # without --budget the query keeps SearchQuery's own default
    code, out, _ = run_cli(capsys, ["search", "--n", "5", "--min-dist", "2"])
    assert code == 0
    assert json.loads(out)["query"]["node_budget"] == 1000000000 == DEFAULT_NODE_BUDGET


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


@pytest.mark.parametrize("gen_argv, argv, text_flags", [
    (["--algo", "maxdist", "--n", "9"], ["dist"], []),
    (["--algo", "maxdist", "--n", "9"], ["dist", "--format", "json"], []),
    (["--algo", "maxdist", "--n", "9"], ["canon"], []),
    (["--algo", "shiftk", "--n", "7", "--k", "3"], ["canon", "--format", "json"], []),
    # the block shape comes from the document; the text grid needs it as flags
    (["--algo", "sudoku", "--a", "2", "--b", "3"], ["check", "--kind", "sudoku"],
     ["--a", "2", "--b", "3"]),
    (["--algo", "eveneven", "--x", "2", "--y", "3"], ["check", "--kind", "sudoku"],
     ["--a", "4", "--b", "6"]),
], ids=["dist", "dist-json", "canon", "canon-json", "check-sudoku", "check-eveneven"])
def test_gen_json_output_reads_as_its_text_output(capsys, monkeypatch, tmp_path, gen_argv, argv,
                                                  text_flags):
    # --format names the output format; a grid is read as JSON when it starts with "{"
    _, text, _ = run_cli(capsys, ["gen", *gen_argv])
    want = run_cli(capsys, [*argv, *text_flags], stdin=text, monkeypatch=monkeypatch)
    assert want[0] == 0 and want[1] and want[2] == ""
    _, doc, _ = run_cli(capsys, ["gen", *gen_argv, "--format", "json"])
    assert doc.startswith("{")
    assert run_cli(capsys, argv, stdin=doc, monkeypatch=monkeypatch) == want
    path = tmp_path / "grid.json"
    path.write_text(doc)
    assert run_cli(capsys, [argv[0], str(path), *argv[1:]]) == want


def test_check_has_no_input_format_flag(capsys, monkeypatch):
    doc = json.dumps(grid_to_json(sudoku_square(2, 3), SudokuShape(2, 3)))
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, ["check", "--kind", "sudoku", "--format", "json"], stdin=doc,
                monkeypatch=monkeypatch)
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_the_first_character_after_json_whitespace_chooses_the_reader(capsys, monkeypatch):
    square = shift_by_k(5, 2)
    want = run_cli(capsys, ["dist"], stdin=format_grid_text(square), monkeypatch=monkeypatch)
    assert want[0] == 0
    doc = json.dumps(grid_to_json(square))
    for stdin in [" \t\r\n" + doc, "\n\n" + doc + "\n",
                  # comment and blank lines before a text grid, one of them holding "{"
                  "# {\"order\": 5}\n\n" + format_grid_text(square),
                  "\n# a comment\n\n  " + format_grid_text(square)]:
        assert run_cli(capsys, ["dist"], stdin=stdin, monkeypatch=monkeypatch) == want, stdin
    # JSON whitespace only: a text that starts with "{" after a form feed reads as text
    code, out, err = run_cli(capsys, ["dist"], stdin="\f" + doc, monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and err.startswith("latindist: bad token in line ")


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--min-dist", "2", "--mode", "enumerate"],
    ["--kind", "sudoku", "--a", "2", "--b", "3", "--min-dist", "2", "--mode", "enumerate"],
    ["--kind", "sudoku", "--a", "2", "--b", "3", "--min-dist", "2", "--mode", "exists"],
    ["--kind", "pandiagonal", "--n", "7", "--min-dist", "2", "--mode", "exists"],
], ids=["plain-enumerate", "sudoku-enumerate", "sudoku-exists", "pandiagonal-exists"])
def test_search_writes_its_witnesses_without_building_grids(capsys, monkeypatch, tmp_path, argv):
    want_witnesses = tmp_path / "want.txt"
    want = run_cli(capsys, ["search", *argv, "--witnesses-out", str(want_witnesses)])

    def refuse(stack):
        raise AssertionError("the CLI built SquareGrids")

    monkeypatch.setattr("latindist.grid._grids", refuse)
    monkeypatch.setattr("latindist.search._grids", refuse)
    witnesses = tmp_path / "witnesses.txt"
    code, out, err = run_cli(capsys, ["search", *argv, "--witnesses-out", str(witnesses)])
    assert (code, err) == (0, "")
    # the same document and witness file, apart from the time taken
    assert {**json.loads(out), "elapsed_ms": 0} == {**json.loads(want[1]), "elapsed_ms": 0}
    assert witnesses.read_bytes() == want_witnesses.read_bytes() != b""


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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds allocations on Linux only")
def test_running_out_of_memory_exits_5_without_a_traceback(capsys, monkeypatch):
    # a 20000 x 20000 square needs more than the 2 GB of address space the child may map
    resource = pytest.importorskip("resource")

    def lower_the_limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, hard))

    # OpenBLAS sizes its buffers by the core count; one thread keeps numpy's import small
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = _run_python("-m", "latindist.cli", "gen", "--algo", "maxdist", "--n", "20000",
                       preexec_fn=lower_the_limit)
    assert (proc.returncode, proc.stdout) == (5, "")
    assert proc.stderr.startswith("latindist: out of memory: ") and proc.stderr.count("\n") == 1

    def exhausted(args):
        # Python's own allocations raise a MemoryError with no message
        raise MemoryError

    monkeypatch.setattr("latindist.cli._cmd_bounds", exhausted)
    assert run_cli(capsys, ["bounds", "--kind", "plain", "--n", "5"]) == (
        5, "", "latindist: out of memory\n")


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
    code, out, err = run_cli(capsys, ["check", "--kind", "latin"],
                             stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("latindist: ") and err.count("\n") == 1


def test_json_float_cells_exit_2(capsys, monkeypatch):
    # 2.0 == 2, but a symbol is an int, as the order is; the grid would pass as Latin
    code, out, err = run_cli(capsys, ["check", "--kind", "latin"],
                             stdin='{"order": 2, "cells": [[2.0, 1], [1, 2]]}',
                             monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "latindist: grid entries must be integers\n")


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


def _run_python(*args: str, **options) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=60, **options)


def test_cli_start_up_does_not_import_multiprocessing(tmp_path):
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
    # nor does writing its witnesses to a file
    wpath = tmp_path / "witnesses.txt"
    proc = _run_python("-c", "import sys; from latindist.cli import main; "
                             "code = main(['search', '--n', '5', '--min-dist', '2', "
                             "'--mode', 'enumerate', '--witnesses-out', sys.argv[1]]); "
                             "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; "
                             "assert 'multiprocessing' not in sys.modules, 'imported'; "
                             "sys.exit(code)", str(wpath))
    assert proc.returncode == 0, proc.stderr
    assert len(wpath.read_text().split("\n\n")) == 20
    # a bare import of the package loads none of its modules, and no numpy
    proc = _run_python("-c", "import sys, latindist; "
                             "loaded = [m for m in sys.modules if m.startswith('latindist')]; "
                             "assert loaded == ['latindist'], loaded; "
                             "assert 'numpy' not in sys.modules, 'numpy imported'")
    assert proc.returncode == 0, proc.stderr
    # each subcommand loads cli, errors and grid, and only the modules it runs besides
    grid_file = str(FIXTURE_DIR / "order5_back_circulant.txt")
    for argv, runs in [
        (["check", "--kind", "latin", grid_file], []),
        (["dist", grid_file], ["metrics"]),
        (["canon", grid_file], ["transform"]),
        (["gen", "--algo", "maxdist", "--n", "5"], ["construct"]),
        (["bounds", "--kind", "plain", "--n", "5"], ["construct"]),
        (["search", "--n", "5", "--min-dist", "2"], ["search"]),
    ]:
        proc = _run_python("-c", "import sys; from latindist.cli import main; "
                                 "code = main(sys.argv[1:]); "
                                 "print(*sorted(m for m in sys.modules "
                                 "if m.startswith('latindist')), file=sys.stderr); "
                                 "sys.exit(code)", *argv)
        loaded = ["latindist", *(f"latindist.{m}" for m in ["cli", "errors", "grid", *runs])]
        assert (proc.returncode, proc.stderr.split()) == (0, sorted(loaded)), argv


def test_search_has_no_workers_flag():
    proc = _run_python("-m", "latindist.cli", "search", "--n", "5", "--min-dist", "2",
                       "--workers", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: latindist ")
    assert "unrecognized arguments: --workers 2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, stdin, want_code", [
    (["gen", "--algo", "maxdist", "--n", "200"], "", 0),
    (["check", "--kind", "latin"], format_grid_text(max_distance_square(9)).replace("9", "8"), 1),
    # 31 080 witnesses of 49 cells, written in two blocks
    (["search", "--n", "7", "--min-dist", "2", "--mode", "enumerate"], "", 0),
], ids=["gen", "failed-check", "search-enumerate"])
def test_a_closed_stdout_ends_the_output_quietly(argv, stdin, want_code):
    # the read end is closed before the command starts, so every write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_python("-X", "dev", "-W", "error", "-m", "latindist.cli", *argv,
                           input=stdin, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (want_code, "")


def test_stray_block_flags_are_refused(capsys, monkeypatch):
    # a lone side, sides given with another kind, or an order the shape does not make
    # were dropped by check and bounds: refused, as search refuses them
    embedded = json.dumps(grid_to_json(sudoku_square(2, 3), SudokuShape(2, 3)))
    latin = format_grid_text(shift_by_k(6, 1))
    for argv, stdin, message in [
        (["check", "--kind", "sudoku", "--a", "3"], embedded,
         "--kind sudoku needs --a and --b"),
        (["check", "--kind", "latin", "--a", "2", "--b", "3"], latin,
         "a block shape only applies to sudoku, not latin"),
        (["check", "--kind", "pandiagonal", "--b", "3"], latin,
         "a block shape only applies to sudoku, not pandiagonal"),
        (["bounds", "--kind", "sudoku", "--n", "7", "--a", "2", "--b", "3"], None,
         "order 7 does not match shape (2, 3)"),
        (["bounds", "--kind", "plain", "--n", "6", "--a", "2", "--b", "3"], None,
         "a block shape only applies to sudoku, not plain"),
        (["bounds", "--kind", "sudoku", "--a", "2"], None, "--kind sudoku needs --a and --b"),
    ]:
        code, out, err = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (2, ""), argv
        assert err == f"latindist: {message}\n", argv
    # the flags' own cases still pass: the embedded shape alone, and an order that matches
    code, out, _ = run_cli(capsys, ["check", "--kind", "sudoku"],
                           stdin=embedded, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run_cli(capsys, ["bounds", "--kind", "sudoku", "--n", "6", "--a", "2",
                                    "--b", "3"])
    assert code == 0 and json.loads(out)["n"] == 6


def test_check_refuses_flags_that_contradict_the_grids_shape(capsys, monkeypatch):
    # --a 3 --b 2 on a (2, 3) document used to validate against the flags' shape and report
    # 8 block violations: two statements of one class that disagree are refused
    square = sudoku_square(2, 3)
    embedded = json.dumps(grid_to_json(square, SudokuShape(2, 3)))
    code, out, err = run_cli(capsys, ["check", "--kind", "sudoku", "--a", "3", "--b", "2"],
                             stdin=embedded, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "latindist: shape (3, 2) does not match the grid's shape (2, 3)\n"
    # matching shapes, either shape alone, and the kinds without blocks keep their verdicts
    for argv, stdin, want in [
        (["--kind", "sudoku", "--a", "2", "--b", "3"], embedded, 0),
        (["--kind", "sudoku"], embedded, 0),
        (["--kind", "sudoku", "--a", "3", "--b", "2"], format_grid_text(square), 1),
        (["--kind", "sudoku", "--a", "3", "--b", "2"], json.dumps(grid_to_json(square)), 1),
        (["--kind", "latin"], embedded, 0),
        (["--kind", "pandiagonal"], embedded, 1),
    ]:
        code, out, err = run_cli(capsys, ["check", *argv], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, err) == (want, ""), argv
        assert json.loads(out)["verdict"] is (want == 0), argv


def test_console_script_resolves_to_main(capsys):
    # Python 3.10 has no tomllib: read the [project.scripts] entry with a regex
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    target = re.search(r'^latindist\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is main
    code, out, _ = run_cli(capsys, ["bounds", "--kind", "plain", "--n", "5"])
    assert code == 0 and json.loads(out)["lower"] == 2
