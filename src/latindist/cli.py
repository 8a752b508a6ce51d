"""Batch command-line surface over the library.

Subcommands: gen, check, dist, bounds, search, canon.  Grid-consuming
commands read a file path or stdin; everything is deterministic, so
generated output is byte-identical across runs.

Exit codes: 0 success / verified-true, 1 verified-false (failed check or
irreducible grid), 2 usage, parse or file error, 3 provable nonexistence,
4 internal error (a constructor or the bounds table failed its own check).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .construct import (ShiftParams, algorithm1, algorithm2, known_bounds,
                        max_distance_square, pandiagonal_max, shift_by_k,
                        sudoku_square)
from .errors import (GridFormatError, NonexistenceError, NotReducibleError,
                     ParameterError, UndefinedDistanceError)
from .grid import (SudokuShape, format_grid_text, grid_to_json,
                   parse_grid_json, parse_grid_text, validate_latin,
                   validate_pandiagonal, validate_sudoku)
from .metrics import inner_distance
from .search import DEFAULT_NODE_BUDGET, SearchQuery, run_search
from .transform import to_circulant_canonical

__all__ = ["main"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NONEXISTENT = 3
EXIT_INTERNAL = 4
MAX_TEXT_PAIRS = 100  # minimal pairs listed by dist in text mode


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latindist",
        description="Construct, validate, measure, canonicalize, and search "
                    "Latin squares under the inner-distance metric.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a grid and print it")
    gen.add_argument("--algo", required=True,
                     choices=["shift", "shiftk", "maxdist", "pandiagonal", "sudoku", "eveneven"])
    for flag in ("--n", "--r", "--c", "--alpha", "--beta", "--k", "--a", "--b", "--x", "--y"):
        gen.add_argument(flag, type=int)
    gen.add_argument("--format", choices=["text", "json"], default="text")
    gen.add_argument("--out")

    check = sub.add_parser("check", help="validate a grid; exit 0 iff it passes")
    check.add_argument("input", nargs="?", help="grid file (default: stdin)")
    check.add_argument("--kind", required=True, choices=["latin", "pandiagonal", "sudoku"])
    check.add_argument("--a", type=int)
    check.add_argument("--b", type=int)
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="input format")
    check.add_argument("--out")

    dist = sub.add_parser("dist", help="inner distance and distance-class census")
    dist.add_argument("input", nargs="?")
    dist.add_argument("--format", choices=["text", "json"], default="text")
    dist.add_argument("--out")

    bounds = sub.add_parser("bounds", help="proven bounds for a square class")
    bounds.add_argument("--kind", required=True, choices=["plain", "pandiagonal", "sudoku"])
    bounds.add_argument("--n", type=int)
    bounds.add_argument("--a", type=int)
    bounds.add_argument("--b", type=int)
    bounds.add_argument("--out")

    search = sub.add_parser("search", help="exhaustively count/enumerate squares")
    search.add_argument("--kind", choices=["plain", "pandiagonal", "sudoku"], default="plain")
    search.add_argument("--n", type=int)
    search.add_argument("--a", type=int)
    search.add_argument("--b", type=int)
    search.add_argument("--min-dist", type=int, required=True)
    search.add_argument("--mode", choices=["count", "enumerate", "exists"], default="count")
    search.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    search.add_argument("--witnesses-out",
                        help="write witnesses as a multi-grid text file (enumerate or exists)")
    search.add_argument("--out")

    canon = sub.add_parser("canon", help="reduce a shift-structured square to circulant form")
    canon.add_argument("input", nargs="?")
    canon.add_argument("--format", choices=["text", "json"], default="text")
    canon.add_argument("--out")

    return parser


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_grid(text: str, fmt: str):
    if fmt == "json":
        return parse_grid_json(text)
    return parse_grid_text(text), None


def _require(args, names: list[str], algo: str) -> list[int]:
    values = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            raise ParameterError(f"--algo {algo} requires --{name}")
        values.append(value)
    return values


def _cmd_gen(args) -> int:
    shape = None
    if args.algo == "shift":
        n, r, c, alpha, beta = _require(args, ["n", "r", "c", "alpha", "beta"], "shift")
        grid = algorithm1(ShiftParams(n, r, c, alpha, beta))
    elif args.algo == "shiftk":
        n, k = _require(args, ["n", "k"], "shiftk")
        grid = shift_by_k(n, k)
    elif args.algo == "maxdist":
        (n,) = _require(args, ["n"], "maxdist")
        grid = max_distance_square(n)
    elif args.algo == "pandiagonal":
        (n,) = _require(args, ["n"], "pandiagonal")
        grid = pandiagonal_max(n)
    elif args.algo == "sudoku":
        a, b = _require(args, ["a", "b"], "sudoku")
        grid = sudoku_square(a, b)
        shape = SudokuShape(a, b)
    else:  # eveneven
        x, y = _require(args, ["x", "y"], "eveneven")
        grid = algorithm2(x, y)
        shape = SudokuShape(2 * x, 2 * y)
    if args.format == "json":
        _emit(json.dumps(grid_to_json(grid, shape)) + "\n", args.out)
    else:
        _emit(format_grid_text(grid), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    grid, embedded_shape = _parse_grid(_read_input(args.input), args.format)
    if args.kind == "latin":
        report = validate_latin(grid)
    elif args.kind == "pandiagonal":
        report = validate_pandiagonal(grid)
    else:
        if args.a is not None and args.b is not None:
            shape = SudokuShape(args.a, args.b)
        elif embedded_shape is not None:
            shape = embedded_shape
        else:
            raise ParameterError("--kind sudoku needs --a and --b (or a JSON grid with a shape)")
        report = validate_sudoku(grid, shape)
    _emit(json.dumps(report.as_json_dict()) + "\n", args.out)
    return EXIT_OK if report.verdict else EXIT_FALSE


def _cmd_dist(args) -> int:
    grid, _ = _parse_grid(_read_input(args.input), "text")
    report = inner_distance(grid)
    if args.format == "json":
        _emit(json.dumps(report.as_json_dict()) + "\n", args.out)
    else:
        lines = [f"inner distance: {report.inner_distance}"]
        census = ", ".join(f"{d}x{c}" for d, c in report.realized_classes)
        lines.append(f"distance classes (value x pairs): {census}")
        pairs = report.argmin_pairs[:MAX_TEXT_PAIRS].tolist()
        pair_text = "; ".join(f"({p[0]},{p[1]})-({q[0]},{q[1]})" for p, q in pairs)
        lines.append(f"minimum achieved at: {pair_text}")
        if len(report.argmin_pairs) > MAX_TEXT_PAIRS:
            lines.append(f"... and {len(report.argmin_pairs) - MAX_TEXT_PAIRS} more "
                         "(--format json lists them all)")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.kind == "sudoku":
        entry = known_bounds("sudoku", a=args.a, b=args.b)
    else:
        entry = known_bounds(args.kind, n=args.n)
    _emit(json.dumps(entry.as_json_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.kind == "sudoku" and (args.a is None or args.b is None):
        raise ParameterError("--kind sudoku needs --a and --b")
    if args.kind != "sudoku" and args.n is None:
        raise ParameterError(f"--kind {args.kind} needs --n")
    if args.witnesses_out and args.mode == "count":
        raise ParameterError("--witnesses-out needs --mode enumerate or exists: a count keeps "
                             "no squares")
    # block sides given with another kind make a shape that SearchQuery rejects
    shape = None if args.a is None and args.b is None else SudokuShape(args.a, args.b)
    query = SearchQuery(n=args.n, constraint=args.kind, shape=shape,
                        min_distance=args.min_dist, mode=args.mode,
                        node_budget=args.budget)
    started = time.perf_counter()
    result = run_search(query)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    doc = {"query": query.as_json_dict(), "count": result.count,
           "complete": result.complete, "nodes": result.nodes_expanded,
           "elapsed_ms": round(elapsed_ms, 3)}
    if args.mode == "enumerate":
        doc["witnesses"] = [w.rows() for w in result.witnesses]
    if args.witnesses_out:
        _emit("\n".join(format_grid_text(w) for w in result.witnesses), args.witnesses_out)
    _emit(json.dumps(doc) + "\n", args.out)
    return EXIT_OK


def _cmd_canon(args) -> int:
    grid, _ = _parse_grid(_read_input(args.input), "text")
    canonical, perm = to_circulant_canonical(grid)
    if args.format == "json":
        doc = {"canonical": grid_to_json(canonical), "permutation": perm.as_json_dict()}
        _emit(json.dumps(doc) + "\n", args.out)
    else:
        _emit(format_grid_text(canonical) + "\n" + json.dumps(perm.as_json_dict()) + "\n",
              args.out)
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "dist": _cmd_dist,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "canon": _cmd_canon,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NonexistenceError as exc:
        print(f"latindist: {exc}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except NotReducibleError as exc:
        print(f"latindist: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (GridFormatError, ParameterError, UndefinedDistanceError,
            OSError, UnicodeDecodeError) as exc:
        print(f"latindist: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # a constructor's self-check or an inconsistent bounds entry: a bug, not bad input
        print(f"latindist: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
