"""Batch command-line surface over the library.

Subcommands: gen, check, dist, bounds, search, canon.  check, dist and canon
read a grid from a file path or stdin, as a JSON document if it starts with
"{" after JSON whitespace and as text otherwise; --format names the output
format.  Output is deterministic; search writes its witnesses from the walk's
own array.  Each subcommand refuses the flags it does not use (`gen --algo
maxdist --n 5 --r 3` exits 2), and a stdout closed by its reader (`| head`)
ends the output quietly, with the command's own exit code.  --kind, --n, --a
and --b name a square class by the library's one class rule, and check
refuses a shape that contradicts the one its JSON grid carries.  Start-up
loads only `errors` and `grid`; each subcommand imports what it runs.

Exit codes: 0 success / verified-true, 1 verified-false (failed check or
irreducible grid), 2 usage, parse or file error, 3 provable nonexistence,
4 internal error (a constructor or the bounds table failed its own check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (GridFormatError, NonexistenceError, NotReducibleError,
                     ParameterError, UndefinedDistanceError)
from .grid import (_KINDS, SudokuShape, _grids_json, _grids_text, _square_class,
                   format_grid_text, grid_to_json, parse_grid_json, parse_grid_text,
                   validate_latin, validate_pandiagonal, validate_sudoku)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NONEXISTENT = 3
EXIT_INTERNAL = 4
MAX_TEXT_PAIRS = 100  # minimal pairs listed by dist in text mode


# each --algo: the integer flags it takes, its builder over the construct module, which
# only gen loads, and the block shape its JSON carries
_GEN_ALGOS = {
    "shift": (("n", "r", "c", "alpha", "beta"),
              lambda lib, *p: lib.algorithm1(lib.ShiftParams(*p)), None),
    "shiftk": (("n", "k"), lambda lib, *p: lib.shift_by_k(*p), None),
    "maxdist": (("n",), lambda lib, *p: lib.max_distance_square(*p), None),
    "pandiagonal": (("n",), lambda lib, *p: lib.pandiagonal_max(*p), None),
    "sudoku": (("a", "b"), lambda lib, *p: lib.sudoku_square(*p), SudokuShape),
    "eveneven": (("x", "y"), lambda lib, *p: lib.algorithm2(*p),
                 lambda x, y: SudokuShape(2 * x, 2 * y)),
}
_GEN_FLAGS = tuple(dict.fromkeys(name for names, _, _ in _GEN_ALGOS.values() for name in names))
_INT = {"type": int}
_FORMAT = {"choices": ["text", "json"], "default": "text"}


def _add_command(sub, name: str, handler, help: str, grid: bool = False, **flags) -> None:
    """Add a subcommand: its optional grid input, its flags in order, then --out.

    Each keyword names a flag (kind=... adds --kind, min_dist=... --min-dist)
    and holds its add_argument options.
    """
    command = sub.add_parser(name, help=help)
    if grid:
        command.add_argument("input", nargs="?", help="grid file (default: stdin)")
    for flag, options in flags.items():
        command.add_argument("--" + flag.replace("_", "-"), **options)
    command.add_argument("--out")
    command.set_defaults(handler=handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latindist",
        description="Construct, validate, measure, canonicalize, and search "
                    "Latin squares under the inner-distance metric.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "gen", _cmd_gen, "generate a grid and print it",
                 algo={"required": True, "choices": list(_GEN_ALGOS)},
                 **dict.fromkeys(_GEN_FLAGS, _INT), format=_FORMAT)
    _add_command(sub, "check", _cmd_check, "validate a grid; exit 0 iff it passes", grid=True,
                 kind={"required": True, "choices": ["latin", "pandiagonal", "sudoku"]},
                 a=_INT, b=_INT)
    _add_command(sub, "dist", _cmd_dist, "inner distance and distance-class census", grid=True,
                 format=_FORMAT)
    _add_command(sub, "bounds", _cmd_bounds, "proven bounds for a square class",
                 kind={"required": True, "choices": _KINDS}, n=_INT, a=_INT, b=_INT)
    _add_command(sub, "search", _cmd_search, "exhaustively count/enumerate squares",
                 kind={"choices": _KINDS, "default": "plain"}, n=_INT, a=_INT, b=_INT,
                 min_dist={"type": int, "required": True},
                 mode={"choices": ["count", "enumerate", "exists"], "default": "count"},
                 budget=_INT,
                 witnesses_out={"help": "write witnesses as a multi-grid text file "
                                        "(enumerate or exists)"})
    _add_command(sub, "canon", _cmd_canon,
                 "reduce a shift-structured square to circulant form", grid=True, format=_FORMAT)
    return parser


def _read_grid(path: str | None):
    """The grid and JSON block shape at path, or on stdin: a JSON document starts with "{"."""
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip(" \t\n\r").startswith("{"):
        return parse_grid_json(text)
    return parse_grid_text(text), None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone: drop the rest, here and at the flush on exit, and keep the
            # command's exit code
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    from . import construct

    names, build, block_shape = _GEN_ALGOS[args.algo]
    for name in _GEN_FLAGS:
        given, needed = getattr(args, name) is not None, name in names
        if given != needed:
            verb = "requires" if needed else "does not take"
            raise ParameterError(f"--algo {args.algo} {verb} --{name}")
    values = [getattr(args, name) for name in names]
    grid = build(construct, *values)
    shape = block_shape and block_shape(*values)
    if args.format == "json":
        _emit(json.dumps(grid_to_json(grid, shape)) + "\n", args.out)
    else:
        _emit(format_grid_text(grid), args.out)
    return EXIT_OK


def _flag_class(args) -> tuple[int | None, SudokuShape | None]:
    """The order and block shape that --kind, --n, --a and --b name.

    Missing flags are refused here, in the flags' words: Sudoku needs both
    sides, another kind its order, unless a grid is read, which gives the
    order and a Sudoku shape the flags leave out.  `grid._square_class`
    refuses the rest, except that check takes a Sudoku shape of any order.
    """
    n, sides, reads_grid = getattr(args, "n", None), (args.a, args.b), "input" in args
    if reads_grid and sides == (None, None):
        return None, None
    if args.kind == "sudoku" and None in sides:
        raise ParameterError("--kind sudoku needs --a and --b")
    if n is None and sides == (None, None):
        raise ParameterError(f"--kind {args.kind} needs --n")
    if reads_grid and args.kind == "sudoku":
        return None, SudokuShape(*sides)
    return _square_class(args.kind, n, *sides)


def _cmd_check(args) -> int:
    _, shape = _flag_class(args)
    grid, embedded_shape = _read_grid(args.input)
    if args.kind == "latin":
        report = validate_latin(grid)
    elif args.kind == "pandiagonal":
        report = validate_pandiagonal(grid)
    else:
        if shape and embedded_shape and shape != embedded_shape:
            raise ParameterError(f"shape ({shape.a}, {shape.b}) does not match the grid's "
                                 f"shape ({embedded_shape.a}, {embedded_shape.b})")
        shape = shape or embedded_shape
        if shape is None:
            raise ParameterError("--kind sudoku needs --a and --b (or a JSON grid with a shape)")
        report = validate_sudoku(grid, shape)
    _emit(json.dumps(report.as_json_dict()) + "\n", args.out)
    return EXIT_OK if report.verdict else EXIT_FALSE


def _cmd_dist(args) -> int:
    from .metrics import inner_distance

    grid, _ = _read_grid(args.input)
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
    from .construct import known_bounds

    _flag_class(args)
    entry = known_bounds(args.kind, n=args.n, a=args.a, b=args.b)
    _emit(json.dumps(entry.as_json_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    from .search import SearchQuery, _search

    n, shape = _flag_class(args)
    if args.witnesses_out and args.mode == "count":
        raise ParameterError("--witnesses-out needs --mode enumerate or exists: a count keeps "
                             "no squares")
    # without --budget the query keeps its own default, DEFAULT_NODE_BUDGET
    budget = {} if args.budget is None else {"node_budget": args.budget}
    query = SearchQuery(n=n, constraint=args.kind, shape=shape, min_distance=args.min_dist,
                        mode=args.mode, **budget)
    started = time.perf_counter()
    count, stack, nodes, complete = _search(query)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    doc = {"query": query.as_json_dict(), "count": count, "complete": complete, "nodes": nodes,
           "elapsed_ms": round(elapsed_ms, 3)}
    if args.witnesses_out:
        _emit(_grids_text(stack), args.witnesses_out)
    text = json.dumps(doc)
    if args.mode == "enumerate":
        # json.dumps(doc) with the rows as its last entry
        text = f'{text[:-1]}, "witnesses": {_grids_json(stack)}}}'
    _emit(text + "\n", args.out)
    return EXIT_OK


def _cmd_canon(args) -> int:
    from .transform import to_circulant_canonical

    grid, _ = _read_grid(args.input)
    canonical, perm = to_circulant_canonical(grid)
    if args.format == "json":
        doc = {"canonical": grid_to_json(canonical), "permutation": perm.as_json_dict()}
        _emit(json.dumps(doc) + "\n", args.out)
    else:
        _emit(format_grid_text(canonical) + "\n" + json.dumps(perm.as_json_dict()) + "\n",
              args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
