"""The four workloads: seeded batches of ops and the checked execution of one op.

A batch is a fixed list of slots, built from a seeded generator and the
round number.  Sorted by cost, a batch has a block of one repeated op
around the median and another around the p75 tail; those blocks and the
heavy ops are the same for every seed, while the seed picks the light
ops' inputs from wide pools.  So every batch does about the same work and
every seed loads the same layers, and the median and the tail land in the
middle of one op's samples.
Each op returns None when it succeeded, a reason string when it failed
(an incomplete search, an error the library raised, an unexpected CLI exit
code or a traceback), and raises WrongAnswer when the program answered
wrongly.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import gcd

import numpy as np

import expect as E
from expect import require

PROBE_BUDGET = 10**6
NONEXISTENT_PANDIAGONAL = (6, 8, 9, 10, 12, 14, 15, 16)


@dataclass(frozen=True)
class Op:
    label: str
    kind: str
    args: dict
    # ops of one key cost the same; the label where it is None
    key: str | None = None


# --- census: full tree walks in count and enumerate mode ---------------------


def _search_op(kind, size, d, mode, expected, source):
    shape = f"({size[0]},{size[1]})" if kind == "sudoku" else str(size)
    return Op(f"{kind}-{shape}-d{d}-{mode}", "search",
              {"kind": kind, "size": size, "d": d, "mode": mode,
               "expected": expected, "source": source})


def _pinned(kind, size, d, mode):
    count, source = E.PINNED_COUNTS[(kind, size, d)]
    return _search_op(kind, size, d, mode, count, source)


def census_batch(rng, round_) -> list[Op]:
    both = ("count", "enumerate")
    odd = rng.sample((5, 7, 9, 11, 13), 2)
    b = rng.choice((2, 3, 4))
    cap_n = rng.choice((4, 5, 6, 7, 8, 9))
    cap_p = rng.choice((5, 7, 11))
    cap = rng.choice((("plain", cap_n, E.plain_max(cap_n) + 1),
                      ("pandiagonal", cap_p, E.pandiagonal_max(cap_p) + 1),
                      ("sudoku", (3, 3), 4)))
    return [
        # light: near the ceiling, the tree collapses to a few thousand nodes
        *[_search_op("plain", n, (n - 1) // 2, rng.choice(both), E.ceiling_count(n),
                     "4n formula") for n in odd],
        _pinned("pandiagonal", *rng.choice(((5, 1), (7, 2))), rng.choice(both)),
        _pinned("sudoku", (2, b), b - 1, rng.choice(both)),
        _pinned("sudoku", (2, 5), 4, rng.choice(both)),
        _pinned("plain", rng.choice((3, 4)), 1, rng.choice(both)),
        _pinned("plain", 4, 2, "count"),
        _search_op(*cap, "count", 0, "above the proven cap"),
        _pinned("plain", 6, 2, "count"),
        # middle: the median lands in these six ops' samples
        *[_search_op("plain", 25, 12, "count", E.ceiling_count(25), "4n formula")
          for _ in range(6)],
        # ceiling of an even order; the p75 tail lands in these six ops' samples
        *[_pinned("plain", 8, 3, "count") for _ in range(6)],
        # heavy: one notch below the ceiling, deep trees
        _pinned("sudoku", (3, 3), 3, "count"),
        _pinned("pandiagonal", 13, 5, "enumerate"),
    ]


# --- probe: first witness, then stop, at a fixed node budget --------------------


def _probe(kind, size, form, d=None):
    shape = f"({size[0]},{size[1]})" if kind == "sudoku" else str(size)
    label = f"{kind}-{shape}-{form}" + ("" if d is None else f"-d{d}")
    return Op(label, "probe", {"kind": kind, "size": size, "form": form, "d": d})


# sudoku (3,6) is open: known bounds [6, 7], and the search starts at 7
STARVED = ((_probe("sudoku", (3, 4), "max"), _probe("sudoku", (4, 4), "exists", 6)),
           (_probe("sudoku", (3, 5), "exists", 6), _probe("sudoku", (3, 6), "max")),
           (_probe("pandiagonal", 17, "max"), _probe("plain", 28, "exists", 13)))


def _max_or_exists(rng, kind, size, top):
    """A max_distance_via_search probe, or an exists probe at the known maximum."""
    if rng.random() < 0.5:
        return _probe(kind, size, "max")
    return _probe(kind, size, "exists", top)


def probe_batch(rng, round_) -> list[Op]:
    odd = rng.randrange(5, 32, 2)
    even = rng.randrange(4, 13, 2)
    small_p = rng.choice((5, 7))
    b = rng.randrange(2, 7)
    cap_n = rng.randrange(10, 33)
    cap_p = rng.choice((5, 7, 11, 13, 17))
    cap_check = rng.choice((_probe("plain", cap_n, "exists", E.plain_max(cap_n) + 1),
                            _probe("pandiagonal", cap_p, "exists", E.pandiagonal_max(cap_p) + 1),
                            _probe("pandiagonal", rng.choice(NONEXISTENT_PANDIAGONAL), "max")))
    return [
        # light: answered within milliseconds
        _max_or_exists(rng, "plain", odd, E.plain_max(odd)),
        _max_or_exists(rng, "plain", even, E.plain_max(even)),
        # recursion depth n^2 - n exceeds the interpreter limit from n = 33 on
        _probe("plain", 33, "exists", 16),
        _max_or_exists(rng, "pandiagonal", small_p, E.pandiagonal_max(small_p)),
        _max_or_exists(rng, "sudoku", (2, b), b - 1),
        _max_or_exists(rng, "sudoku", (3, 3), 3),
        cap_check,
        _max_or_exists(rng, "pandiagonal", 11, 4),
        # From here on the node budget is split over so many first rows that the
        # searches starve.  The median lands in these six ops' samples,
        *[_probe("pandiagonal", 13, "max") for _ in range(6)],
        # the p75 tail in these five,
        *[_probe("plain", 22, "exists", 10) for _ in range(5)],
        # and each round takes its own two of the heaviest, the same for every seed.
        *STARVED[round_ % len(STARVED)],
    ]


# --- build-verify: construct, validate, measure, canonicalise, round-trip ----------

# (a, b) shapes with a*b from 100 to 150, covering every branch of the Sudoku dispatch
SUDOKU_SHAPES = ((2, 55), (2, 63), (9, 11), (11, 13), (7, 17), (10, 10), (12, 12), (8, 16),
                 (9, 14), (7, 20), (5, 22), (11, 12), (16, 8), (13, 11))


def _build(rng, family, size, corrupted=False):
    label = f"{family}-{size}" + ("-corrupt" if corrupted else "")
    args = {"family": family, "size": size, "corrupt": 0, "seed": rng.randrange(2**32)}
    if corrupted:
        args["corrupt"] = rng.randint(1, 4)
    return Op(label, "build", args)


def build_batch(rng, round_) -> list[Op]:
    family = rng.choice(("maxdist", "pandiagonal", "sudoku"))
    sizes = {"maxdist": rng.randint(101, 200),
             "pandiagonal": rng.choice([n for n in range(101, 201) if E.pandiagonal_exists(n)]),
             "sudoku": rng.choice(SUDOKU_SHAPES)}
    return [
        # light: a corrupted copy has few minimum-distance pairs, so the metric is cheap
        *[_build(rng, family, sizes[family], corrupted=True) for _ in range(3)],
        *[_build(rng, "sudoku", rng.choice(SUDOKU_SHAPES)) for _ in range(4)],
        # middle: the median lands in these six ops' samples
        *[_build(rng, "pandiagonal", 151) for _ in range(6)],
        # every adjacent pair ties at the minimum; the p75 tail lands in these six
        # ops' samples
        *[_build(rng, "maxdist", 162) for _ in range(6)],
        _build(rng, "maxdist", 250),
    ]


# --- cli-roundtrip: one `python -m latindist.cli` process per op ----------------------


def _cli(label, argv, code, check, stdin="", key=None):
    """A CLI op; `code` is the expected exit code, None where the verdict decides it.

    Start-up dominates a CLI op, so ops that differ only in small inputs share a key.
    """
    return Op(label, "cli", {"argv": argv, "code": code, "check": check, "stdin": stdin}, key)


def _unit(rng, n):
    return rng.choice([r for r in range(1, n) if gcd(r, n) == 1])


def cli_batch(rng, round_) -> list[Op]:
    ops = []
    for _ in range(2):
        gen_args, fixture = rng.choice(E.GOLDEN_GEN)
        n = rng.randrange(5, 41)
        shift_n = rng.choice((7, 11, 13, 17, 19, 23))
        shift = E.shift_square(shift_n, _unit(rng, shift_n), _unit(rng, shift_n))
        broken = E.corrupt(shift, rng, rng.randint(1, 3))
        kind = rng.choice(("latin", "pandiagonal"))
        count_n = rng.choice((5, 7, 9, 11))
        bounds = rng.choice((["--kind", "plain", "--n", str(n)],
                             ["--kind", "pandiagonal", "--n", str(n)],
                             ["--kind", "sudoku", "--a", str(rng.randint(2, 9)),
                              "--b", str(rng.randint(2, 12))]))
        ops += [
            _cli(f"gen-{fixture}", ["gen", *gen_args], 0, ("golden", fixture), key="gen-golden"),
            _cli(f"gen-maxdist-{n}", ["gen", "--algo", "maxdist", "--n", str(n)], 0,
                 ("maxdist", n), key="gen-maxdist"),
            _cli(f"check-{kind}-{shift_n}", ["check", "--kind", kind], None,
                 ("verdict", kind, None), E.grid_text(shift), key="check"),
            _cli(f"check-corrupt-{shift_n}", ["check", "--kind", "latin"], None,
                 ("verdict", "latin", None), E.grid_text(broken), key="check-corrupt"),
            _cli(f"dist-{shift_n}", ["dist", "--format", "json"], 0, ("dist",),
                 E.grid_text(rng.choice((shift, broken))), key="dist"),
            _cli(f"canon-{shift_n}", ["canon"], 0, ("canon",), E.grid_text(shift), key="canon"),
            _cli(f"bounds-{'-'.join(bounds[1::2])}", ["bounds", *bounds], 0,
                 ("bounds", bounds), key="bounds"),
            _cli(f"search-plain-{count_n}", ["search", "--n", str(count_n), "--min-dist",
                                             str((count_n - 1) // 2)], 0,
                 ("search", E.ceiling_count(count_n)), key="search-ceiling"),
        ]
    fixture_sudoku = rng.choice((("order9_sudoku_3x3.txt", 3, 3), ("order16_sudoku_4x4.txt", 4, 4)))
    shift_n = rng.choice((7, 11, 13, 17, 19, 23))
    broken = E.corrupt(E.shift_square(shift_n, _unit(rng, shift_n), _unit(rng, shift_n)), rng,
                       rng.randint(1, 3))
    return ops + [
        _cli("gen-pandiagonal-nonexistent",
             ["gen", "--algo", "pandiagonal", "--n", str(rng.choice(NONEXISTENT_PANDIAGONAL))],
             3, ("empty",), key="gen-pandiagonal-nonexistent"),
        _cli(f"check-{fixture_sudoku[0]}",
             ["check", str(E.FIXTURE_DIR / fixture_sudoku[0]), "--kind", "sudoku",
              "--a", str(fixture_sudoku[1]), "--b", str(fixture_sudoku[2])], None,
             ("verdict", "sudoku", fixture_sudoku), key="check-sudoku-fixture"),
        _cli(f"canon-corrupt-{shift_n}", ["canon"], 1, ("empty",), E.grid_text(broken),
             key="canon-corrupt"),
        # exists probe at the n=33 ceiling: crashes in the recursive search today
        _cli("search-plain-33-exists", ["search", "--n", "33", "--min-dist", "16",
                                        "--mode", "exists"], 0, ("search", 1)),
    ]


BATCHES = {"census": census_batch, "probe": probe_batch,
           "build-verify": build_batch, "cli-roundtrip": cli_batch}

# Layers each workload calls into, for the record in every result.
LAYERS_LOADED = {"census": ("search",), "probe": ("search",),
                 "build-verify": ("construct", "grid", "metrics", "transform"),
                 "cli-roundtrip": ("cli",)}


class Runner:
    """Executes ops against the latindist modules through the benchmark's `Calls`.

    `code` is the directory latindist is imported from: the checkout's `src`
    or the reference copy.

    The CLI workload never imports the library in this process: its users
    pay for that import in every CLI process, not here.
    """

    def __init__(self, workload, calls, code):
        self.workload = workload
        self.calls = calls
        self.code = code
        if workload == "cli-roundtrip":
            return
        from latindist import construct, errors, grid, metrics, search, transform
        self.construct, self.errors, self.grid = construct, errors, grid
        self.metrics, self.search, self.transform = metrics, search, transform

    def warm_up(self):
        """One untimed call on the workload's path, so lazy set-up is done before timing."""
        if self.workload == "cli-roundtrip":
            proc = self.cli_process(["bounds", "--kind", "plain", "--n", "5"], "")
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up CLI call failed: {proc.stderr.strip()}")
        elif self.workload == "build-verify":
            self.metrics.inner_distance(self.construct.max_distance_square(31))
        elif self.workload == "probe":
            self.search.max_distance_via_search("plain", 7, node_budget=PROBE_BUDGET)
        else:
            self.search.run_search(self.search.SearchQuery(n=5, min_distance=2))

    def count_search_calls(self):
        """Count nodes of every run_search call, also those max_distance_via_search makes."""
        original = self.search.run_search
        calls = self.calls

        @functools.wraps(original)
        def run_search(query, workers=1):
            result = original(query, workers)
            calls.count("search.nodes", result.nodes_expanded)
            calls.count("search.witnesses", len(result.witnesses))
            if not result.complete:
                calls.count("search.incomplete")
                calls.count("search.incomplete_nodes", result.nodes_expanded)
                calls.count("search.incomplete_budget", query.node_budget)
            return result

        self.search.run_search = run_search

    def run(self, op: Op):
        return getattr(self, f"_{op.kind}")(op)

    # search ops -------------------------------------------------------------

    def _query(self, kind, size, d, mode, budget=None):
        extra = {} if budget is None else {"node_budget": budget}
        if kind == "sudoku":
            return self.search.SearchQuery(constraint="sudoku", shape=self.grid.SudokuShape(*size),
                                           min_distance=d, mode=mode, **extra)
        return self.search.SearchQuery(n=size, constraint=kind, min_distance=d, mode=mode, **extra)

    def _check_witnesses(self, result, kind, size, d, what):
        n = size[0] * size[1] if kind == "sudoku" else size
        stack = np.array([w.cells for w in result.witnesses], dtype=np.int64).reshape(-1, n, n)
        E.check_witnesses(stack, kind, size if kind == "sudoku" else None, d, what)

    def _search(self, op):
        a = op.args
        query = self._query(a["kind"], a["size"], a["d"], a["mode"])
        result = self.calls.call("search.run_search", self.search.run_search, query)
        if not result.complete:
            return "incomplete"
        require(result.count == a["expected"],
                f"{op.label}: count {result.count}, expected {a['expected']} ({a['source']})")
        if a["mode"] == "enumerate":
            require(len(result.witnesses) == result.count, f"{op.label}: witness list length")
            self._check_witnesses(result, a["kind"], a["size"], a["d"], op.label)
        return None

    def _probe(self, op):
        a = op.args
        kind, size = a["kind"], a["size"]
        if a["form"] == "exists":
            query = self._query(kind, size, a["d"], "exists", PROBE_BUDGET)
            result = self.calls.call("search.run_search", self.search.run_search, query)
            if not result.complete:
                return "incomplete"
            self._check_exists(op, result)
            return None
        try:
            got = self.calls.call("search.max_distance_via_search",
                                  self.search.max_distance_via_search, kind, size,
                                  node_budget=PROBE_BUDGET)
        except self.errors.NonexistenceError:
            require(kind == "pandiagonal" and not E.pandiagonal_exists(size),
                    f"{op.label}: nonexistence claimed for an existing class")
            return None
        require(kind != "pandiagonal" or E.pandiagonal_exists(size),
                f"{op.label}: answered for an empty class")
        lower, upper = E.max_range(kind, size)
        require(lower <= got <= upper, f"{op.label}: maximum {got} outside [{lower}, {upper}]")
        return None

    def _check_exists(self, op, result):
        a = op.args
        kind, size, d = a["kind"], a["size"], a["d"]
        lower, upper = E.max_range(kind, size)
        if d > upper:
            require(result.count == 0, f"{op.label}: found a square above the proven cap")
        elif d <= lower:
            require(result.count == 1, f"{op.label}: no square found at a constructible distance")
        if result.count:
            require(len(result.witnesses) == 1, f"{op.label}: exists mode returns one witness")
            self._check_witnesses(result, kind, size, d, op.label)

    # build-verify ops ---------------------------------------------------------

    def _build(self, op):
        a = op.args
        family, size = a["family"], a["size"]
        calls, G = self.calls, self.grid
        if family == "maxdist":
            grid = calls.call("construct.max_distance_square",
                              self.construct.max_distance_square, size)
            kind, shape, target = "plain", None, E.plain_max(size)
        elif family == "pandiagonal":
            grid = calls.call("construct.pandiagonal_max", self.construct.pandiagonal_max, size)
            kind, shape, target = "pandiagonal", None, E.pandiagonal_max(size)
        else:
            grid = calls.call("construct.sudoku_square", self.construct.sudoku_square, *size)
            kind, shape, target = "sudoku", size, E.sudoku_bounds(*size)[0]
        cells = np.array(grid.cells, dtype=np.int64)
        n = cells.shape[0]
        calls.count("construct.calls")
        calls.count("construct.cells", n * n)
        E.check_square(cells, kind, shape, target, op.label)
        if a["corrupt"]:
            cells = E.corrupt(cells, random.Random(a["seed"]), a["corrupt"])
            grid = G.SquareGrid(cells)

        if kind == "plain":
            report = calls.call("grid.validate_latin", G.validate_latin, grid)
        elif kind == "pandiagonal":
            report = calls.call("grid.validate_pandiagonal", G.validate_pandiagonal, grid)
        else:
            report = calls.call("grid.validate_sudoku", G.validate_sudoku, grid,
                                G.SudokuShape(*shape))
        duplicates = E.duplicate_count(cells, kind, shape)
        require(report.verdict == (duplicates == 0) and len(report.violations) == duplicates,
                f"{op.label}: validator found {len(report.violations)} violations, "
                f"expected {duplicates}")
        calls.count("grid.validate.cells", n * n)
        calls.count("grid.validate.violations", len(report.violations))

        dist = calls.call("metrics.inner_distance", self.metrics.inner_distance, grid)
        census = E.distance_census(cells)
        best = min(census)
        require(dist.inner_distance == best and dict(dist.realized_classes) == census
                and len(dist.argmin_pairs) == census[best],
                f"{op.label}: distance report disagrees with the adjacent-pair census")
        require(a["corrupt"] or best == target, f"{op.label}: distance {best}, expected {target}")
        calls.count("metrics.pairs", 2 * n * (n - 1))
        calls.count("metrics.argmin_pairs", len(dist.argmin_pairs))

        self._canon(op, grid, cells)
        self._round_trip(op, grid, cells)
        return None

    def _canon(self, op, grid, cells):
        n = cells.shape[0]
        try:
            canonical, perm = self.calls.call("transform.to_circulant_canonical",
                                              self.transform.to_circulant_canonical, grid)
        except self.errors.NotReducibleError:
            self.calls.count("transform.not_reducible")
            require(not E.is_additive(cells), f"{op.label}: reducible square rejected")
            return
        reference = E.circulant(n)
        require(E.is_additive(cells), f"{op.label}: non-additive square reduced")
        require(np.array_equal(canonical.cells, reference)
                and np.array_equal(E.apply_triple(cells, perm.rows, perm.cols, perm.symbols),
                                   reference),
                f"{op.label}: canonical form or permutation wrong")

    def _round_trip(self, op, grid, cells):
        calls, G = self.calls, self.grid
        text = calls.call("grid.format_grid_text", G.format_grid_text, grid)
        require(text == E.grid_text(cells), f"{op.label}: text format differs")
        back = calls.call("grid.parse_grid_text", G.parse_grid_text, text)
        doc = calls.call("grid.grid_to_json", G.grid_to_json, grid)
        js = json.dumps(doc)
        again, _ = calls.call("grid.parse_grid_json", G.parse_grid_json, js)
        require(np.array_equal(back.cells, cells) and np.array_equal(again.cells, cells),
                f"{op.label}: round trip changed the grid")
        calls.count("grid.io.bytes", len(text) + len(js))

    # cli ops -------------------------------------------------------------------

    def cli_process(self, argv, stdin):
        env = dict(os.environ, PYTHONPATH=str(self.code))
        return subprocess.run([sys.executable, "-m", "latindist.cli", *argv], input=stdin,
                              capture_output=True, text=True, cwd=self.code.parent, env=env,
                              timeout=120)

    def _cli(self, op):
        a = op.args
        sub = a["argv"][0]
        proc = self.calls.call(f"cli.{sub}", self.cli_process, a["argv"], a["stdin"])
        self.calls.count("cli.bytes_out", len(proc.stdout))
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            return f"traceback: {last.split(':', 1)[0]}"
        check, *params = a["check"]
        expected = a["code"]
        if check == "verdict":
            expected = self._cli_verdict(op, proc.stdout, *params)
        elif check == "empty":
            require(proc.stdout == "", f"{op.label}: printed a result")
        elif proc.stdout:
            failure = getattr(self, f"_cli_{check}")(op, proc.stdout, *params)
            if failure:
                return failure
        if proc.returncode != expected:
            return f"exit {proc.returncode}, expected {expected}"
        return None

    def _cli_verdict(self, op, out, kind, fixture):
        """Checks a `check` report; returns the exit code the verdict calls for."""
        if fixture is None:
            cells = E.parse_text(op.args["stdin"])
            shape = None
        else:
            cells = E.parse_text((E.FIXTURE_DIR / fixture[0]).read_text())
            shape = fixture[1:]
        kind = "plain" if kind == "latin" else kind
        duplicates = E.duplicate_count(cells, kind, shape)
        if out:
            report = json.loads(out)
            require(report["verdict"] == (duplicates == 0)
                    and len(report["violations"]) == duplicates,
                    f"{op.label}: check verdict disagrees with {duplicates} duplicates")
        return 0 if duplicates == 0 else 1

    def _cli_golden(self, op, out, fixture):
        require(out == E.golden_text(fixture), f"{op.label}: output differs from {fixture}")

    def _cli_maxdist(self, op, out, n):
        E.check_square(E.parse_text(out), "plain", None, E.plain_max(n), op.label)

    def _cli_dist(self, op, out):
        cells = E.parse_text(op.args["stdin"])
        census = E.distance_census(cells)
        doc = json.loads(out)
        got = {c["distance"]: c["pairs"] for c in doc["classes"]}
        require(doc["inner_distance"] == min(census) and got == census
                and len(doc["argmin_pairs"]) == census[min(census)],
                f"{op.label}: distance report disagrees with the adjacent-pair census")

    def _cli_canon(self, op, out):
        lines = [line for line in out.splitlines() if line.strip()]
        cells = E.parse_text(op.args["stdin"])
        n = cells.shape[0]
        canonical = E.parse_text("\n".join(lines[:n]))
        perm = json.loads(lines[n])
        require(np.array_equal(canonical, E.circulant(n))
                and np.array_equal(E.apply_triple(cells, perm["rows"], perm["cols"],
                                                  perm["symbols"]), E.circulant(n)),
                f"{op.label}: canonical form or permutation wrong")

    def _cli_bounds(self, op, out, argv):
        doc = json.loads(out)
        kind = argv[1]
        if kind == "plain":
            n = int(argv[3])
            want = (E.plain_max(n), E.plain_max(n), True)
        elif kind == "pandiagonal":
            n = int(argv[3])
            if not E.pandiagonal_exists(n):
                require(doc["existence"] is False, f"{op.label}: empty class reported as existing")
                return
            want = (E.pandiagonal_max(n), E.pandiagonal_max(n), True)
        else:
            lower, upper = E.sudoku_bounds(int(argv[3]), int(argv[5]))
            want = (lower, upper, lower == upper)
        require((doc["lower"], doc["upper"], doc["exact"]) == want,
                f"{op.label}: bounds {doc['lower']}..{doc['upper']}, expected {want}")

    def _cli_search(self, op, out, expected):
        doc = json.loads(out)
        if not doc["complete"]:
            return "incomplete"
        require(doc["count"] == expected, f"{op.label}: count {doc['count']}, expected {expected}")
