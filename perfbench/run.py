"""latindist benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 24 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics with the tracing overhead.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds the details (environment, sample counts, raw times,
failing ops).  A wrong answer from the program ends the run with exit
code 1 and no result line.

The run is a duet.  Two worker processes run the same seeded ops in
turn, one op at a time: one imports latindist from `src/` (the code under
test), the other from `perfbench/reference/` (a frozen copy of the seed
commit's library, which nothing may edit).  Only one of them works at any
moment.  The reference is a clock.  A shared machine's speed drifts by up
to 1.5x, over seconds and over minutes, but the two runs of one op, made
back to back, see the same machine; so an op's latency is reported as
(its time / the reference's time for the same op) x the reference's
nominal latency for that op, from `perfbench/nominal.json`.  Ops without
a nominal latency (inputs the seed picks from a wide pool) are scaled by
the run's clock factor instead.  The unscaled times are in the details.
With --trace 1 the second worker is the code under test itself, untraced,
so the pair gives the tracing overhead.

A run is a fixed number of rounds, each with a fresh pair of workers, plus
pairs that only set up, so that set-up is timed several times; each round
runs passes sized from --seconds, and each pass is a batch of ops
generated from the seed.  Every run of a workload and seed does the same
work, so sample counts, percentiles, peak memory and traced counts
compare exactly.  Each op is timed over its calls into the program only;
the benchmark's own checks run outside the timed region.  Workers run
with PYTHONHASHSEED=0, so string hashing, and with it the layout of the
program's dicts, is the same in every run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CODE = {"cur": ROOT / "src", "ref": ROOT / "perfbench" / "reference"}

from expect import WrongAnswer  # noqa: E402
from tracing import LAYERS, Calls, busy_by_name, self_times  # noqa: E402
from workloads import BATCHES, LAYERS_LOADED, Runner  # noqa: E402

HOLD_OUT_SEED = 9137
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# Fresh worker pairs per run; a CLI op starts its own process, so two rounds suffice there.
ROUNDS = {"census": 3, "probe": 3, "build-verify": 3, "cli-roundtrip": 2}
# Set-ups timed per side and run: one per round, the rest by pairs that only set up.
SETUPS = 5
RUN_TIMEOUT_S = 170
CLI_SUBCOMMANDS = ("gen", "check", "dist", "canon", "bounds", "search")
# The reference's nominal latencies, measured by calibrate.py; they set the unit of
# every time the benchmark reports.
NOMINAL_FILE = ROOT / "perfbench" / "nominal.json"
NOMINAL = json.loads(NOMINAL_FILE.read_text()) if NOMINAL_FILE.is_file() else {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: serve one round's ops in this process
    parser.add_argument("--worker", choices=sorted(CODE), help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def passes_per_round(workload, seconds):
    """Passes per round so that a run of both workers takes about `seconds`."""
    rounds, nominal = ROUNDS[workload], NOMINAL[workload]
    work = seconds - SETUPS * 2 * nominal["setup_s"]
    return max(1, int(work / (rounds * 2 * nominal["pass_s"])))


def make_batch(workload, seed, round_, pass_):
    rng = random.Random(f"{seed}:{round_}:{pass_}")
    batch = BATCHES[workload](rng, round_)
    rng.shuffle(batch)
    return batch


# --- worker: one round's ops in a fresh process ----------------------------------


def emit(doc):
    print(json.dumps(doc), flush=True)


def run_op(runner, op, op_id=0, traced=False):
    """Run one op; returns its latency and the reason it failed, or None.

    A wrong answer raises WrongAnswer; any other exception is a failed op.
    """
    calls = runner.calls
    calls.tracing = traced
    calls.begin_op(op_id)
    try:
        reason = runner.run(op)
    except WrongAnswer:
        raise
    except Exception as exc:
        reason = type(exc).__name__
    return calls.op_busy, reason


def serve(args):
    """Set up as a user pays it (import, seeded inputs, one warm-up call), then run
    the ops the parent process names on standard input, one line each."""
    code = CODE[args.worker]
    sys.path.insert(1, str(code))
    calls = Calls(tracing=False)
    runner = Runner(args.workload, calls, code)
    if args.workload != "cli-roundtrip":
        import latindist
        if not Path(latindist.__file__).resolve().is_relative_to(code):
            raise SystemExit(f"latindist imported from {latindist.__file__}, not {code}")
    batches = [make_batch(args.workload, args.seed, args.round, p) for p in range(args.passes)]
    runner.warm_up()
    emit({"setup_s": time.monotonic() - args.t0, "sizes": [len(b) for b in batches]})
    if args.trace and args.workload != "cli-roundtrip":
        runner.count_search_calls()
    traced_wall = 0.0
    for line in sys.stdin:
        word, *rest = line.split()
        if word == "end":
            break
        p, i, traced = (int(x) for x in rest)
        op = batches[p][i]
        start = time.perf_counter()
        try:
            latency, reason = run_op(runner, op, p * 1000 + i, bool(traced))
        except WrongAnswer as exc:
            emit({"wrong": str(exc)})
            return 1
        if traced:
            traced_wall += time.perf_counter() - start
        emit({"t": latency, "label": op.label, "key": op.key or op.label, "fail": reason})
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-roundtrip" else resource.RUSAGE_SELF
    doc = {"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        calls.write(OUT / f"{args.workload}-seed{args.seed}-round{args.round}-spans.json")
        doc["trace"] = {
            "wall": traced_wall, "busy": busy_by_name(calls.spans),
            "self": self_times(calls.spans), "counters": calls.counters,
            "cli_ms": {sub: [(end - start) * 1e3 for name, start, end, _, _ in calls.spans
                             if name == f"cli.{sub}"] for sub in CLI_SUBCOMMANDS}}
    emit(doc)
    return 0


class Worker:
    """A worker process of one round, driven line by line."""

    def __init__(self, args, code, round_, passes):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--trace", str(args.trace), "--worker", code,
                "--round", str(round_), "--passes", str(passes), "--t0", repr(time.monotonic())]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"))
        try:
            ready = self.read()
        except BaseException:
            self.stop()
            raise
        self.setup_s, self.sizes = ready["setup_s"], ready["sizes"]

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited with {self.proc.wait()}")
        doc = json.loads(line)
        if "wrong" in doc:
            raise WrongAnswer(doc["wrong"])
        return doc

    def run(self, p, i, traced=0):
        self.proc.stdin.write(f"op {p} {i} {traced}\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self):
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()
        doc = self.read()
        self.proc.wait()
        return doc

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_round(args, round_, passes, set_up_only=False):
    """One round: a fresh worker pair, each op run by both in alternating order.

    Returns a list of passes ({"a": [...], "b": [...]}) plus the workers' set-up
    times and final documents.  "a" is the code under test (traced when --trace 1);
    "b" is the reference clock, or with --trace 1 the code under test untraced.
    """
    workers = []
    try:
        codes = ("cur", "ref") if not args.trace else ("cur",)
        for code in codes if round_ % 2 == 0 else codes[::-1]:
            workers.append((code, Worker(args, code, round_, passes)))
        by = dict(workers)
        a, b = by["cur"], by.get("ref", by["cur"])
        traced = args.trace
        result = []
        for p, size in enumerate([] if set_up_only else a.sizes):
            pass_ = {"a": [], "b": []}
            for i in range(size):
                sides = [("a", a, traced), ("b", b, 0)]
                if (round_ + p + i) % 2:
                    sides.reverse()
                for key, worker, tr in sides:
                    pass_[key].append(worker.run(p, i, tr))
            result.append(pass_)
        setups = {code: w.setup_s for code, w in workers}
        finals = {code: w.finish() for code, w in workers}
        return result, setups, finals
    finally:
        for _, w in workers:
            w.stop()


# --- metrics --------------------------------------------------------------------


def tail(samples):
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)

    def rank(pct):
        return max(1, math.ceil(Fraction(str(pct)) * n / 100))

    pct = max([p for p in TAIL_LADDER if n - rank(p) >= 10], default=TAIL_LADDER[0])
    return sorted(samples)[rank(pct) - 1], pct, n - rank(pct)


def on_clock(passes, nominal):
    """Each op's latency on the reference clock, and the run's clock factor.

    An op whose key has a nominal latency gets (its time / the reference's time
    for the same op, run right beside it) x that nominal latency; the pair shares
    the machine's state of the moment.  Any other op gets its time x the run's
    clock factor: the nominal over the measured reference time of those ops.
    """
    table = nominal["ops"]
    pairs = [(a, b) for p in passes for a, b in zip(p["a"], p["b"])]
    fixed = [b for _, b in pairs if b["key"] in table]
    factor = sum(table[b["key"]] for b in fixed) / sum(b["t"] for b in fixed)
    return [a["t"] / b["t"] * table[a["key"]] if a["key"] in table else a["t"] * factor
            for a, b in pairs], factor


def time_metrics(samples):
    """ops_per_s, op_p50_ms, op_tail_ms and tail details from a run's latencies."""
    tail_s, pct, beyond = tail(samples)
    return {"ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": tail_s * 1e3}, {"tail_percentile": pct, "samples_beyond_tail": beyond}


def end_to_end(passes, setups, finals, workload):
    nominal = NOMINAL[workload]
    ops = [r for p in passes for r in p["a"]]
    attempted = len(ops)
    failed = sum(1 for r in ops if r["fail"])
    latencies, factor = on_clock(passes, nominal)
    timed, tail_info = time_metrics(latencies)
    raw, _ = time_metrics([r["t"] for r in ops])
    cur_setup = statistics.median(s["cur"] for s in setups)
    ref_setup = statistics.median(s["ref"] for s in setups)
    metrics = {
        "setup_s": (cur_setup / ref_setup * nominal["setup_s"], "s"),
        "ops_per_s": (timed["ops_per_s"], "ops/s"),
        "op_p50_ms": (timed["op_p50_ms"], "ms"),
        "op_tail_ms": (timed["op_tail_ms"], "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (max(f["cur"]["peak_rss_mb"] for f in finals), "MB"),
    }
    info = {"samples": attempted, "passes": len(passes), "rounds": len(finals),
            "setups": len(setups), **tail_info, "failed_ratio": failed / attempted,
            "unscaled": {**raw, "setup_s": cur_setup},
            "clock": {"factor": factor,
                      "ops_with_nominal": sum(1 for r in ops if r["key"] in nominal["ops"]),
                      "ref_setup_s": ref_setup,
                      "ref_peak_rss_mb": max(f["ref"]["peak_rss_mb"] for f in finals)}}
    return metrics, info


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes, finals, workload):
    """Per-layer metrics from the traced executions: busy and self times, counts, rates."""
    busy, own, c = Counter(), Counter(), Counter()
    cli_ms = {sub: [] for sub in CLI_SUBCOMMANDS}
    wall = 0.0
    for final in finals:
        trace = final["cur"]["trace"]
        busy.update(trace["busy"])
        own.update(trace["self"])
        c.update(trace["counters"])
        wall += trace["wall"]
        for sub, durations in trace["cli_ms"].items():
            cli_ms[sub] += durations

    def total(*prefixes):
        return sum(v for name, v in busy.items() if name.startswith(prefixes))

    construct_s, validate_s = total("construct."), total("grid.validate_")
    io_s = total("grid.format_grid_text", "grid.parse_grid", "grid.grid_to_json")
    metrics_s, search_s = total("metrics."), total("search.")
    m = {
        "construct.calls": (c["construct.calls"], "count"),
        "construct.busy_s": (construct_s, "s"),
        "construct.cells_per_s": (_ratio(c["construct.cells"], construct_s), "cells/s"),
        "grid.validate.busy_s": (validate_s, "s"),
        "grid.validate.cells_per_s": (_ratio(c["grid.validate.cells"], validate_s), "cells/s"),
        "grid.validate.violations": (c["grid.validate.violations"], "count"),
        "grid.io.busy_s": (io_s, "s"),
        "grid.io.bytes_per_s": (_ratio(c["grid.io.bytes"], io_s), "B/s"),
        "metrics.busy_s": (metrics_s, "s"),
        "metrics.pairs_per_s": (_ratio(c["metrics.pairs"], metrics_s), "pairs/s"),
        "metrics.argmin_pairs": (c["metrics.argmin_pairs"], "count"),
        "transform.busy_s": (total("transform."), "s"),
        "transform.not_reducible": (c["transform.not_reducible"], "count"),
        "search.busy_s": (search_s, "s"),
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_s": (_ratio(c["search.nodes"], search_s), "nodes/s"),
        "search.witnesses": (c["search.witnesses"], "count"),
        "search.incomplete": (c["search.incomplete"], "count"),
        "search.budget_used_ratio": (_ratio(c["search.incomplete_nodes"],
                                            c["search.incomplete_budget"]), "1"),
        "cli.import_s": (cli_import_s() if workload == "cli-roundtrip" else 0.0, "s"),
        "cli.bytes_out": (c["cli.bytes_out"], "B"),
    }
    for sub, durations in cli_ms.items():
        m[f"cli.{sub}.p50_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    for layer in LAYERS:
        m[f"{layer}.share"] = (_ratio(own[layer], wall), "1")
    traced = sum(r["t"] for p in passes for r in p["a"])
    untraced = sum(r["t"] for p in passes for r in p["b"])
    m["trace.overhead_ratio"] = (traced / untraced - 1, "1")
    return m


def cli_import_s(runs=3):
    """Median time of `import latindist.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import latindist.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(CODE["cur"]))
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


# --- environment ----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy
    rss = ("getrusage(RUSAGE_CHILDREN).ru_maxrss of the worker running the code under test: "
           "the largest CLI subprocess" if args.workload == "cli-roundtrip"
           else "getrusage(RUSAGE_SELF).ru_maxrss of the worker running the code under test")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_commit": git_commit(),
            "seed": args.seed, "hold_out_seed": HOLD_OUT_SEED, "rss_read_by": rss,
            "clock": "perfbench/reference, the seed commit's library, run in turn with each op"}


def _timeout(signum, frame):
    raise TimeoutError(f"run took longer than {RUN_TIMEOUT_S} s")


def main(argv=None):
    args = parse_args(argv)
    for code in CODE.values():
        if not (code / "latindist" / "cli.py").is_file():
            print(f"latindist sources not found under {code}", file=sys.stderr)
            return 2
    if not args.worker and args.workload not in NOMINAL:
        print(f"no nominal latencies for {args.workload} in {NOMINAL_FILE}", file=sys.stderr)
        return 2
    if args.worker:
        return serve(args)

    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(RUN_TIMEOUT_S)
    passes, setups, finals = [], [], []
    per_round = passes_per_round(args.workload, args.seconds)
    try:
        rounds = ROUNDS[args.workload]
        for round_ in range(rounds):
            result, setup, final = run_round(args, round_, per_round)
            passes += result
            setups.append(setup)
            finals.append(final)
        for round_ in range(rounds, SETUPS if not args.trace else rounds):
            setups.append(run_round(args, round_, 1, set_up_only=True)[1])
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    ops = [r for p in passes for r in p["a"]]
    failures = Counter(f"{r['label']}: {r['fail']}" for r in ops if r["fail"])
    details = {"workload": args.workload, "layers_loaded": list(LAYERS_LOADED[args.workload]),
               "loop": "closed", "clients": 1, "workers": 1, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(args),
               "failures": dict(failures)}
    if args.trace:
        metrics = layer_metrics(passes, finals, args.workload)
    else:
        metrics, info = end_to_end(passes, setups, finals, args.workload)
        details.update(info)
    result = {"correct": True, "attempted": len(ops), "failed": sum(failures.values()),
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"details": details, "result": result, "passes": passes}) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
