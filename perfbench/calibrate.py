"""Measure the reference's nominal latencies and write them to perfbench/nominal.json.

The nominal latencies set the unit of every time the benchmark reports, so
they are measured once, with the reference copy of the library, and then
left alone: changing them changes every number compared against them.

    python3 perfbench/calibrate.py --workload census --seeds 1 2 3 4 5

For each workload it runs the rounds of a benchmark run for each seed and
records, as medians, the reference's latency of every op key that a round's
batch holds whatever the seed (the ops every batch repeats), its set-up
time and its pass time.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

import run

MIN_NOMINAL_S = 1e-3  # shorter ops time too coarsely to scale by


def calibrate(workload, seeds):
    latencies, setups, passes = defaultdict(list), [], []
    keys_per_round = defaultdict(list)
    for seed in seeds:
        args = argparse.Namespace(workload=workload, seed=seed, trace=0)
        for round_ in range(run.ROUNDS[workload]):
            result, setup, _ = run.run_round(args, round_, 1)
            setups.append(setup["ref"])
            for pass_ in result:
                passes.append(sum(r["t"] for r in pass_["b"]))
                for r in pass_["b"]:
                    latencies[r["key"]].append(r["t"])
                keys_per_round[round_].append({r["key"] for r in pass_["b"]})
    # the keys a round's batch holds whatever the seed
    fixed = set().union(*(set.intersection(*keys) for keys in keys_per_round.values()))
    ops = {key: statistics.median(latencies[key]) for key in sorted(fixed)}
    return {"setup_s": statistics.median(setups), "pass_s": statistics.median(passes),
            "ops": {key: t for key, t in ops.items() if t >= MIN_NOMINAL_S}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=sorted(run.BATCHES))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    nominal = dict(run.NOMINAL)
    for workload in args.workload:
        nominal[workload] = calibrate(workload, args.seeds)
    run.NOMINAL_FILE.write_text(json.dumps(nominal, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
