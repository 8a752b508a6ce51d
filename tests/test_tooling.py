"""The test configuration itself, and the benchmark record files at the repo root."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # as CI runs the suite: development mode, warnings raised as errors, pyproject's filters
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out


def test_each_bench_file_holds_quartiles_of_every_end_to_end_metric():
    # a BENCH_<workload>.json records, per change, the quartiles of paired benchmark runs
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert bench["workload"] in workloads and path.name == f"BENCH_{bench['workload']}.json"
        assert bench["entries"], path.name
        for entry in bench["entries"]:
            where = (path.name, entry.get("commit"))
            assert {"parent", "commit", "pairs", "claimed"} <= entry.keys(), where
            assert len(entry["seeds"]) == entry["pairs"], where
            # a gain is claimed on one end-to-end metric, or on none
            assert entry["claimed"] is None or entry["claimed"] in metrics, where
            for name in metrics:
                metric = entry["metrics"][name]
                for side in ("parent", "change"):
                    q = metric[side]
                    assert q["q1"] <= q["median"] <= q["q3"], (*where, name, side)
                # each pair reads better, worse or the same
                assert metric["change_better_in"] + metric["ties"] <= entry["pairs"], (*where, name)
