"""Tests of the benchmark itself: its correctness gate, its expectations and its statistics.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import expect as E  # noqa: E402
from expect import WrongAnswer  # noqa: E402
from run import on_clock, run_op, tail  # noqa: E402
from tracing import Calls, self_times  # noqa: E402
from workloads import Op, Runner, _cli, _search_op  # noqa: E402


def _cyclic(u, v, n):
    return min((u - v) % n, (v - u) % n)


def rows_with_distance(n, d):
    """Every permutation of 1..n whose horizontal neighbours are at least d apart."""
    found = []

    def extend(row, used):
        if len(row) == n:
            found.append(tuple(row))
            return
        for s in range(1, n + 1):
            if not used >> s & 1 and (not row or _cyclic(row[-1], s, n) >= d):
                row.append(s)
                extend(row, used | 1 << s)
                row.pop()

    extend([], 0)
    return found


def count_by_rows(n, d, kind="plain", shape=None):
    """Count squares by stacking whole admissible rows, with bitsets over row indices.

    A different algorithm from the library's cell-by-cell search: rows are
    complete permutations, and the column, diagonal and block constraints
    between two rows become masks of clashing rows.  Symbol translation
    u -> u+1 (mod n) keeps every constraint, so squares starting with 1 are
    counted and the total is n times that.
    """
    rows = rows_with_distance(n, d)
    at = [[0] * (n + 1) for _ in range(n)]
    for index, row in enumerate(rows):
        for j, s in enumerate(row):
            at[j][s] |= 1 << index
    far = [[0] * (n + 1) for _ in range(n)]
    for j in range(n):
        for u in range(1, n + 1):
            for t in range(1, n + 1):
                if _cyclic(u, t, n) >= d:
                    far[j][u] |= at[j][t]
    everything = (1 << len(rows)) - 1

    def below(row):
        mask = everything
        for j, s in enumerate(row):
            mask &= far[j][s]
        return mask

    def clash(row, shift, width=1):
        """Rows holding one of row's symbols `shift` columns to the right (or in its block)."""
        mask = 0
        for j, s in enumerate(row):
            first = (j + shift) % n if width == 1 else j - j % width
            for jj in range(first, first + width):
                mask |= at[jj][s]
        return mask

    def place(level, placed, allowed, columns):
        if level == n:
            return 1
        exclude = columns
        for depth, row in enumerate(placed):
            if kind == "pandiagonal":
                exclude |= clash(row, level - depth) | clash(row, depth - level)
            elif kind == "sudoku" and depth // shape[0] == level // shape[0]:
                exclude |= clash(row, 0, shape[1])
        cand = allowed & ~exclude
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            row = rows[low.bit_length() - 1]
            placed.append(row)
            total += place(level + 1, placed, below(row), columns | clash(row, 0))
            placed.pop()
        return total

    first = sum(1 << i for i, row in enumerate(rows) if row[0] == 1)
    return n * place(0, [], first, 0)


@pytest.mark.parametrize("key", sorted(E.PINNED_COUNTS, key=str))
def test_pinned_counts_rederived(key):
    kind, size, d = key
    want, source = E.PINNED_COUNTS[key]
    if source == "oracle":
        from oracle import count_by_filter
        got = count_by_filter(size[0] * size[1] if kind == "sudoku" else size, d, kind,
                              size if kind == "sudoku" else None)
    else:
        n = size[0] * size[1] if kind == "sudoku" else size
        got = count_by_rows(n, d, kind, size if kind == "sudoku" else None)
    assert got == want


def test_ceiling_formula_rederived():
    for n in (5, 7):
        assert count_by_rows(n, (n - 1) // 2) == E.ceiling_count(n)


@pytest.fixture
def runner():
    return Runner("census", Calls(tracing=False), ROOT / "src")


def test_gate_fires_on_a_wrong_count(runner):
    wrong = _search_op("plain", 7, 3, "count", E.ceiling_count(7) + 1, "deliberately wrong")
    with pytest.raises(WrongAnswer):
        runner.run(wrong)
    right = _search_op("plain", 7, 3, "enumerate", E.ceiling_count(7), "4n formula")
    assert runner.run(right) is None


def test_gate_fires_on_a_wrong_maximum(runner, monkeypatch):
    monkeypatch.setattr(E, "plain_max", lambda n: (n - 1) // 2 + 1)
    op = Op("maxdist-31", "build", {"family": "maxdist", "size": 31, "corrupt": 0, "seed": 0})
    with pytest.raises(WrongAnswer):
        runner.run(op)


def test_gate_fires_on_a_wrong_duplicate_count(runner, monkeypatch):
    monkeypatch.setattr(E, "duplicate_count", lambda cells, kind, shape=None: 0)
    op = Op("maxdist-31-corrupt", "build",
            {"family": "maxdist", "size": 31, "corrupt": 2, "seed": 5})
    with pytest.raises(WrongAnswer):
        runner.run(op)


def test_gate_fires_on_wrong_cli_output():
    cli = Runner("cli-roundtrip", Calls(tracing=False), ROOT / "src")
    wrong = _cli("search-plain-5", ["search", "--n", "5", "--min-dist", "2"], 0, ("search", 21))
    with pytest.raises(WrongAnswer):
        cli.run(wrong)
    gen_args, fixture = E.GOLDEN_GEN[0]
    right = _cli("gen", ["gen", *gen_args], 0, ("golden", fixture))
    assert cli.run(right) is None


def test_wrong_answer_raises_and_failures_are_counted(runner):
    wrong = _search_op("plain", 5, 2, "count", 0, "deliberately wrong")
    with pytest.raises(WrongAnswer):
        run_op(runner, wrong)
    crash = Op("plain-33-exists-d16", "probe",
               {"kind": "plain", "size": 33, "form": "exists", "d": 16})
    ok = _search_op("plain", 5, 2, "count", 20, "4n formula")
    assert run_op(runner, ok)[1] is None
    latency, reason = run_op(runner, crash)
    assert latency > 0 and reason in ("RecursionError", "incomplete", None)


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    value, pct, beyond = tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
    value, pct, beyond = tail([float(i) for i in range(1, 40)])
    assert pct == 50 and beyond >= 10


def test_clock_scales_each_op_by_its_reference_pair():
    def op(key, t):
        return {"key": key, "t": t}

    # the machine runs at half speed for the first op, at full speed for the rest
    passes = [{"a": [op("x", 2.0), op("x", 0.5), op("y", 3.0)],
               "b": [op("x", 2.0), op("x", 1.0), op("y", 1.0)]}]
    latencies, factor = on_clock(passes, {"ops": {"x": 1.0}})
    assert factor == pytest.approx(2 / 3)
    assert latencies == pytest.approx([1.0, 0.5, 2.0])


def test_self_time_subtracts_child_spans():
    spans = [("search.max_distance_via_search", 0.0, 1.0, -1, 0),
             ("search.run_search", 0.2, 0.7, 0, 0),
             ("cli.gen", 1.0, 1.5, -1, 1)]
    own = self_times(spans)
    assert own["search"] == pytest.approx(1.0) and own["cli"] == pytest.approx(0.5)
