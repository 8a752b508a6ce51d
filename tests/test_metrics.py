import json

import numpy as np
import pytest

from latindist import (SquareGrid, UndefinedDistanceError, format_grid_text,
                       inner_distance, parse_grid_text, transpose)
from latindist.grid import _cyclic_distance, _narrow

from conftest import BENCHMARK_IDS, BENCHMARK_SQUARES, benchmark_square, corrupted_copies, random_grids
from oracle import min_adjacent_distance


def test_inner_distance_on_goldens(golden):
    assert inner_distance(golden("order5_back_circulant.txt")).inner_distance == 1
    assert inner_distance(golden("order9_shift_r5_c4.txt")).inner_distance == 4
    assert inner_distance(golden("order6_shift_r4_c2.txt")).inner_distance == 2
    assert inner_distance(golden("order11_pandiagonal.txt")).inner_distance == 4
    assert inner_distance(golden("order16_sudoku_4x4.txt")).inner_distance == 6


def test_inner_distance_undefined_for_order_one():
    with pytest.raises(UndefinedDistanceError):
        inner_distance(SquareGrid([[1]]))


def test_report_census_and_argmin(golden):
    g = golden("order9_shift_r5_c4.txt")
    report = inner_distance(g)
    n = g.n
    assert sum(c for _, c in report.realized_classes) == 2 * n * (n - 1)
    assert report.inner_distance == min(d for d, _ in report.realized_classes)
    assert len(report.argmin_pairs) > 0
    for (i1, j1), (i2, j2) in report.argmin_pairs:
        assert abs(i1 - i2) + abs(j1 - j2) == 1
        u, v = g.cells[i1 - 1, j1 - 1], g.cells[i2 - 1, j2 - 1]
        assert min((u - v) % n, (v - u) % n) == report.inner_distance


def test_argmin_pair_count_matches_census():
    g = SquareGrid([[1, 2], [2, 1]])
    report = inner_distance(g)
    assert report.inner_distance == 1
    assert dict(report.realized_classes) == {1: 4}
    assert len(report.argmin_pairs) == 4


def test_inner_distance_invariant_under_transpose():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(2, 10))
        g = SquareGrid(rng.integers(1, n + 1, size=(n, n)))
        a = inner_distance(g)
        b = inner_distance(transpose(g))
        assert a.inner_distance == b.inner_distance
        assert a.realized_classes == b.realized_classes


def loop_report(rows):
    """Per-pair reference: the inner distance, the sorted class census and
    the argmin cell pairs, horizontal pairs row-major first, then vertical."""
    n = len(rows)
    census: dict[int, int] = {}
    horizontal, vertical = [], []
    for i in range(n):
        for j in range(n):
            for di, dj, found in ((0, 1, horizontal), (1, 0, vertical)):
                ii, jj = i + di, j + dj
                if ii < n and jj < n:
                    u, v = rows[i][j], rows[ii][jj]
                    d = min((u - v) % n, (v - u) % n)
                    census[d] = census.get(d, 0) + 1
                    found.append((d, [[i + 1, j + 1], [ii + 1, jj + 1]]))
    best = min(census)
    return best, tuple(sorted(census.items())), [p for d, p in horizontal + vertical if d == best]


def test_report_matches_the_per_pair_loop():
    for rows in random_grids(seed=11, count=400):
        report = inner_distance(SquareGrid(rows))
        best, classes, argmin = loop_report(rows)
        assert report.inner_distance == best == min_adjacent_distance(rows)
        assert report.realized_classes == classes
        assert all(type(v) is int for pair in report.realized_classes for v in pair)
        pairs = report.argmin_pairs
        assert pairs.dtype == np.int64 and pairs.shape == (len(argmin), 2, 2)
        assert not pairs.flags.writeable
        assert pairs.tolist() == argmin
        doc = {"inner_distance": best,
               "classes": [{"distance": d, "pairs": c} for d, c in classes],
               "argmin_pairs": argmin}
        assert json.dumps(report.as_json_dict()) == json.dumps(doc)


@pytest.mark.parametrize("build, args", BENCHMARK_SQUARES, ids=BENCHMARK_IDS)
def test_report_matches_the_per_pair_loop_at_benchmark_orders(build, args):
    # the orders build-verify measures, where the differences are taken in a narrow dtype;
    # a corruption leaves a few pairs at a new minimum, a valid square up to all of them
    grid = benchmark_square(build, args)
    for rows in corrupted_copies(grid, seed=grid.n):
        report = inner_distance(SquareGrid(rows))
        best, classes, argmin = loop_report(rows)
        assert (report.inner_distance, report.realized_classes) == (best, classes)
        pairs = report.argmin_pairs
        assert pairs.dtype == np.int64 and not pairs.flags.writeable
        assert pairs.tolist() == argmin


@pytest.mark.parametrize("n", [2**7 - 1, 2**7, 2**15 - 1, 2**15, 2**31 - 1, 2**31])
def test_symbol_differences_do_not_wrap_at_the_dtype_edges(n):
    # inner_distance takes the differences of symbols in [1, n] in the dtype _narrow(n) picks;
    # the extreme symbols 1 and n sit side by side here
    symbols = [1, n, 1, n // 2 + 1, 2, n - 1, n]
    cells = np.array(symbols, dtype=np.int64).astype(_narrow(n))
    dist = _cyclic_distance(cells[1:] - cells[:-1], n)
    assert dist.tolist() == [min((u - v) % n, (v - u) % n) for u, v in zip(symbols[1:], symbols)]


def test_reports_compare_and_hash_by_value(golden):
    g = golden("order5_shift_by_2.txt")
    a = inner_distance(g)
    b = inner_distance(parse_grid_text(format_grid_text(g)))
    assert a == b and hash(a) == hash(b)
    # the transpose has the same distance and census but other argmin pairs
    flipped = inner_distance(transpose(g))
    assert flipped.realized_classes == a.realized_classes
    assert len(flipped.argmin_pairs) == len(a.argmin_pairs)
    other = inner_distance(golden("order9_sudoku_3x3.txt"))
    assert a != flipped and a != other and a != "not a report"
    assert len({a, b, flipped, other}) == 3
