"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Every expected value is pinned exactly; there are
no tolerances anywhere because everything in scope is integer-valued.
"""

from math import gcd

import numpy as np

from latindist import (SearchQuery, ShiftParams, SquareGrid, SudokuShape,
                       algorithm1, format_grid_text, inner_distance,
                       max_distance_square, max_distance_via_search,
                       pandiagonal_max, run_search, shift_by_k, sudoku_square,
                       to_circulant_canonical, transpose, validate_latin,
                       validate_pandiagonal, validate_sudoku)
from latindist.cli import main
from latindist.construct import _least_step, _shift_terms

from conftest import load_golden
from oracle import count_by_filter


def _verdict(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d}: {status} - {label}")
    assert not failures, f"criterion {number}: {failures[:10]}"


def _shift_param_sweep(max_n: int = 12):
    """Every valid ShiftParams with n <= max_n and offsets in {1, -1, n}."""
    for n in range(2, max_n + 1):
        for r in range(1, n):
            for c in range(1, n):
                for alpha in (1, -1, n):
                    if gcd(abs(alpha), r) != 1:
                        continue
                    for beta in (1, -1, n):
                        if gcd(abs(beta), c) != 1:
                            continue
                        yield ShiftParams(n, r, c, alpha, beta)


def test_acceptance_01_generator_reproduces_golden_grids(capsys):
    cases = [
        (["gen", "--algo", "shiftk", "--n", "5", "--k", "-1"], "order5_back_circulant.txt"),
        (["gen", "--algo", "shiftk", "--n", "5", "--k", "1"], "order5_circulant.txt"),
        (["gen", "--algo", "shiftk", "--n", "5", "--k", "2"], "order5_shift_by_2.txt"),
        (["gen", "--algo", "shiftk", "--n", "5", "--k", "3"], "order5_shift_by_3.txt"),
        (["gen", "--algo", "shift", "--n", "6", "--r", "4", "--c", "2",
          "--alpha", "-1", "--beta", "1"], "order6_shift_r4_c2.txt"),
        (["gen", "--algo", "shift", "--n", "9", "--r", "5", "--c", "4",
          "--alpha", "9", "--beta", "9"], "order9_shift_r5_c4.txt"),
        (["gen", "--algo", "shift", "--n", "10", "--r", "5", "--c", "4",
          "--alpha", "1", "--beta", "1"], "order10_shift_r5_c4.txt"),
        (["gen", "--algo", "pandiagonal", "--n", "11"], "order11_pandiagonal.txt"),
        (["gen", "--algo", "sudoku", "--a", "3", "--b", "3"], "order9_sudoku_3x3.txt"),
        (["gen", "--algo", "eveneven", "--x", "2", "--y", "2"], "order16_sudoku_4x4.txt"),
    ]
    failures = []
    for argv, fixture in cases:
        code = main(argv)
        emitted = capsys.readouterr().out
        if code != 0 or emitted != format_grid_text(load_golden(fixture)):
            failures.append(fixture)
    with capsys.disabled():
        _verdict(1, "gen emits every golden grid byte-exactly", failures)


def test_acceptance_02_max_distance_squares():
    failures = []
    for n in range(3, 17):
        grid = max_distance_square(n)
        want = (n - 1) // 2
        if not validate_latin(grid).verdict:
            failures.append((n, "not latin"))
        elif inner_distance(grid).inner_distance != want:
            failures.append((n, inner_distance(grid).inner_distance, want))
    _verdict(2, "construction reaches floor((n-1)/2) for n in [3,16]", failures)


def test_acceptance_03_exact_counts_at_the_ceiling():
    failures = []
    for n, d, want in [(5, 2, 20), (7, 3, 28), (9, 4, 36)]:
        result = run_search(SearchQuery(n=n, min_distance=d))
        if not result.complete or result.count != want:
            failures.append((n, d, result.count, want, result.complete))
    _verdict(3, "exhaustive counts find exactly 4n maximal squares (n=5,7,9)", failures)


def test_acceptance_04_nothing_above_the_cap():
    failures = []
    for n, d in [(4, 2), (5, 3), (6, 3), (7, 4)]:
        result = run_search(SearchQuery(n=n, min_distance=d))
        if not result.complete or result.count != 0:
            failures.append((n, d, result.count))
    _verdict(4, "no square beats floor((n-1)/2) on n=4..7", failures)


def test_acceptance_05_pandiagonal_maxima():
    failures = []
    for n in (5, 7, 11, 13):
        grid = pandiagonal_max(n)
        if not validate_pandiagonal(grid).verdict:
            failures.append((n, "not pandiagonal"))
        elif inner_distance(grid).inner_distance != (n - 3) // 2:
            failures.append((n, inner_distance(grid).inner_distance))
    for n, d in [(5, 2), (7, 3)]:
        result = run_search(SearchQuery(n=n, constraint="pandiagonal", min_distance=d))
        if not result.complete or result.count != 0:
            failures.append(("search", n, d, result.count))
    _verdict(5, "pandiagonal squares reach exactly (n-3)/2", failures)


def test_acceptance_06_sudoku_constructors():
    failures = []
    for b in range(2, 9):
        grid = sudoku_square(2, b)
        ok = (validate_sudoku(grid, SudokuShape(2, b)).verdict
              and inner_distance(grid).inner_distance == b - 1)
        if not ok:
            failures.append((2, b))
    for a, b in [(3, 3), (3, 5), (4, 5), (5, 5), (5, 7), (6, 7)]:
        grid = sudoku_square(a, b)
        ok = (validate_sudoku(grid, SudokuShape(a, b)).verdict
              and inner_distance(grid).inner_distance == (a * b - a) // 2)
        if not ok:
            failures.append((a, b))
    for x, y in [(2, 2), (2, 3), (3, 3)]:
        grid = sudoku_square(2 * x, 2 * y)
        ok = (validate_sudoku(grid, SudokuShape(2 * x, 2 * y)).verdict
              and inner_distance(grid).inner_distance == 2 * x * y - x)
        if not ok:
            failures.append(("even-even", x, y))
    for a, b in [(3, 4), (3, 8), (3, 10), (5, 8)]:
        n = a * b
        want = (n - min(2 * a, b)) // 2 if b % 4 == 0 else (n - min(4 * a, b)) // 2
        grid = sudoku_square(a, b)
        ok = (validate_sudoku(grid, SudokuShape(a, b)).verdict
              and inner_distance(grid).inner_distance == want)
        if not ok:
            failures.append((a, b, want))
    _verdict(6, "all block-shape constructors hit their formula distances", failures)


def test_acceptance_07_sudoku_maxima_by_search():
    failures = []
    for shape, want in [((2, 2), 1), ((2, 3), 2), ((3, 3), 3)]:
        got = max_distance_via_search("sudoku", shape)
        if got != want:
            failures.append((shape, got, want))
    probe = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(3, 3),
                                   min_distance=4))
    if not probe.complete or probe.count != 0:
        failures.append(("(3,3) d=4", probe.count, probe.complete))
    _verdict(7, "searched maxima match the block-shape formulas", failures)


def test_acceptance_08_one_canonical_circulant():
    failures = []
    for n in (5, 7, 8, 9, 11):
        forms = set()
        for k in range(1, n):
            if gcd(k, n) != 1:
                continue
            canonical, _ = to_circulant_canonical(shift_by_k(n, k))
            forms.add(canonical)
        if len(forms) != 1 or forms.pop() != shift_by_k(n, 1):
            failures.append(("shift", n))
    for params in _shift_param_sweep(12):
        try:
            to_circulant_canonical(algorithm1(params))
        except Exception:
            failures.append(("fill", params))
    _verdict(8, "every shift-structured square reduces to one circulant", failures)


def test_acceptance_09_predicted_distance_matches_measured():
    failures = []
    for params in _shift_param_sweep(12):
        grid = algorithm1(params)
        if not validate_latin(grid).verdict:
            failures.append((params, "not latin"))
            continue
        measured = inner_distance(grid).inner_distance
        predicted = _least_step(*_shift_terms(params))
        if measured != predicted:
            failures.append((params, measured, predicted))
    _verdict(9, "closed-form distance equals measured on the full n<=12 sweep", failures)


def test_acceptance_10_search_agrees_with_brute_force():
    failures = []
    for n in (3, 4):
        for d in range(1, n // 2 + 2):
            mine = run_search(SearchQuery(n=n, min_distance=d)).count
            reference = count_by_filter(n, d)
            if mine != reference:
                failures.append((n, d, mine, reference))
    _verdict(10, "counts equal filtering the explicit square lists (n=3,4)", failures)


def _progression(start: int, step: int, n: int) -> list[int]:
    """The n terms start, start + step, ... reduced into the symbols 1..n."""
    return [(start - 1 + m * step) % n + 1 for m in range(n)]


def test_acceptance_11_property_suites():
    failures = []
    for n in range(1, 31):
        for k in range(1, n + 1):
            if gcd(k, n) != 1:
                continue
            for a in range(1, n + 1):
                if set(_progression(a, k, n)) != set(range(1, n + 1)):
                    failures.append(("orbit", n, k, a))
    for a in range(1, 13):
        for b in range(3, 14, 2):
            n = a * b
            if gcd(n, (n - a) // 2) != a:
                failures.append(("gcd", a, b))
    for n in range(1, 21):
        for step in range(0, n + 1):
            orbit = _progression(1, step, n)
            period = n // gcd(step, n)
            if any(orbit[m] != orbit[m % period] for m in range(n)):
                failures.append(("period", n, step))

    rng = np.random.default_rng(20260809)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        grid = SquareGrid(rng.integers(1, n + 1, size=(n, n)))
        direct = inner_distance(grid)
        flipped = inner_distance(transpose(grid))
        if direct.inner_distance != flipped.inner_distance:
            failures.append(("transpose", grid.rows()))
        if direct.realized_classes != flipped.realized_classes:
            failures.append(("census", grid.rows()))
        # the symbol maps the search relies on: translation u -> u + s and
        # negation u -> 2 - u (mod n, symbols 1..n)
        s = int(rng.integers(1, n + 1))
        for name, cells in (("shift", (grid.cells - 1 + s) % n + 1),
                            ("negation", (1 - grid.cells) % n + 1)):
            mapped = inner_distance(SquareGrid(cells))
            if (mapped.inner_distance, mapped.realized_classes) != (
                    direct.inner_distance, direct.realized_classes):
                failures.append((name, s, grid.rows()))
    _verdict(11, "number-theory sweeps and metric invariants hold", failures)
