from math import gcd

import numpy as np
import pytest

from latindist import (NonexistenceError, ParameterError, ShiftParams,
                       SquareGrid, SudokuShape, algorithm1, algorithm2,
                       inner_distance, known_bounds, max_distance_square,
                       pandiagonal_bounds, pandiagonal_max, plain_bounds,
                       predicted_inner_distance, row_offset,
                       shift_by_k, sudoku_bounds, sudoku_square, transpose,
                       validate_latin, validate_pandiagonal, validate_sudoku)

from latindist import construct as construct_module
from latindist import grid as grid_module
from oracle import is_sudoku, min_adjacent_distance


# --- parameter bundle --------------------------------------------------------

def test_shift_params_normalization():
    p = ShiftParams(9, -5, 13, -1, 9)
    assert (p.r, p.c) == (4, 4)
    assert p.alpha == 8 and p.beta == 9
    assert p.R == 9 and p.C == 9


def test_shift_params_derived_periods():
    assert ShiftParams(6, 4, 2, -1, 1).R == 3
    assert ShiftParams(6, 4, 2, -1, 1).C == 3
    p = ShiftParams(10, 5, 4, 1, 1)
    assert p.R == 2 and p.C == 5


def test_shift_params_gcd_checks_use_given_offsets():
    # alpha = -1 is fine even though its reduced form 5 shares a factor with r = 4
    ShiftParams(6, 4, 2, -1, 1)
    with pytest.raises(ParameterError):
        ShiftParams(6, 4, 2, 2, 1)  # gcd(2, 4) = 2
    with pytest.raises(ParameterError):
        ShiftParams(6, 4, 2, -1, 4)  # gcd(4, 2) = 2
    with pytest.raises(ParameterError):
        ShiftParams(6, 4, 2, 6, 1)  # gcd(6, 4) = 2: alpha = n needs gcd(n, r) = 1


def test_shift_params_rejects_degenerate_increments():
    with pytest.raises(ParameterError):
        ShiftParams(5, 5, 2, 5, 5)
    with pytest.raises(ParameterError):
        ShiftParams(5, 2, 10, 5, 5)
    with pytest.raises(ParameterError):
        ShiftParams(1, 1, 1, 1, 1)


# --- the shift fill ----------------------------------------------------------

def test_algorithm1_reproduces_goldens(golden):
    assert algorithm1(ShiftParams(6, 4, 2, -1, 1)) == golden("order6_shift_r4_c2.txt")
    assert algorithm1(ShiftParams(9, 5, 4, 9, 9)) == golden("order9_shift_r5_c4.txt")
    assert algorithm1(ShiftParams(10, 5, 4, 1, 1)) == golden("order10_shift_r5_c4.txt")


def test_predicted_inner_distance_examples():
    assert predicted_inner_distance(ShiftParams(9, 5, 4, 9, 9)) == 4
    assert predicted_inner_distance(ShiftParams(6, 4, 2, -1, 1)) == 2
    # R = n here, so the r+alpha class is never realized and must not count
    assert predicted_inner_distance(ShiftParams(7, 3, 3, 2, 7)) == 3
    assert inner_distance(algorithm1(ShiftParams(7, 3, 3, 2, 7))).inner_distance == 3


def test_predicted_matches_measured_on_small_sweep():
    for n in range(2, 9):
        for r in range(1, n):
            for c in range(1, n):
                for alpha in (1, -1, n):
                    for beta in (1, -1, n):
                        if gcd(abs(alpha), r) != 1 or gcd(abs(beta), c) != 1:
                            continue
                        p = ShiftParams(n, r, c, alpha, beta)
                        g = algorithm1(p)
                        assert validate_latin(g).verdict, p
                        assert inner_distance(g).inner_distance == predicted_inner_distance(p), p


# --- named constructions -----------------------------------------------------

def test_max_distance_square():
    for n, want in [(2, 1), (4, 1), (5, 2), (9, 4)]:
        g = max_distance_square(n)
        assert validate_latin(g).verdict
        assert inner_distance(g).inner_distance == want
    with pytest.raises(ParameterError):
        max_distance_square(1)


def test_odd_max_distance_squares_have_a_single_distance_class():
    # with only two admissible neighbours per symbol, every adjacency is tight
    for n in (3, 5, 7, 9, 11):
        report = inner_distance(max_distance_square(n))
        assert report.realized_classes == (((n - 1) // 2, 2 * n * (n - 1)),)


def test_shift_by_k_reproduces_goldens(golden):
    assert shift_by_k(5, -1) == golden("order5_back_circulant.txt")
    assert shift_by_k(5, 1) == golden("order5_circulant.txt")
    assert shift_by_k(5, 2) == golden("order5_shift_by_2.txt")
    assert shift_by_k(5, 3) == golden("order5_shift_by_3.txt")


def test_shift_by_k_requires_coprime_shift():
    with pytest.raises(ParameterError):
        shift_by_k(4, 2)
    with pytest.raises(ParameterError):
        shift_by_k(9, 6)


def test_pandiagonal_max(golden):
    assert pandiagonal_max(11) == golden("order11_pandiagonal.txt")
    g = pandiagonal_max(5)
    assert validate_pandiagonal(g).verdict
    assert inner_distance(g).inner_distance == 1
    with pytest.raises(NonexistenceError):
        pandiagonal_max(9)
    with pytest.raises(NonexistenceError):
        pandiagonal_max(6)
    with pytest.raises(ParameterError):
        pandiagonal_max(1)


def test_sudoku_2b():
    for b in range(2, 9):
        g = sudoku_square(2, b)
        assert validate_sudoku(g, SudokuShape(2, b)).verdict
        assert inner_distance(g).inner_distance == b - 1


def test_sudoku_a_odd_b(golden):
    assert sudoku_square(3, 3) == golden("order9_sudoku_3x3.txt")
    for a, b in [(3, 3), (3, 5), (4, 5), (5, 5), (5, 7), (6, 7)]:
        g = sudoku_square(a, b)
        n = a * b
        assert validate_sudoku(g, SudokuShape(a, b)).verdict, (a, b)
        assert inner_distance(g).inner_distance == (n - a) // 2, (a, b)


def test_sudoku_square_single_row_blocks():
    assert sudoku_square(1, 5) == max_distance_square(5)
    assert sudoku_square(5, 1) == transpose(max_distance_square(5))
    assert sudoku_square(1, 1) == SquareGrid([[1]])


def test_sudoku_square_parameter_errors():
    for a, b in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ParameterError):
            sudoku_square(a, b)


# --- the even-even fill ------------------------------------------------------

def test_row_offset_example():
    assert row_offset(5, 2) == -2
    with pytest.raises(ParameterError):
        row_offset(1, 1)  # block height 2 has its own rule
    with pytest.raises(ParameterError):
        row_offset(0, 2)


def test_row_offset_cases_partition_all_rows():
    # residue form must agree with the band-based description, for every row
    for x in range(2, 6):
        a = 2 * x
        for k in range(1, 40 * x + 1):
            band = (k - 1) // a
            first_of_band = (k - 1) % a == 0
            if k % 2 == 0 or k == 1:
                want = 0
            elif first_of_band:
                want = -x
            elif band % 2 == 0:
                want = 1
            else:
                want = -1
            assert row_offset(k, x) == want, (k, x)


def test_algorithm2(golden):
    assert algorithm2(2, 2) == golden("order16_sudoku_4x4.txt")
    for x, y in [(2, 2), (2, 3), (3, 3)]:
        g = algorithm2(x, y)
        assert validate_sudoku(g, SudokuShape(2 * x, 2 * y)).verdict
        assert inner_distance(g).inner_distance == 2 * x * y - x
    with pytest.raises(ParameterError):
        algorithm2(1, 3)
    with pytest.raises(ParameterError):
        algorithm2(3, 2)


def test_sudoku_odd_a_even_b():
    for (a, b), want in [((3, 4), 4), ((3, 8), 9), ((3, 10), 10), ((5, 8), 16)]:
        g = sudoku_square(a, b)
        assert validate_sudoku(g, SudokuShape(a, b)).verdict, (a, b)
        assert inner_distance(g).inner_distance == want, (a, b)


def test_sudoku_square_dispatch():
    cases = [(1, 7), (2, 6), (3, 3), (3, 4), (4, 4), (4, 5), (5, 3), (6, 4), (3, 10)]
    for a, b in cases:
        g = sudoku_square(a, b)
        assert validate_sudoku(g, SudokuShape(a, b)).verdict, (a, b)
    # transposed shapes realize the same inner distance
    d1 = inner_distance(sudoku_square(5, 3)).inner_distance
    d2 = inner_distance(sudoku_square(3, 5)).inner_distance
    assert d1 == d2 == 6


def test_each_build_is_checked_once_against_its_class(monkeypatch):
    # every check goes through grid._validate, which the validators call and
    # construct imports; record each pass with the units it covered
    passes = []
    real = grid_module._validate

    def recording(grid, shape=None, pandiagonal=False):
        passes.append((grid.n, shape, pandiagonal))
        return real(grid, shape, pandiagonal)

    monkeypatch.setattr(grid_module, "_validate", recording)
    monkeypatch.setattr(construct_module, "_validate", recording)
    builds = [
        (lambda: max_distance_square(9), (9, None, False)),
        (lambda: pandiagonal_max(11), (11, None, True)),
        (lambda: sudoku_square(3, 5), (15, SudokuShape(3, 5), False)),
        (lambda: sudoku_square(4, 4), (16, SudokuShape(4, 4), False)),  # algorithm2
        # built as (3, 5) and transposed, which keeps the blocks
        (lambda: sudoku_square(5, 3), (15, SudokuShape(3, 5), False)),
    ]
    for build, want in builds:
        passes.clear()
        build()
        assert passes == [want]


def test_sudoku_square_reaches_the_lower_bound_by_oracle():
    # the lower bound of the table is the distance the construction reaches
    shapes = [(a, b) for a in range(1, 61) for b in range(1, 61) if 2 <= a * b <= 60]
    for a, b in shapes:
        rows = sudoku_square(a, b).row_tuples()
        assert is_sudoku(rows, a, b), (a, b)
        assert min_adjacent_distance(rows) == sudoku_bounds(a, b).lower, (a, b)


# --- bounds table ------------------------------------------------------------

def test_plain_bounds():
    e = known_bounds("plain", n=9)
    assert (e.lower, e.upper, e.exact) == (4, 4, True)
    e = known_bounds("plain", n=10)
    assert (e.lower, e.upper, e.exact) == (4, 4, True)
    assert known_bounds("plain", n=2).lower == 1
    with pytest.raises(ParameterError):
        known_bounds("plain", n=1)


def test_pandiagonal_bounds():
    e = known_bounds("pandiagonal", n=11)
    assert (e.lower, e.upper, e.exact, e.existence) == (4, 4, True, True)
    assert not known_bounds("pandiagonal", n=6).existence
    assert known_bounds("pandiagonal", n=5).upper == 1


def test_bounds_orders_are_integers():
    for kind, bounds in (("plain", plain_bounds), ("pandiagonal", pandiagonal_bounds)):
        # a numpy order answers as the same Python int
        for n in (np.int64(11), np.int32(11), np.uint8(11)):
            assert bounds(n) == known_bounds(kind, n=11)
            assert type(bounds(n).n) is int
        # a float, a string or a bool is no order, whatever it rounds to
        for n in (5.9, 7.0, "7", True):
            with pytest.raises(ParameterError):
                bounds(n)
            with pytest.raises(ParameterError):
                known_bounds(kind, n=n)


@pytest.mark.parametrize("build, args", [(max_distance_square, (7,)), (pandiagonal_max, (7,)),
                                         (shift_by_k, (5, 2)), (algorithm2, (2, 3)),
                                         (ShiftParams, (7, 3, 3, 7, 7))])
def test_constructor_arguments_are_integers(build, args):
    # numpy ints build the same thing, stored as Python ints
    built = build(*map(np.int64, args))
    assert built == build(*args)
    if isinstance(built, ShiftParams):
        assert all(type(getattr(built, name)) is int for name in ("n", "r", "c", "alpha", "beta"))
    # a float, a string or a bool is no integer argument, whatever it rounds to
    for i, value in enumerate(args):
        for bad in (float(value), str(value), True):
            with pytest.raises(ParameterError):
                build(*args[:i], bad, *args[i + 1:])


def test_sudoku_bounds_exact_cases():
    assert (sudoku_bounds(5, 7).lower, sudoku_bounds(5, 7).upper,
            sudoku_bounds(5, 7).exact) == (15, 15, True)
    assert (sudoku_bounds(2, 9).lower, sudoku_bounds(2, 9).upper) == (8, 8)
    assert sudoku_bounds(3, 3).upper == 3 and sudoku_bounds(3, 3).exact
    assert sudoku_bounds(3, 4).upper == 4 and sudoku_bounds(3, 4).exact
    assert sudoku_bounds(4, 4).upper == 6 and sudoku_bounds(4, 4).exact
    assert sudoku_bounds(1, 9).upper == 4 and sudoku_bounds(1, 9).exact


def test_sudoku_bounds_open_cases():
    e = sudoku_bounds(7, 8)
    assert (e.lower, e.upper, e.exact) == (24, 26, False)
    e = sudoku_bounds(7, 7)
    assert (e.lower, e.upper, e.exact) == (21, 22, False)
    e = sudoku_bounds(3, 6)
    assert (e.lower, e.upper) == ((18 - min(12, 6)) // 2, (18 - 3) // 2) and not e.exact


def test_sudoku_bounds_shape_symmetric():
    for a in range(1, 9):
        for b in range(1, 9):
            if a * b < 2:
                continue
            assert sudoku_bounds(a, b) == sudoku_bounds(b, a), (a, b)


def test_known_bounds_dispatch_errors():
    with pytest.raises(ParameterError):
        known_bounds("plain")
    with pytest.raises(ParameterError):
        known_bounds("sudoku", a=3)
    with pytest.raises(ParameterError):
        known_bounds("magic", n=4)


def test_constructions_never_beat_the_proven_upper_bounds():
    for n in range(3, 17):
        assert inner_distance(max_distance_square(n)).inner_distance \
            <= known_bounds("plain", n=n).upper
    for n in (5, 7, 11, 13):
        assert inner_distance(pandiagonal_max(n)).inner_distance \
            <= known_bounds("pandiagonal", n=n).upper
    for a, b in [(2, 4), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5), (3, 8)]:
        d = inner_distance(sudoku_square(a, b)).inner_distance
        entry = known_bounds("sudoku", a=a, b=b)
        assert entry.lower <= d <= entry.upper, (a, b)
