import hashlib
import json
from math import gcd

import numpy as np
import pytest

from latindist import (NonexistenceError, ParameterError, ShiftParams,
                       SquareGrid, SudokuShape, algorithm1, algorithm2,
                       inner_distance, known_bounds, max_distance_square,
                       pandiagonal_max, shift_by_k, sudoku_square, transpose,
                       validate_latin, validate_pandiagonal, validate_sudoku)
from latindist.construct import predicted_inner_distance

from latindist import construct as construct_module
from latindist import grid as grid_module
from oracle import is_latin, is_pandiagonal, is_sudoku, min_adjacent_distance, row_tuples


# --- parameter bundle --------------------------------------------------------

def test_shift_params_normalization():
    p = ShiftParams(9, -5, 13, -1, 9)
    assert (p.r, p.c) == (4, 4)
    assert p.alpha == 8 and p.beta == 9
    assert p.R == 9 and p.C == 9
    # offsets land in 1..n: a multiple of n reads n, not 0
    p = ShiftParams(9, 5, 4, 18, -9)
    assert (p.alpha, p.beta) == (9, 9)


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


def test_constructor_orders_below_two():
    assert shift_by_k(1, 1).rows() == [[1]]
    with pytest.raises(ParameterError, match="order must be positive, got 0"):
        shift_by_k(0, 1)
    with pytest.raises(ParameterError, match="order must be positive, got 0"):
        pandiagonal_max(0)


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


def test_half_of_n_minus_a_shares_exactly_a_with_n():
    # for odd widths b, gcd(a*b, (a*b - a)/2) comes out to a
    for a in range(1, 13):
        for b in range(3, 14, 2):
            n = a * b
            assert gcd(n, (n - a) // 2) == a, (a, b)


def test_sudoku_square_single_row_blocks():
    assert sudoku_square(1, 5) == max_distance_square(5)
    assert sudoku_square(5, 1) == transpose(max_distance_square(5))
    assert sudoku_square(1, 1) == SquareGrid([[1]])


def test_sudoku_square_parameter_errors():
    for a, b in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ParameterError):
            sudoku_square(a, b)


# --- the even-even fill ------------------------------------------------------

def _row_offsets(x, y):
    # the extra offset entering each row k >= 2 of algorithm2(x, y), read back from
    # the first column of the grid, as a residue mod n
    n = 4 * x * y
    first = algorithm2(x, y).cells[:, 0].tolist()
    assert first[0] == 1
    return {k: (first[k - 1] - first[k - 2] - 2 * x * y) % n for k in range(2, n + 1)}


def test_row_offset_example():
    # row 5 opens the second band of block height 4, so it steps back by x = 2
    n = 16
    offsets = _row_offsets(2, 2)
    assert offsets[5] == -2 % n
    assert offsets[2] == 0 and offsets[3] == 1 and offsets[7] == -1 % n
    with pytest.raises(ParameterError):
        algorithm2(1, 1)  # block height 2 has its own rule


def test_row_offset_cases_partition_all_rows():
    # every row's offset must agree with the band-based description of the four cases
    for x in range(2, 6):
        a = 2 * x
        for y in range(x, x + 3):
            n = 4 * x * y
            offsets = _row_offsets(x, y)
            for k in range(2, n + 1):
                band = (k - 1) // a
                first_of_band = (k - 1) % a == 0
                if k % 2 == 0:
                    want = 0
                elif first_of_band:
                    want = -x
                elif band % 2 == 0:
                    want = 1
                else:
                    want = -1
                assert offsets[k] == want % n, (x, y, k)


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
    # the lower bound of the table is the distance the construction reaches, in every class
    shapes = [(a, b) for a in range(1, 61) for b in range(1, 61) if 2 <= a * b <= 60]
    for a, b in shapes:
        rows = row_tuples(sudoku_square(a, b))
        assert is_sudoku(rows, a, b), (a, b)
        assert min_adjacent_distance(rows) == known_bounds("sudoku", a=a, b=b).lower, (a, b)
    for n in range(2, 61):
        rows = row_tuples(max_distance_square(n))
        assert is_latin(rows), n
        assert min_adjacent_distance(rows) == known_bounds("plain", n=n).lower, n
    for n in (n for n in range(2, 62) if gcd(n, 6) == 1):
        rows = row_tuples(pandiagonal_max(n))
        assert is_pandiagonal(rows), n
        assert min_adjacent_distance(rows) == known_bounds("pandiagonal", n=n).lower, n


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
    for kind in ("plain", "pandiagonal"):
        # a numpy order answers as the same Python int
        for n in (np.int64(11), np.int32(11), np.uint8(11)):
            assert known_bounds(kind, n=n) == known_bounds(kind, n=11)
            assert type(known_bounds(kind, n=n).n) is int
        # a float, a string or a bool is no order, whatever it rounds to
        for n in (5.9, 7.0, "7", True):
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
    e = known_bounds("sudoku", a=5, b=7)
    assert (e.lower, e.upper, e.exact) == (15, 15, True)
    e = known_bounds("sudoku", a=2, b=9)
    assert (e.lower, e.upper) == (8, 8)
    for a, b, upper in [(3, 3, 3), (3, 4, 4), (4, 4, 6), (1, 9, 4)]:
        e = known_bounds("sudoku", a=a, b=b)
        assert e.upper == upper and e.exact, (a, b)


def test_sudoku_bounds_open_cases():
    e = known_bounds("sudoku", a=7, b=8)
    assert (e.lower, e.upper, e.exact) == (24, 26, False)
    e = known_bounds("sudoku", a=7, b=7)
    assert (e.lower, e.upper, e.exact) == (21, 22, False)
    e = known_bounds("sudoku", a=3, b=6)
    assert (e.lower, e.upper) == ((18 - min(12, 6)) // 2, (18 - 3) // 2) and not e.exact


def test_sudoku_bounds_shape_symmetric():
    for a in range(1, 9):
        for b in range(1, 9):
            if a * b < 2:
                continue
            assert known_bounds("sudoku", a=a, b=b) == known_bounds("sudoku", a=b, b=a), (a, b)


def test_known_bounds_table_matches_its_digest():
    # every plain and pandiagonal entry for n = 2..199, in turn at each n, then every Sudoku
    # shape with sides 1..29, a outermost: the SHA-256 of the JSON documents as the table
    # gave them before its argument handling was written once
    docs = [json.dumps(known_bounds(kind, n=n).as_json_dict())
            for n in range(2, 200) for kind in ("plain", "pandiagonal")]
    docs += [json.dumps(known_bounds("sudoku", a=a, b=b).as_json_dict())
             for a in range(1, 30) for b in range(1, 30) if a * b >= 2]
    assert len(docs) == 1_236
    assert hashlib.sha256("".join(docs).encode()).hexdigest() == \
        "f750b0aaabed46f747e0a9fb3cb02b89bb22ebc44e8532acde66b58bfa7b478a"


def _constructor_sweep(cap: int) -> tuple[int, str]:
    """The number of shapes and the SHA-256 of the constructors' output up to order cap.

    algorithm2(x, y) for 2 <= x <= y with 4xy <= cap, then, for even sides
    a, b >= 4 with ab <= cap in both orientations, sudoku_square(a, b) and
    the JSON document of its known_bounds entry; cells as little-endian int64.
    """
    digest, shapes = hashlib.sha256(), 0
    for x in range(2, cap):
        for y in range(x, cap // (4 * x) + 1):
            digest.update(algorithm2(x, y).cells.astype("<i8").tobytes())
            shapes += 1
    for a in range(4, cap // 4 + 1, 2):
        for b in range(4, cap // a + 1, 2):
            digest.update(sudoku_square(a, b).cells.astype("<i8").tobytes())
            digest.update(json.dumps(known_bounds("sudoku", a=a, b=b).as_json_dict()).encode())
            shapes += 1
    return shapes, digest.hexdigest()


@pytest.mark.parametrize("cap, shapes, sha256", [
    pytest.param(256, 80 + 153,
                 "28a798f8fb174232346a1b649976410ff7a7933dda8c179047b3cb1c93f7f6ae", id="256"),
    pytest.param(576, 235 + 459,
                 "596585913322c7930fcc89d98496bae8713a904a1cdb0374154e34711fa042e7",
                 marks=pytest.mark.slow, id="576")])
def test_even_block_constructors_match_their_digest(cap, shapes, sha256):
    # every even-block grid and bound up to the cap, so that a rewrite of a constructor or of
    # the bounds table shows as a changed digest; the full sweep takes several seconds
    assert _constructor_sweep(cap) == (shapes, sha256)


def test_bounds_reject_order_one():
    with pytest.raises(ParameterError, match="below order 2"):
        known_bounds("pandiagonal", n=1)
    with pytest.raises(ParameterError, match="below order 2"):
        known_bounds("sudoku", a=1, b=1)


def test_known_bounds_dispatch_errors():
    with pytest.raises(ParameterError) as info:
        known_bounds("pandiagonal")
    assert str(info.value) == "pandiagonal squares need an order n"
    with pytest.raises(ParameterError):
        known_bounds("plain")
    with pytest.raises(ParameterError):
        known_bounds("sudoku", a=3)
    with pytest.raises(ParameterError):
        known_bounds("magic", n=4)


def test_known_bounds_refuses_arguments_its_kind_does_not_use():
    # block sides are never dropped from a plain or pandiagonal query, nor is an order that
    # the shape does not make: each used to answer for another class or another order
    for kind in ("plain", "pandiagonal"):
        for sides in ({"a": 2, "b": 3}, {"a": 1}, {"b": 5}):
            with pytest.raises(ParameterError) as info:
                known_bounds(kind, n=5, **sides)
            assert str(info.value) == f"a block shape only applies to sudoku, not {kind}"
    for a, b in [(2, 3), (3, 2)]:
        with pytest.raises(ParameterError) as info:
            known_bounds("sudoku", n=7, a=a, b=b)
        assert str(info.value) == f"order 7 does not match shape ({a}, {b})"
    with pytest.raises(ParameterError):
        known_bounds("sudoku", n=6.0, a=2, b=3)
    # the order a*b itself is accepted and changes nothing
    for n in (6, np.int64(6)):
        assert known_bounds("sudoku", n=n, a=3, b=2) == known_bounds("sudoku", a=2, b=3)


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
