import numpy as np
import pytest

from latindist import (GridPermutation, NotReducibleError, ParameterError, SearchQuery,
                       SquareGrid, SudokuShape, apply_permutation,
                       inner_distance, max_distance_square, run_search, shift_by_k,
                       to_circulant_canonical, transpose, validate_latin,
                       validate_sudoku)
from oracle import is_rotation_square, is_sum_square, row_tuples


def _random_permutation(rng, n):
    return tuple(int(v) + 1 for v in rng.permutation(n))


def _identity(n):
    ident = tuple(range(1, n + 1))
    return GridPermutation(rows=ident, cols=ident, symbols=ident)


def test_apply_identity_and_symbol_swap():
    g = SquareGrid([[1, 2], [2, 1]])
    assert apply_permutation(g, _identity(2)) == g
    swap = GridPermutation(rows=(1, 2), cols=(1, 2), symbols=(2, 1))
    assert apply_permutation(g, swap) == SquareGrid([[2, 1], [1, 2]])


def test_apply_rejects_size_mismatch():
    with pytest.raises(ParameterError):
        apply_permutation(SquareGrid([[1]]), _identity(2))
    with pytest.raises(ParameterError):
        GridPermutation(rows=(1, 2), cols=(1,), symbols=(1, 2))
    with pytest.raises(ParameterError):
        GridPermutation(rows=(1, 1), cols=(1, 2), symbols=(1, 2))


def test_permutation_entries_are_integers():
    # numpy entries are stored as Python ints, so as_json_dict writes plain numbers
    perm = GridPermutation(rows=np.array([2, 1]), cols=(np.int64(1), np.int32(2)),
                           symbols=[np.uint8(2), 1])
    assert perm == GridPermutation(rows=(2, 1), cols=(1, 2), symbols=(2, 1))
    assert all(type(k) is int for k in perm.rows + perm.cols + perm.symbols)
    assert perm.as_json_dict() == {"rows": [2, 1], "cols": [1, 2], "symbols": [2, 1]}
    # a float, a bool or a string is no index, whatever it compares equal to
    for bad in ((1, 2.0), (True, 2), (1, "2")):
        for field in ("rows", "cols", "symbols"):
            entries = {"rows": (1, 2), "cols": (1, 2), "symbols": (1, 2), field: bad}
            with pytest.raises(ParameterError):
                GridPermutation(**entries)


def test_apply_moves_cells_where_documented():
    g = SquareGrid([[1, 2, 3], [3, 1, 2], [2, 3, 1]])
    perm = GridPermutation(rows=(2, 3, 1), cols=(1, 3, 2), symbols=(3, 1, 2))
    out = apply_permutation(g, perm)
    for i in range(1, 4):
        for j in range(1, 4):
            moved = out.cells[perm.rows[i - 1] - 1, perm.cols[j - 1] - 1]
            assert moved == perm.symbols[g.cells[i - 1, j - 1] - 1]


def test_apply_preserves_latin_property():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        g = shift_by_k(n, 1) if n % 2 == 0 else shift_by_k(n, 2)
        for _ in range(8):
            perm = GridPermutation(rows=_random_permutation(rng, n),
                                   cols=_random_permutation(rng, n),
                                   symbols=_random_permutation(rng, n))
            assert validate_latin(apply_permutation(g, perm)).verdict


def test_general_permutations_can_change_the_inner_distance():
    g = max_distance_square(5)
    base = inner_distance(g).inner_distance
    perm = GridPermutation(rows=(2, 1, 3, 4, 5), cols=(1, 2, 3, 4, 5),
                           symbols=(1, 2, 3, 4, 5))
    moved = inner_distance(apply_permutation(g, perm)).inner_distance
    assert moved < base  # adjacency broke; distances are not isotopy invariants


def test_symbol_shift_preserves_distances():
    for n, s in [(7, 3), (9, 5), (8, 2)]:
        g = shift_by_k(n, n - 1)
        shifted = GridPermutation(rows=tuple(range(1, n + 1)), cols=tuple(range(1, n + 1)),
                                  symbols=tuple((v - 1 + s) % n + 1 for v in range(1, n + 1)))
        assert inner_distance(apply_permutation(g, shifted)).inner_distance \
            == inner_distance(g).inner_distance


def test_transpose(golden):
    g = golden("order9_sudoku_3x3.txt")
    assert transpose(transpose(g)) == g
    assert validate_sudoku(transpose(g), SudokuShape(3, 3)).verdict
    assert inner_distance(transpose(golden("order16_sudoku_4x4.txt"))).inner_distance == 6


def test_canonical_form_is_the_circulant_with_natural_first_row():
    canonical, perm = to_circulant_canonical(shift_by_k(7, 1))
    assert canonical == shift_by_k(7, 1)
    assert perm == _identity(7)


def test_all_shifts_share_one_canonical_form():
    for n in (5, 7, 8, 9, 11):
        forms = set()
        for k in range(1, n):
            if np.gcd(k, n) != 1:
                continue
            canonical, perm = to_circulant_canonical(shift_by_k(n, k))
            assert apply_permutation(shift_by_k(n, k), perm) == canonical
            forms.add(canonical)
        assert len(forms) == 1
        assert forms.pop() == shift_by_k(n, 1)


def test_canonicalization_of_offset_fills(golden):
    for name in ("order6_shift_r4_c2.txt", "order9_shift_r5_c4.txt",
                 "order10_shift_r5_c4.txt", "order11_pandiagonal.txt"):
        g = golden(name)
        canonical, perm = to_circulant_canonical(g)
        assert canonical == shift_by_k(g.n, 1)
        assert apply_permutation(g, perm) == canonical


def test_not_reducible_inputs_fail_cleanly():
    # Latin, but rows are not cyclic rotations of each other
    stubborn = SquareGrid([[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]])
    assert validate_latin(stubborn).verdict
    with pytest.raises(NotReducibleError):
        to_circulant_canonical(stubborn)
    with pytest.raises(NotReducibleError):
        to_circulant_canonical(SquareGrid([[1, 1], [2, 2]]))  # not even Latin


def _maxima(constraint, n=None, shape=None, d=1):
    return SearchQuery(n=n, constraint=constraint, shape=shape and SudokuShape(*shape),
                       min_distance=d, mode="enumerate")


@pytest.mark.parametrize("query, sums, others, both", [
    (_maxima("plain", n=6, d=2), 600, 72, 0), (_maxima("plain", n=8, d=3), 2_592, 128, 32),
    (_maxima("plain", n=10, d=4), 6_760, 200, 0),
    (_maxima("pandiagonal", n=7, d=2), 56, 0, 56), (_maxima("sudoku", shape=(2, 3), d=2), 48, 0, 0),
    (_maxima("sudoku", shape=(2, 4), d=3), 64, 0, 0),
    (_maxima("sudoku", shape=(3, 3), d=3), 2_880, 0, 0)],
    ids=["plain6", "plain8", "plain10", "pandiagonal7", "sudoku2x3", "sudoku2x4", "sudoku3x3"])
def test_the_reduction_succeeds_exactly_on_the_sum_squares_among_the_maxima(query, sums, others,
                                                                           both):
    # every square at these maxima, judged by the oracle's definitions; at the plain even
    # ceilings each one the reduction refuses is a rotation square, 2n^2 of them, and both
    # counts the sum squares that are rotation squares too
    result = run_search(query)
    assert result.complete
    split = {True: 0, False: 0}
    rotations = 0
    for grid in result.witnesses:
        rows = row_tuples(grid)
        try:
            canonical, perm = to_circulant_canonical(grid)
        except NotReducibleError:
            reduced = False
            assert is_rotation_square(rows)
        else:
            reduced = True
            assert apply_permutation(grid, perm) == canonical == shift_by_k(grid.n, 1)
            rotations += is_rotation_square(rows)
        assert reduced == is_sum_square(rows)
        split[reduced] += 1
    assert (split[True], split[False], rotations) == (sums, others, both)


def test_random_sum_squares_reduce_and_a_changed_cell_does_not():
    rng = np.random.default_rng(37)
    for n in [*range(1, 13), 31, 64]:
        for _ in range(6):
            x, y = rng.permutation(n), rng.permutation(n)
            cells = (y[:, None] + x) % n + 1
            grid = SquareGrid(cells)
            assert is_sum_square(row_tuples(grid))
            canonical, perm = to_circulant_canonical(grid)
            assert apply_permutation(grid, perm) == canonical == shift_by_k(n, 1)
            if n > 1:
                i, j = rng.integers(n, size=2)
                cells[i, j] = cells[i, j] % n + 1
                assert not is_sum_square(row_tuples(SquareGrid(cells)))
                with pytest.raises(NotReducibleError, match="reduc"):
                    to_circulant_canonical(SquareGrid(cells))
