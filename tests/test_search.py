import functools
import hashlib
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindist import (NonexistenceError, ParameterError,
                       SearchIncompleteError, SearchQuery, SquareGrid, SudokuShape,
                       inner_distance, known_bounds, max_distance_via_search, run_search,
                       validate_latin, validate_pandiagonal, validate_sudoku)

from latindist.search import _MODES, _Context, _lex_order, _row_walk, _rows, _walk
from oracle import (admissible_rows, all_latin_squares, band_column_order, count_by_filter,
                    first_bands, is_latin, is_pandiagonal, is_sudoku, min_adjacent_distance,
                    mirror_cuts, mirror_images, pandiagonal_prefix_count, path_count,
                    row_major_prefix_count, row_prefix_count, row_prefixes, row_tuples,
                    sudoku_prefix_count)


def _count(n, d, constraint="plain", shape=None):
    return run_search(SearchQuery(n=n, constraint=constraint, shape=shape, min_distance=d))


def test_counts_at_the_distance_ceiling():
    for n, d, want in [(5, 2, 20), (7, 3, 28), (3, 1, 12)]:
        result = _count(n, d)
        assert result.complete
        assert result.count == want, (n, d)


def test_counts_above_the_ceiling_are_zero():
    for n, d in [(4, 2), (5, 3), (6, 3), (7, 4)]:
        result = _count(n, d)
        assert result.complete and result.count == 0, (n, d)


# the plain counts at the even ceilings d = n/2 - 1
EVEN_CEILING_COUNTS = {6: 672, 8: 2_720, 10: 6_960, 12: 17_616, 14: 35_392, 16: 70_208,
                       18: 121_680, 20: 208_880}


@pytest.mark.parametrize("n, d, shape, want",
                         [(n, n // 2 - 1, None, EVEN_CEILING_COUNTS[n]) for n in range(6, 17, 2)]
                         + [(7, 2, None, 31_080), (9, 3, None, 328_788), (8, 2, (2, 4), 604_864)]
                         + [(n, n // 2 - 1, None, EVEN_CEILING_COUNTS[n]) for n in (18, 20)])
def test_counts_the_cell_walk_found(n, d, shape, want):
    # even ceilings, one notch below odd ones, and a Sudoku square one notch below its
    # maximum: each count was found by the cell walk, which took up to 12 s on them
    result = _count(n, d, "sudoku" if shape else "plain", SudokuShape(*shape) if shape else None)
    assert result.complete and result.count == want


def test_the_even_ceiling_counts_follow_the_path_count_formula():
    # a conjecture, checked to n = 22: every plain maximum at an even ceiling is one of the
    # A^2/n sum squares, A = path_count(n, n/2 - 1), or one of 2n^2 rotation squares that are
    # not sum squares; at odd ceilings the 4n maxima are the A^2/n sum squares with A = 2n
    paths = {n: path_count(n, n // 2 - 1) for n in EVEN_CEILING_COUNTS}
    assert list(paths.values()) == [60, 144, 260, 456, 700, 1_056, 1_476, 2_040]
    for n, want in EVEN_CEILING_COUNTS.items():
        assert paths[n] ** 2 % n == 0 and paths[n] ** 2 // n + 2 * n * n == want, n
    for n in range(5, 16, 2):
        assert path_count(n, (n - 1) // 2) == 2 * n, n


@pytest.mark.slow
def test_the_path_count_formula_gives_the_count_at_order_22():
    # the cell walk (the row-walk rule turns this query away) takes about 26 s
    want = path_count(22, 10) ** 2 // 22 + 2 * 22 * 22
    assert want == 328_416
    result = _count(22, 10)
    assert result.complete and result.count == want


def test_both_sides_of_the_row_cap():
    # above order 63 the rows are still listed: 202 rows of order 101, stacked into the
    # 4n squares at the odd ceiling
    rows, _ = _rows(101, 50)
    assert len(rows) == 202
    result = _count(101, 50)
    assert result.complete and result.count == 404
    # order 301 has 602 rows at its ceiling, but two tables of 301 * 301 sets of 602 bits
    # each would pass the table cap
    assert _rows(301, 150) is None
    # plain 16 d=6 has far more rows than the cap: the listing gives up at once and
    # the cell walk starves one node past a budget of 10
    assert _rows(16, 6) is None
    started = time.perf_counter()
    result = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(4, 4), min_distance=6,
                                    node_budget=10))
    assert time.perf_counter() - started < 1
    assert not result.complete and result.nodes_expanded == 11
    # so do the rows of order 15 at d=6, and the cell walk counts the (3, 5)- and
    # (5, 3)-Sudoku squares, transposes of each other walked in bands of 3 and of 5 rows
    assert _rows(15, 6) is None
    for shape in (SudokuShape(3, 5), SudokuShape(5, 3)):
        result = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=6))
        assert result.complete and result.count == 6_240, shape


@pytest.mark.parametrize("n, d, cap, rows", [(8, 3, 144, 144), (8, 3, 143, None),
                                              (20, 9, 4_455, 2_040), (20, 9, 4_454, None)])
def test_the_row_rule_at_its_edges(monkeypatch, n, d, cap, rows):
    # plain 8 d=3 has 144 rows: a cap of 144 takes them and 143 does not.  Plain 20 d=9 has
    # 2 040 rows and 1 782 prefixes in its fullest column, and 20 * 1 782 = 8 * 4 455: the
    # prefix term takes them under a cap of 4 455 and turns them away under 4 454
    monkeypatch.setattr("latindist.search._ROW_CAP", cap)
    listed = _rows(n, d)
    assert (None if listed is None else len(listed[0])) == rows


def _forced_walk_count(monkeypatch, walk, shape, d):
    # a row cap of 0 turns every query away from the row walk; caps far above every listing
    # here send every query to it
    if walk == "cell":
        monkeypatch.setattr("latindist.search._ROW_CAP", 0)
    else:
        monkeypatch.setattr("latindist.search._ROW_CAP", 2**20)
        monkeypatch.setattr("latindist.search._TABLE_BITS", 2**40)
    assert (_rows(shape.n, d) is None) == (walk == "cell")
    result = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=d))
    assert result.complete, (shape, walk)
    return result.count


@pytest.mark.parametrize("a, b, d, want", [(2, 3, 2, 48), (2, 4, 3, 64), (2, 5, 4, 80),
                                           (2, 6, 5, 96), (3, 3, 3, 2_880), (3, 5, 6, 6_240)])
def test_every_sudoku_maximum_on_both_walks(monkeypatch, a, b, d, want):
    # the row and cell walks share no loop, so each checks the other at the class maximum
    shape = SudokuShape(a, b)
    assert d == known_bounds("sudoku", a=a, b=b).upper
    counts = [_forced_walk_count(monkeypatch, walk, shape, d) for walk in ("cell", "row")]
    assert counts == [want, want]


@pytest.mark.slow
@pytest.mark.parametrize("a, b, d, want", [(3, 4, 4, 230_400), (4, 4, 6, 527_360)])
def test_larger_sudoku_maxima_on_the_cell_walk(monkeypatch, a, b, d, want):
    # the row walk on (3, 4) lists 106 848 rows and peaks near 800 MB, so only the cell
    # walk counts these
    shape = SudokuShape(a, b)
    assert d == known_bounds("sudoku", a=a, b=b).upper
    assert _forced_walk_count(monkeypatch, "cell", shape, d) == want


def test_pandiagonal_and_sudoku_counts():
    assert _count(5, 2, "pandiagonal").count == 0
    assert _count(7, 3, "pandiagonal").count == 0
    assert _count(9, 4, "sudoku", SudokuShape(3, 3)).count == 0


def test_query_validation():
    with pytest.raises(ParameterError):
        SearchQuery(n=1, min_distance=1)
    with pytest.raises(ParameterError):
        SearchQuery(n=4, min_distance=0)
    with pytest.raises(ParameterError):
        SearchQuery(n=4, constraint="sudoku")
    with pytest.raises(ParameterError):
        SearchQuery(n=5, constraint="sudoku", shape=SudokuShape(2, 3))
    with pytest.raises(ParameterError):
        SearchQuery(n=4, constraint="plain", shape=SudokuShape(2, 2))
    with pytest.raises(ParameterError):
        SearchQuery(n=4, mode="guess")
    with pytest.raises(ParameterError, match="constraint must be one of"):
        SearchQuery(n=5, constraint="latin")
    with pytest.raises(ParameterError, match="node_budget must be positive, got 0"):
        SearchQuery(n=5, node_budget=0)
    # a shape is a SudokuShape, not a bare (a, b) pair
    with pytest.raises(ParameterError):
        SearchQuery(constraint="sudoku", shape=(3, 3))
    # shape alone is enough for sudoku queries
    q = SearchQuery(constraint="sudoku", shape=SudokuShape(2, 2), min_distance=1)
    assert q.n == 4


def test_query_orders_are_integers():
    # a numpy order works and is stored as a Python int, which the walk's bitmasks need
    q = SearchQuery(n=np.int64(5), min_distance=2)
    assert type(q.n) is int and run_search(q).count == 20
    q = SearchQuery(n=np.int32(6), constraint="sudoku", shape=SudokuShape(2, 3))
    assert type(q.n) is int and q.n == 6
    # nothing else is read as an order, whatever it rounds to
    for n in (5.5, 5.0, "5", True, None):
        with pytest.raises(ParameterError):
            SearchQuery(n=n, min_distance=2)
    with pytest.raises(ParameterError):
        SearchQuery(n=6.0, constraint="sudoku", shape=SudokuShape(2, 3))
    # the distance floor too: True would read as 1 and count every square
    q = SearchQuery(n=5, min_distance=np.int64(2))
    assert type(q.min_distance) is int and run_search(q).count == 20
    for d in (2.0, "2", True, None):
        with pytest.raises(ParameterError):
            SearchQuery(n=5, min_distance=d)
    # and the node budget: 2.5e3 would be echoed as 2500.0 and True would run one node
    q = SearchQuery(n=5, min_distance=2, node_budget=np.int64(2500))
    assert type(q.node_budget) is int and q.as_json_dict()["node_budget"] == 2500
    for budget in (2.5e3, 2500.0, True, "100", None):
        with pytest.raises(ParameterError):
            SearchQuery(n=5, min_distance=2, node_budget=budget)


def test_agrees_with_filtering_the_full_square_list():
    for n in (3, 4):
        for d in range(1, n // 2 + 2):
            assert _count(n, d).count == count_by_filter(n, d), (n, d)
    assert _count(4, 1, "sudoku", SudokuShape(2, 2)).count \
        == count_by_filter(4, 1, "sudoku", (2, 2))
    assert _count(4, 1, "pandiagonal").count == count_by_filter(4, 1, "pandiagonal")


def test_count_is_monotone_in_the_distance_floor():
    # d = 1 is only affordable at n = 4; larger orders start at d = 2
    counts4 = [_count(4, d).count for d in range(1, 4)]
    assert counts4 == sorted(counts4, reverse=True)
    for n in (5, 6):
        counts = [_count(n, d).count for d in range(2, 5)]
        assert counts == sorted(counts, reverse=True), (n, counts)


def test_witnesses_satisfy_the_query():
    result = run_search(SearchQuery(n=5, min_distance=2, mode="enumerate"))
    assert result.count == 20 and len(result.witnesses) == 20
    for w in result.witnesses:
        assert validate_latin(w).verdict
        assert inner_distance(w).inner_distance >= 2
    rows = [row_tuples(w) for w in result.witnesses]
    assert rows == sorted(rows)

    result = run_search(SearchQuery(n=5, constraint="pandiagonal", min_distance=1,
                                    mode="enumerate"))
    assert result.count > 0
    assert all(validate_pandiagonal(w).verdict for w in result.witnesses)

    result = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(2, 2),
                                    min_distance=1, mode="enumerate"))
    assert all(validate_sudoku(w, SudokuShape(2, 2)).verdict for w in result.witnesses)


def test_exists_mode_returns_first_witness():
    result = run_search(SearchQuery(n=7, min_distance=3, mode="exists"))
    assert result.complete and result.count == 1
    assert len(result.witnesses) == 1
    assert inner_distance(result.witnesses[0]).inner_distance >= 3

    result = run_search(SearchQuery(n=6, min_distance=3, mode="exists"))
    assert result.complete and result.count == 0 and not result.witnesses


def test_exists_mode_answers_beyond_the_recursion_limit():
    # the walk is n^2 - n cells deep below the first row
    for n, d in [(33, 16), (41, 20)]:
        result = run_search(SearchQuery(n=n, min_distance=d, mode="exists"))
        assert result.complete and result.count == 1, n
        assert validate_latin(result.witnesses[0]).verdict
        assert inner_distance(result.witnesses[0]).inner_distance >= d


def test_exists_mode_spends_the_whole_budget_on_one_walk():
    # no (3, 6)-Sudoku square reaches d = 7: the walk proves it in 241 073 nodes, 386 365
    # without the mirror cut (test_the_mirror_cut_removes_the_subtrees_of_mirrored_bands)
    result = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(3, 6), min_distance=7,
                                    mode="exists", node_budget=10**6))
    assert result.complete and result.count == 0 and not result.witnesses
    assert result.nodes_expanded == 241_073
    assert max_distance_via_search("sudoku", (3, 6), node_budget=10**6) == 6


def _uncut_walk(query, band=None):
    """_walk's tuple for an exists query with the mirror cut taken out of its context,
    and, if band is given, with the first band's cells admitting band's symbols alone."""
    ctx = _Context(query)
    n, a = query.n, query.shape.a if query.shape else 1
    cells = [cell[:-1] + (0,) for cell in ctx.cells]
    if band:
        for k in range(a * n):
            cell = cells[k]
            bit = 1 << (band[cell[0] // n][cell[0] % n] - 1)
            cells[k] = cell[:-2] + ([m & bit for m in cell[-2]], 0)
    ctx.cells = tuple(cells)
    return _walk(ctx, query.node_budget, True, True)


def test_the_mirror_cut_removes_the_subtrees_of_mirrored_bands():
    # (3, 6) d=7 has 26 first bands.  The walk without the cut expands 386 365 nodes; the
    # cut skips each band one of whose mirror images came before it, so it saves the
    # nodes that the uncut walk, pinned to that band, spends below it
    query = SearchQuery(constraint="sudoku", shape=SudokuShape(3, 6), min_distance=7,
                        mode="exists", node_budget=10**6)
    assert _uncut_walk(query)[:4] == (0, 0, 386_365, True)
    bands = list(first_bands(18, 7, 3, 6))
    cuts = mirror_cuts(bands, 18)
    assert len(bands) == 26 and sum(cuts) == 12
    below = [_uncut_walk(query, band)[2] - 3 * 18 for band in bands]
    saved = sum(nodes for nodes, cut in zip(below, cuts) if cut)
    assert saved == 145_292
    assert run_search(query).nodes_expanded == 386_365 - saved == 241_073


@pytest.mark.parametrize("n, constraint, d, nodes", [
    (22, "plain", 10, 484), (28, "plain", 13, 784), (33, "plain", 16, 1_089),
    (41, "plain", 20, 1_681), (13, "pandiagonal", 5, 169)])
def test_self_mirrored_first_rows_are_not_slowed(n, constraint, d, nodes):
    # a shift square's row 0 is its own mirror image, so these probes place each cell once
    first = next(first_bands(n, d))
    assert first in mirror_images(first, n)
    result = run_search(SearchQuery(n=n, constraint=constraint, min_distance=d, mode="exists"))
    assert result.complete and result.count == 1 and result.nodes_expanded == nodes


_SOUNDNESS = ([(n, "plain", None) for n in range(3, 9)]
              + [(n, "pandiagonal", None) for n in (5, 7, 11)]
              + [(a * b, "sudoku", (a, b)) for a, b in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
                                                        (3, 3))])


@pytest.mark.parametrize("n, constraint, shape", _SOUNDNESS)
def test_exists_agrees_with_count_at_every_distance(n, constraint, shape):
    # from d = 1 to one above the upper bound: exists finds a square iff count does (a
    # count starved after finding one still proves one), the witness passes the
    # validators, and it is the uncut walk's witness after no more nodes.  The one
    # exception is pandiagonal 11 below its maximum: its count walk, in bands of three
    # rows, meets no square at d = 1..3 in 2 * 10**4 placements (none at d = 1 and 2 in
    # 2 * 10**6), so there the construction behind the lower bound decides
    sudoku = SudokuShape(*shape) if shape else None
    entry = known_bounds(constraint, n=n) if shape is None else \
        known_bounds(constraint, a=shape[0], b=shape[1])
    for d in range(1, entry.upper + 2):
        counted = run_search(SearchQuery(n=n, constraint=constraint, shape=sudoku,
                                         min_distance=d, node_budget=2 * 10**4))
        if constraint == "pandiagonal" and n == 11 and d <= 3:
            assert not counted.complete and d <= entry.lower, d
            exists = 1
        else:
            assert counted.complete or counted.count, d
            exists = min(1, counted.count)
        query = SearchQuery(n=n, constraint=constraint, shape=sudoku, min_distance=d,
                            mode="exists", node_budget=10**5)
        found = run_search(query)
        assert found.complete and found.count == exists, d
        count, _, nodes, complete, leaves, _ = _uncut_walk(query)
        assert complete and count == found.count and nodes >= found.nodes_expanded, d
        assert [row_tuples(w) for w in found.witnesses] == \
            [tuple(leaf[i:i + n] for i in range(0, n * n, n)) for leaf in leaves], d
        for w in found.witnesses:
            assert validate_latin(w).verdict and inner_distance(w).inner_distance >= d
            if constraint == "pandiagonal":
                assert validate_pandiagonal(w).verdict
            if sudoku:
                assert validate_sudoku(w, sudoku).verdict


@pytest.mark.parametrize("n, constraint, shape, d",
                         [(11, "pandiagonal", None, d) for d in (1, 2, 3, 4)]
                         + [(12, "sudoku", (3, 4), 4), (16, "sudoku", (4, 4), 6)])
def test_low_distance_probes_find_a_witness_early(n, constraint, shape, d):
    result = run_search(SearchQuery(n=n, constraint=constraint,
                                    shape=SudokuShape(*shape) if shape else None,
                                    min_distance=d, mode="exists", node_budget=10**4))
    assert result.complete and result.count == 1
    rows = row_tuples(result.witnesses[0])
    assert min_adjacent_distance(rows) >= d
    assert is_sudoku(rows, *shape) if shape else is_pandiagonal(rows)


def test_complete_queries_expand_the_same_tree():
    # plain squares are stacked row by row, as the set-based row counter stacks them under
    # the corner, negation and transposition rules; squares counts the squares with symbol
    # 1 in the corner and row 0 no greater than its negation, a twin for each leaf whose
    # row 0 is below column 0 and its negation.  Pandiagonal squares are filled cell by
    # cell in bands of three rows, as the set-based cell counter fills them.
    for n, constraint, d, nodes, squares in [(6, "plain", 2, 165, 56),
                                             (8, "plain", 3, 656, 170),
                                             (13, "pandiagonal", 5, 400, 4)]:
        tree = row_prefix_count(n, d) if constraint == "plain" else \
            pandiagonal_prefix_count(n, d)
        assert tree == (nodes, squares)
        for mode in ("count", "enumerate"):
            query = SearchQuery(n=n, constraint=constraint, min_distance=d, mode=mode)
            result = run_search(query)
            assert result.complete and result.nodes_expanded == nodes, query
            assert result.count == 2 * n * squares, query


@pytest.mark.parametrize("n, count", [(5, 240), (7, 56), (11, 88), (13, 104), (17, 136),
                                      (19, 152), (23, 184)])
def test_pandiagonal_maxima_expand_the_band_tree(n, count):
    # at the maximum d = (n-3)/2 the count walk expands the set-based counter's tree in bands
    # of three rows and counts its squares; the counts read 8n for n = 7..23, a conjecture
    # checked that far and no further
    d = (n - 3) // 2
    nodes, squares = pandiagonal_prefix_count(n, d)
    result = run_search(SearchQuery(n=n, constraint="pandiagonal", min_distance=d))
    assert result.complete and result.nodes_expanded == nodes
    assert result.count == 2 * n * squares == count


def _cell_walk(query):
    """The cell walk's count of a query run_search answers with the row walk."""
    count, twins, nodes, complete, _, _ = _walk(_Context(query), query.node_budget, False, False)
    assert complete
    return nodes, count + twins


@pytest.mark.parametrize("n, d, nodes, squares", [(6, 2, 1_300, 56), (8, 3, 7_253, 170)])
def test_the_cell_walk_expands_the_set_based_cell_tree(n, d, nodes, squares):
    # the cell walk still fills count and enumerate queries of plain squares with too
    # many rows; on small ones it must expand the tree of the set-based cell counter
    assert row_major_prefix_count(n, d) == (nodes, squares)
    assert _cell_walk(SearchQuery(n=n, min_distance=d)) == (nodes, squares)


# d = 1 admits every Latin square: the numbers of Latin squares (OEIS A002860) and of
# Sudoku squares, found outside this code.  rows is how many rows the row walk stacks.
_PUBLISHED = [pytest.param(n, shape, rows, want, id=f"sudoku-{shape[0]}-{shape[1]}" if shape
                           else f"plain-{n}")
              for n, shape, rows, want in [(2, None, 2, 2), (3, None, 6, 12), (4, None, 24, 576),
                                           (4, (2, 2), 24, 288), (5, None, 120, 161_280)]]


@pytest.mark.parametrize("n, shape, rows, want", _PUBLISHED + [
    pytest.param(6, (2, 3), 720, 28_200_960, marks=pytest.mark.slow, id="sudoku-2-3"),
    pytest.param(6, None, 720, 812_851_200, marks=pytest.mark.slow, id="plain-6")])
def test_distance_1_counts_are_the_published_numbers(n, shape, rows, want):
    assert len(_rows(n, 1)[0]) == rows
    result = run_search(SearchQuery(n=n, constraint="sudoku" if shape else "plain",
                                    shape=SudokuShape(*shape) if shape else None, min_distance=1))
    assert result.complete and result.count == want


@pytest.mark.parametrize("n, shape, rows, want", _PUBLISHED)
def test_the_cell_walk_counts_the_published_numbers(n, shape, rows, want):
    query = SearchQuery(n=n, constraint="sudoku" if shape else "plain",
                        shape=SudokuShape(*shape) if shape else None, min_distance=1)
    assert _cell_walk(query)[1] * (n if n == 2 else 2 * n) == want


@pytest.mark.parametrize("lead, total", [(8, 64), (9, 72), (17, 136)])
def test_a_whole_word_of_rows_and_one_row_more(lead, total):
    # no listing has 63 to 65 rows; the first lead rows of plain 8 d=3, which start with 1,
    # and their translations make 64 rows, the last one bit 63 of a word, 72, and 136, the
    # last one bit 7 of a third word
    rows, near = _rows(8, 3)
    listed = np.concatenate([(rows[:lead] + s - 1) % 8 + 1 for s in range(8)])
    listed = listed[np.lexsort(listed.T[::-1])]
    assert len(listed) == total
    tuples = tuple(map(tuple, listed.tolist()))
    count, twins, nodes, complete, leaves, _ = _row_walk(listed, near, None, 10**9, True)
    assert complete and (nodes, count + twins) == row_prefix_count(8, 3, rows=tuples)
    stacks = [stack for stack in row_prefixes(8, 3, rows=tuples) if len(stack) == 8]
    # the leaves come back as one (L, n*n) array in the narrowest dtype
    assert leaves.dtype == np.uint8 and leaves.shape == (count, 64)
    assert [tuple(map(tuple, leaf)) for leaf in leaves.reshape(-1, 8, 8).tolist()] == stacks
    assert any(tuples[-1] in stack for stack in stacks)


@pytest.mark.parametrize("a, b, d, cells, rows", [
    pytest.param(a, b, d, cells, rows, id=f"{a}-{b}-{d}-{cells}")
    for a, b, d, cells, rows in [(2, 2, 1, 212, 53), (2, 3, 2, 136, 23), (3, 2, 2, 119, 19),
                                 (2, 4, 3, 254, 35), (2, 5, 4, 384, 47), (3, 3, 3, 5_932, 601),
                                 (3, 3, 4, 6, 1)]])
def test_sudoku_walk_matches_the_set_based_prefix_count(a, b, d, cells, rows):
    # run_search stacks rows; the cell walk goes band by band, each band column by
    # column.  Square blocks also keep one square of each transposed pair.
    prefixes, squares = row_prefix_count(a * b, d, (a, b))
    assert prefixes == rows
    query = SearchQuery(constraint="sudoku", shape=SudokuShape(a, b), min_distance=d)
    result = run_search(query)
    assert result.complete and result.nodes_expanded == rows
    assert result.count == 2 * a * b * squares
    assert sudoku_prefix_count(a, b, d) == _cell_walk(query) == (cells, squares)


@pytest.mark.parametrize("n, constraint, shape, d",
                         [(5, "plain", None, 2), (6, "plain", None, 2), (7, "pandiagonal", None, 2),
                          (4, "sudoku", (2, 2), 1), (9, "sudoku", (3, 3), 3)])
def test_complete_lists_are_closed_under_transposition_and_symbol_maps(n, constraint, shape, d):
    # the walk keeps one square of each transposed pair; the list must hold both
    result = run_search(SearchQuery(n=n, constraint=constraint, min_distance=d, mode="enumerate",
                                    shape=SudokuShape(*shape) if shape else None))
    rows = [row_tuples(w) for w in result.witnesses]
    assert result.complete and len(rows) == result.count > 0
    keep = (lambda r: is_sudoku(r, *shape)) if shape else \
        is_pandiagonal if constraint == "pandiagonal" else (lambda r: True)
    assert all(keep(r) and min_adjacent_distance(r) >= d for r in rows)
    squares = np.array(rows)
    listed = {square.tobytes() for square in squares}
    assert len(listed) == result.count
    images = [squares.transpose(0, 2, 1)]
    images += [(sign * (squares - 1) + shift) % n + 1 for sign in (1, -1) for shift in range(n)]
    for image in images:
        assert {square.tobytes() for square in image} == listed


def test_enumeration_matches_the_oracle_in_order():
    squares = list(all_latin_squares(4))
    assert len(squares) == 576
    # at n = 2 negation is the identity, so both tie bits always move together
    cases = [(SearchQuery(n=2, min_distance=1, mode="enumerate"), list(all_latin_squares(2))),
             (SearchQuery(n=4, min_distance=1, mode="enumerate"), squares),
             (SearchQuery(n=4, min_distance=2, mode="enumerate"),
              [rows for rows in squares if min_adjacent_distance(rows) >= 2]),
             (SearchQuery(constraint="sudoku", shape=SudokuShape(2, 2), min_distance=1,
                          mode="enumerate"), [rows for rows in squares if is_sudoku(rows, 2, 2)]),
             (SearchQuery(n=4, constraint="pandiagonal", min_distance=1, mode="enumerate"),
              [rows for rows in squares if is_pandiagonal(rows)])]
    for query, want in cases:
        result = run_search(query)
        assert result.complete and result.count == len(want), query
        assert [row_tuples(w) for w in result.witnesses] == want, query


def test_nonexistence_is_proven_on_one_corner_symbol():
    # the seed engine walked all n corner symbols: 12 and 45 nodes; one corner
    # symbol takes 2 and 9, and one of each negation pair (T + 1) / 2 of those for
    # odd n.  Plain 6 d=3 keeps both: its only cell (0, 1) symbol is 4 = 1 + n/2.
    # The (3, 3)-Sudoku walk, band by band and column by column, places 6 symbols,
    # as the set-based prefix counter does.
    cases = [(SearchQuery(n=6, min_distance=3, mode="exists"), 2),
             (SearchQuery(constraint="sudoku", shape=SudokuShape(3, 3), min_distance=4,
                          mode="exists"), 6),
             (SearchQuery(n=5, constraint="pandiagonal", min_distance=2, mode="exists"), 5)]
    for query, nodes in cases:
        result = run_search(query)
        assert result.complete and result.count == 0 and not result.witnesses, query
        assert result.nodes_expanded == nodes, query


def test_complete_iff_the_tree_fits_the_budget():
    # plain 6 d=2 is a tree of 165 row placements
    assert row_prefix_count(6, 2) == (165, 56)
    for query, complete in [(SearchQuery(n=6, min_distance=1, node_budget=5000), False),
                            (SearchQuery(n=6, min_distance=2, node_budget=165), True),
                            (SearchQuery(n=6, min_distance=2, node_budget=164), False)]:
        assert run_search(query).complete == complete, query


@pytest.mark.parametrize("query", [
    SearchQuery(n=6, min_distance=1, node_budget=5000),
    SearchQuery(n=6, min_distance=2, mode="enumerate", node_budget=164),
    SearchQuery(n=6, min_distance=1, node_budget=100_000),
    SearchQuery(n=8, min_distance=2, mode="exists", node_budget=10),
    SearchQuery(constraint="sudoku", shape=SudokuShape(3, 6), min_distance=7, mode="exists",
                node_budget=1000),
    SearchQuery(n=11, constraint="pandiagonal", min_distance=3, node_budget=10**4),
])
def test_a_starved_walk_stops_one_node_past_the_budget(query):
    result = run_search(query)
    assert not result.complete and result.nodes_expanded == query.node_budget + 1


def test_run_search_takes_workers_positionally_and_only_one():
    query = SearchQuery(n=5, min_distance=2)
    assert run_search(query, 1) == run_search(query)
    # like every other integer argument of the search, workers is no bool, float or string
    for workers in (0, 2, True, 1.0, "1"):
        with pytest.raises(ParameterError):
            run_search(query, workers)


def test_sudoku_witnesses_are_laid_out_row_by_row():
    # every witness comes back row-major and a complete list sorted
    for shape, d in [(SudokuShape(2, 3), 2), (SudokuShape(2, 4), 3)]:
        query = SearchQuery(constraint="sudoku", shape=shape, min_distance=d, mode="enumerate")
        result = run_search(query)
        assert result.complete and result.count == len(result.witnesses) > 0
        rows = [row_tuples(w) for w in result.witnesses]
        assert rows == sorted(rows)
        assert all(is_sudoku(r, shape.a, shape.b) and min_adjacent_distance(r) >= d
                   for r in rows)
        first = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=d,
                                       mode="exists"))
        assert first.witnesses[0] in result.witnesses
    # a starved walk's witnesses are the squares it stacked in its first budget rows, in
    # that order, and unexpanded
    placed = list(islice(row_prefixes(9, 3, (3, 3)), 300))
    starved = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(3, 3), min_distance=3,
                                     mode="enumerate", node_budget=300))
    assert not starved.complete
    assert [row_tuples(w) for w in starved.witnesses] == [s for s in placed if len(s) == 9]
    assert starved.count == len(starved.witnesses) == 45


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_random_row_walks_match_the_row_prefixes(data):
    # any count or enumerate query of plain order <= 6 or a small Sudoku shape, any
    # distance, any budget: the walk places the oracle's stacks, in its order, until the
    # tree ends or the budget + 1-th placement
    n, shape = data.draw(st.sampled_from([(n, None) for n in range(2, 7)]
                                         + [(4, (2, 2)), (6, (2, 3)), (6, (3, 2))]))
    d = data.draw(st.integers(1, n // 2 + 1))
    mode = data.draw(st.sampled_from(("count", "enumerate")))
    budget = data.draw(st.integers(1, 200))
    assert _rows(n, d) is not None
    result = run_search(SearchQuery(n=n, constraint="sudoku" if shape else "plain",
                                    shape=SudokuShape(*shape) if shape else None,
                                    min_distance=d, mode=mode, node_budget=budget))
    placed = list(islice(row_prefixes(n, d, shape), budget + 1))
    assert result.nodes_expanded == len(placed)
    assert result.complete == (len(placed) <= budget)
    assert len(result.witnesses) == (result.count if mode == "enumerate" else 0)
    if result.complete:
        prefixes, squares = row_prefix_count(n, d, shape)
        assert prefixes == len(placed) and result.count == squares * (n if n == 2 else 2 * n)
    else:
        leaves = [stack for stack in placed[:budget] if len(stack) == n]
        assert result.count == len(leaves)
        if mode == "enumerate":
            assert [row_tuples(w) for w in result.witnesses] == leaves


# the classes of the cell walk's property test and, for each, the least distance it draws;
# at d = 1 the oracle's set-based walk takes seconds on plain 5 and 6, pandiagonal 7 and
# Sudoku (2,3) and (3,2)
_CELL_WALKS = ([("plain", n, None, 1) for n in range(2, 5)] + [("plain", 5, None, 2),
                                                               ("plain", 6, None, 2)]
               + [("pandiagonal", 5, None, 1), ("pandiagonal", 7, None, 2)]
               + [("sudoku", 4, (2, 2), 1), ("sudoku", 6, (2, 3), 2), ("sudoku", 6, (3, 2), 2)])


def _in_class(rows, constraint, shape):
    return (is_sudoku(rows, *shape) if shape else
            is_pandiagonal(rows) if constraint == "pandiagonal" else is_latin(rows))


@functools.cache
def _cell_prefix_count(constraint, n, shape, d):
    if shape:
        return sudoku_prefix_count(*shape, d)
    if constraint == "pandiagonal":
        return pandiagonal_prefix_count(n, d)
    return row_major_prefix_count(n, d)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_random_cell_walks_match_the_cell_prefixes(data):
    # any count or enumerate walk of a small class, any distance, any budget: the cell walk
    # places the oracle's prefixes until the tree ends or the budget + 1-th placement
    constraint, n, shape, least = data.draw(st.sampled_from(_CELL_WALKS))
    d = data.draw(st.integers(least, n // 2 + 1))
    mode = data.draw(st.sampled_from(("count", "enumerate")))
    prefixes, squares = _cell_prefix_count(constraint, n, shape, d)
    budget = data.draw(st.integers(1, 2 * prefixes))
    query = SearchQuery(n=n, constraint=constraint, shape=shape and SudokuShape(*shape),
                        min_distance=d, mode=mode)
    count, twins, nodes, complete, leaves, twin_leaves = _walk(_Context(query), budget,
                                                               mode == "enumerate", False)
    assert nodes == min(prefixes, budget + 1)
    assert complete == (prefixes <= budget)
    if complete:
        assert count + twins == squares
    if mode == "enumerate":
        assert len(leaves) == count and len(twin_leaves) == twins
        for leaf in leaves:
            rows = [leaf[r * n:(r + 1) * n] for r in range(n)]
            assert rows[0][0] == 1 and min_adjacent_distance(rows) >= d
            assert _in_class(rows, constraint, shape)
    else:
        assert leaves == twin_leaves == []


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_random_exists_walks_match_the_cell_prefixes(data):
    # any exists probe of a small class, any distance, any budget: a witness is a square of the
    # class at distance >= d, "none" means the oracle counts no square, and a probe that does
    # not fit stops at placement budget + 1 with nothing found
    constraint, n, shape, least = data.draw(st.sampled_from(_CELL_WALKS))
    d = data.draw(st.integers(least, n // 2 + 1))
    budget = data.draw(st.integers(1, 5_000))
    result = run_search(SearchQuery(n=n, constraint=constraint, shape=shape and SudokuShape(*shape),
                                    min_distance=d, mode="exists", node_budget=budget))
    for witness in result.witnesses:
        rows = row_tuples(witness)
        assert rows[0][0] == 1 and min_adjacent_distance(rows) >= d
        assert _in_class(rows, constraint, shape)
    if result.complete:
        _, squares = _cell_prefix_count(constraint, n, shape, d)
        assert result.count == len(result.witnesses) == min(1, squares)
        assert result.nodes_expanded <= budget
    else:
        assert (result.nodes_expanded, result.count, result.witnesses) == (budget + 1, 0, ())


def _padded(ctx, width):
    """ctx with each record padded to width by links to the spare cell, which no unit holds."""
    spare = ctx.n * ctx.n
    ctx.cells = tuple(record[:-2] + (spare,) * (width - len(record)) + record[-2:]
                      for record in ctx.cells)
    return ctx


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.data())
def test_fewer_unit_walks_match_the_four_unit_walk(data):
    # the 2- and 3-unit loops of plain and Sudoku records do the 4-unit loop's work less the
    # links to the spare cell: on the same records padded with spare links, the 4-unit walk
    # (and for plain records the 3-unit one) returns the same tuple, at any distance, in any
    # mode, complete or starved
    constraint, n, shape, least = data.draw(
        st.sampled_from([walk for walk in _CELL_WALKS if walk[0] != "pandiagonal"]))
    d = data.draw(st.integers(least, n // 2 + 1))
    mode = data.draw(st.sampled_from(_MODES))
    budget = data.draw(st.integers(1, 2 * _cell_prefix_count(constraint, n, shape, d)[0]))
    query = SearchQuery(n=n, constraint=constraint, shape=shape and SudokuShape(*shape),
                        min_distance=d, mode=mode)
    width = len(_Context(query).cells[0])
    assert width == (6 if shape else 5)
    walked = [_walk(_padded(_Context(query), w), budget, mode != "count", mode == "exists")
              for w in range(width, 8)]
    assert walked[1:] == walked[:-1]


def test_budget_exhaustion_is_reported_not_silent():
    starved = run_search(SearchQuery(n=6, min_distance=1, node_budget=50))
    assert not starved.complete
    generous = run_search(SearchQuery(n=6, min_distance=2))
    assert generous.complete and generous.count > 0


def test_starved_results_are_not_expanded_by_symmetry():
    # only what the walk placed: no symbol map or transposition is applied to a
    # partial result (plain 6 d=2 has 672 squares; the walk stacks 35 in 165 rows,
    # and 21 of them stand for a transposed twin too)
    placed = list(islice(row_prefixes(6, 2), 100))
    starved = run_search(SearchQuery(n=6, min_distance=2, mode="enumerate", node_budget=100))
    assert not starved.complete
    assert [row_tuples(w) for w in starved.witnesses] == [s for s in placed if len(s) == 6]
    assert starved.count == len(starved.witnesses) == 20
    assert all(row_tuples(w)[0][0] == 1 for w in starved.witnesses)
    counted = run_search(SearchQuery(n=6, min_distance=2, node_budget=100))
    assert not counted.complete and counted.count == starved.count
    # a starved walk keeps the squares it placed before it stopped
    starved = run_search(SearchQuery(n=6, min_distance=1, mode="enumerate", node_budget=20_000))
    assert not starved.complete and starved.count > 0
    assert len(starved.witnesses) == starved.count
    assert all(row_tuples(w)[0][0] == 1 for w in starved.witnesses)


def test_odd_orders_count_and_enumerate_every_latin_square():
    squares = list(all_latin_squares(3))
    result = run_search(SearchQuery(n=3, min_distance=1, mode="enumerate"))
    assert result.complete and result.count == len(squares) == 12
    assert [row_tuples(w) for w in result.witnesses] == squares
    # the number of Latin squares of order 5 (OEIS A002860)
    result = run_search(SearchQuery(n=5, min_distance=1))
    assert result.complete and result.count == 161_280


# the SHA-256 of the concatenated cells of plain 7 d=2's 31 080 squares, in list order
PLAIN_7_D2_DIGEST = "83b864e48dd42745d6bc83a6c961e6deae031ac596d39e1fc949779f6cef8291"


def test_a_large_enumeration_keeps_its_order():
    result = run_search(SearchQuery(n=7, min_distance=2, mode="enumerate"))
    assert result.complete and result.count == len(result.witnesses) == 31_080
    digest = hashlib.sha256(b"".join(w.cells.tobytes() for w in result.witnesses))
    assert digest.hexdigest() == PLAIN_7_D2_DIGEST


@pytest.mark.parametrize("n", range(2, 9))
def test_rows_are_the_admissible_rows_in_order(n):
    # wherever the row-walk rule lets a query stack rows, the listing is the oracle's, in its
    # order, and near[s] lists the symbols far from s
    for d in range(1, n // 2 + 2):
        listed = _rows(n, d)
        if listed is None:
            continue
        rows, near = listed
        assert tuple(map(tuple, rows.tolist())) == admissible_rows(n, d), (n, d)
        assert near.tolist()[0] == [0] * near.shape[1]
        for s in range(1, n + 1):
            far = [v for v in range(1, n + 1) if min((s - v) % n, (v - s) % n) >= d]
            assert sorted(near[s].tolist()) == far, (n, d, s)


def test_rows_sort_as_sorted_sorts_tuples():
    # symbols above 255 take two bytes each, which must compare high byte first
    rng = np.random.default_rng(5)
    for dtype, top in ((np.uint8, 9), (np.uint16, 300)):
        stack = rng.integers(1, top + 1, size=(500, 6)).astype(dtype)
        stack[:200, :4] = stack[0, :4]
        if top > 255:
            stack[:50, 5] = 256  # a zero byte at the end of the row
        rows = [tuple(row) for row in stack.tolist()]
        assert [rows[i] for i in _lex_order(stack)] == sorted(rows), dtype


@pytest.mark.parametrize("query", [
    SearchQuery(n=5, min_distance=2, mode="enumerate"),  # the row walk
    SearchQuery(n=7, constraint="pandiagonal", min_distance=2, mode="enumerate"),  # the cell walk
    SearchQuery(n=2, min_distance=1, mode="enumerate"),
    SearchQuery(constraint="sudoku", shape=SudokuShape(2, 3), min_distance=2, mode="exists"),
    SearchQuery(n=6, min_distance=2, mode="enumerate", node_budget=100),
    SearchQuery(n=7, constraint="pandiagonal", min_distance=2, mode="enumerate", node_budget=300),
])
def test_witnesses_are_read_only_views_of_one_array(query):
    result = run_search(query)
    n, witnesses = query.n, result.witnesses
    assert len(witnesses) == result.count > 0
    for w in witnesses:
        assert w.cells.dtype == np.int64 and w.cells.shape == (n, n)
        assert not w.cells.flags.writeable
        assert w.cells.base is witnesses[0].cells.base is not None
        grid = SquareGrid(w.rows())
        assert w == grid and hash(w) == hash(grid)
    rows = [row_tuples(w) for w in witnesses]
    if result.complete and query.mode == "enumerate":
        assert all(map(tuple.__lt__, rows, rows[1:]))
    elif not result.complete:
        # a starved list is the walk's own leaves, in the order it met them
        listed = _rows(n, query.min_distance) if query.constraint == "plain" else None
        walked = (_row_walk(*listed, None, query.node_budget, True) if listed
                  else _walk(_Context(query), query.node_budget, True, False))
        # the cell walk's leaves are cell tuples, the row walk's one (L, n*n) array
        leaves = np.asarray(walked[4]).reshape(-1, n, n).tolist()
        assert rows == [tuple(map(tuple, leaf)) for leaf in leaves]


def _sigma(s, n):
    return (2 - s - 1) % n + 1


def _check_mirror_tables(lex, n, a):
    assert lex[:2] == (n, a)
    read, mirror, prevs = lex[2:]
    # the first band's cells in visiting order, column by column; the cells that
    # reversing the columns puts there; their prev neighbours (the left one, the upper
    # one in column 0, the spare cell n*n at the corner)
    band = [(r, c) for c in range(n) for r in range(a)]
    grid = list(range(n * n + 1))
    assert read(grid) == tuple(r * n + c for r, c in band)
    assert mirror(grid) == tuple(r * n + n - 1 - c for r, c in band)
    assert prevs == tuple(r * n + c - 1 if c else (r - 1) * n if r else n * n for r, c in band)


@pytest.mark.parametrize("n, constraint, shape",
                         [(n, "plain", None) for n in range(2, 31)]
                         + [(n, "pandiagonal", None) for n in (5, 7, 13)]
                         + [(a * b, "sudoku", (a, b))
                            for a, b in ((2, 3), (3, 3), (3, 4), (3, 2), (4, 3), (1, 4),
                                         (4, 1), (2, 1), (2, 2))]
                         + [(n, "pandiagonal", None) for n in (2, 3, 4)])
def test_context_tables_match_their_definition(n, constraint, shape):
    a, b = shape or (1, n)
    full = (1 << n) - 1
    lead = sum(1 << (t - 1) for t in range(1, n + 1) if t <= _sigma(t, n))
    strict = sum(1 << (t - 1) for t in range(1, n + 1) if t < _sigma(t, n))
    # Sudoku squares are visited in bands of a rows, count and enumerate walks of
    # pandiagonal squares in bands of min(3, n) rows, the last one ragged, and the rest, exists
    # walks of pandiagonal squares included, row by row
    orders = {"count": band_column_order(n, min(3, n) if constraint == "pandiagonal" else a),
              "exists": band_column_order(n, a)}
    spare = n * n
    transposable = constraint != "sudoku" or a == b
    # tie bit 1 compares row 0 with column 0, bit 2 with the negated column 0
    images = {1: lambda v: v, 2: lambda v: _sigma(v, n)}
    # a cell's units: its row and its column, then its block or its forward and back
    # diagonals; each record links exactly these, two for plain squares, three for Sudoku
    # squares and four for pandiagonal ones
    def units(r, c):
        if constraint == "sudoku":
            return ("row", r), ("column", c), ("block", r // a, c // b)
        if constraint == "pandiagonal":
            return ("row", r), ("column", c), ("forward", (r - c) % n), ("back", (r + c) % n)
        return ("row", r), ("column", c)
    for d in sorted({1, 2, n // 4, n // 2, n // 2 + 1} - {0}):
        adm = [full] + [sum(1 << (v - 1) for v in range(1, n + 1)
                            if min((u - v) % n, (v - u) % n) >= d)
                        for u in range(1, n + 1)]
        for mode, order in orders.items():
            ctx = _Context(SearchQuery(n=n, constraint=constraint, min_distance=d, mode=mode,
                                       shape=SudokuShape(a, b) if shape else None))
            assert ctx.adm == adm, d
            assert ctx.above == [sum(1 << (v - 1) for v in range(s + 1, n + 1))
                                 for s in range(n + 1)]
            assert len(ctx.cells) == n * n
            # transposable count walks negate symbols to compare row 0 with the negated
            # column 0; exists walks keep every square of a transposed pair
            assert ctx.neg == ([0] + [_sigma(v, n) for v in range(1, n + 1)]
                               if transposable and mode == "count" else [])
            at = {cell: k for k, cell in enumerate(order)}
            # for each cell in visiting order, the last cell visited before it in each of its
            # units, or the spare cell
            last, before = {}, []
            for r, c in order:
                before.append(tuple(last.get(unit, spare) for unit in units(r, c)))
                last.update((unit, r * n + c) for unit in units(r, c))
            for k, (cell, *links, nbr, lex) in enumerate(ctx.cells):
                r, c = order[k]
                assert cell == r * n + c, (d, mode, k)
                assert len(links) == {"plain": 2, "sudoku": 3, "pandiagonal": 4}[constraint]
                assert tuple(links) == before[k], (d, mode, k)
                p1, p2 = links[:2]
                left = r * n + c - 1 if c else spare
                up = (r - 1) * n + c if r else spare
                # both neighbours are filled before the cell
                assert all(j == spare or at[divmod(j, n)] < k for j in (left, up))
                # the walk reads both neighbours through the row and column links
                assert (p1, p2) == (left, up), (d, mode, k)
                allowed = [full] * (n + 1)
                if (r, c) == (0, 0):
                    allowed = [1] * (n + 1)
                elif (r, c) == (0, 1):
                    allowed = [lead] * (n + 1)
                elif (r, c) == (0, 2) and n % 2 == 0 and n > 2:
                    allowed[1 + n // 2] = strict
                assert nbr == [m & mask for m, mask in zip(adm, allowed)], (d, mode, k)
                if mode == "exists":
                    # the first cell of band 1, if there is one, checks the first band's
                    # mirror image
                    if a < n and k == a * n:
                        assert (r, c) == (a, 0)
                        _check_mirror_tables(lex, n, a)
                    else:
                        assert lex == 0, (d, mode, k)
                    continue
                # pair i = r + c, cells (0, i) and (i, 0), is decided at the later of the two:
                # with tie bits t, a column cell admits v with v >= row 0's x for bit 1 and
                # -v >= x for bit 2, a row cell v <= column 0's x for bit 1 and v <= -x for
                # bit 2; t = 3 admits what both bits admit, t = 0 cuts nothing
                i = r + c
                if transposable and i and not r * c and at[c, r] < k:
                    assert lex[:2] == (i, c * n + r), (d, mode, k)
                    assert len(lex[2]) == 4 and lex[2][0] is None
                    for t in (1, 2, 3):
                        assert lex[2][t][1:] == [
                            sum(1 << (v - 1) for v in range(1, n + 1)
                                if all(f(v) >= x if c == 0 else v <= f(x)
                                       for bit, f in images.items() if t & bit))
                            for x in range(1, n + 1)], (d, mode, k, t)
                else:
                    assert lex == 0, (d, mode, k)


@pytest.mark.parametrize("n, a", [(2, 1), (7, 1), (12, 1), (6, 2), (6, 3), (12, 3), (12, 4)])
def test_mirror_tables_match_their_definition(n, a):
    # an exists walk in bands of a rows keeps its mirror tables at cell (a, 0), the first
    # cell of band 1: plain squares are walked in bands of one row, (a, b)-Sudoku squares
    # in bands of a rows
    shape = SudokuShape(a, n // a) if a > 1 else None
    ctx = _Context(SearchQuery(n=n, constraint="sudoku" if shape else "plain", min_distance=1,
                               mode="exists", shape=shape))
    order = band_column_order(n, a)
    k = order.index((a, 0))
    _check_mirror_tables(ctx.cells[k][-1], n, a)


def test_max_distance_via_search():
    assert max_distance_via_search("plain", 6) == 2
    assert max_distance_via_search("pandiagonal", 7) == 2
    assert max_distance_via_search("sudoku", (2, 2)) == 1
    assert max_distance_via_search("sudoku", SudokuShape(2, 3)) == 2
    with pytest.raises(NonexistenceError):
        max_distance_via_search("pandiagonal", 6)
    with pytest.raises(ParameterError):
        max_distance_via_search("diagonal", 6)
    # sizes are integers, numpy's included; nothing is truncated or parsed
    assert max_distance_via_search("plain", np.int64(6)) == 2
    assert max_distance_via_search("sudoku", (np.int32(2), np.int64(3))) == 2
    for kind, size in [("plain", 5.9), ("plain", "7"), ("pandiagonal", 7.0), ("pandiagonal", "7"),
                       ("sudoku", (True, 3)), ("sudoku", (2.0, 3)), ("sudoku", ("2", 3)),
                       ("sudoku", (2, 3.5)), ("sudoku", 6), ("sudoku", (2, 3, 4)),
                       ("sudoku", "23")]:
        with pytest.raises(ParameterError):
            max_distance_via_search(kind, size)


def test_max_distance_via_search_reports_open_bracket_on_starvation():
    with pytest.raises(SearchIncompleteError) as info:
        max_distance_via_search("plain", 7, node_budget=20)
    assert info.value.lower == 3
    assert info.value.upper <= 3
    with pytest.raises(SearchIncompleteError) as info:
        max_distance_via_search("sudoku", (3, 6), node_budget=1000)
    assert (info.value.lower, info.value.upper) == (6, 7)
