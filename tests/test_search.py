import itertools
import time

import pytest

from latindist import (NonexistenceError, ParameterError,
                       SearchIncompleteError, SearchQuery, SudokuShape,
                       inner_distance, max_distance_via_search, run_search,
                       validate_latin, validate_pandiagonal, validate_sudoku)

from latindist.search import _task_entry
from oracle import (all_latin_squares, count_by_filter, is_pandiagonal, is_sudoku,
                    min_adjacent_distance)


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
    # shape alone is enough for sudoku queries
    q = SearchQuery(constraint="sudoku", shape=SudokuShape(2, 2), min_distance=1)
    assert q.n == 4


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
    rows = [w.row_tuples() for w in result.witnesses]
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
    shape = SudokuShape(3, 4)
    result = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=4,
                                    mode="exists", node_budget=10**6))
    assert result.complete and result.count == 1
    assert validate_sudoku(result.witnesses[0], shape).verdict


def test_complete_queries_expand_the_same_tree():
    # node counts of the seed engine, which walked every corner symbol;
    # the pinned walk is one of n symbol shifts of that tree
    cases = [(SearchQuery(n=6, min_distance=2), 24_636),
             (SearchQuery(n=8, min_distance=3), 196_096),
             (SearchQuery(constraint="sudoku", shape=SudokuShape(3, 3), min_distance=3), 231_165),
             (SearchQuery(n=13, constraint="pandiagonal", min_distance=5), 356_993)]
    for query, nodes in cases:
        result = run_search(query)
        assert result.complete and result.nodes_expanded * query.n == nodes, query


def test_enumeration_matches_the_oracle_in_order():
    squares = list(all_latin_squares(4))
    assert len(squares) == 576
    cases = [(SearchQuery(n=4, min_distance=1, mode="enumerate"), lambda rows: True),
             (SearchQuery(n=4, min_distance=2, mode="enumerate"),
              lambda rows: min_adjacent_distance(rows) >= 2),
             (SearchQuery(constraint="sudoku", shape=SudokuShape(2, 2), min_distance=1,
                          mode="enumerate"), lambda rows: is_sudoku(rows, 2, 2)),
             (SearchQuery(n=4, constraint="pandiagonal", min_distance=1, mode="enumerate"),
              is_pandiagonal)]
    for query, keep in cases:
        want = [rows for rows in squares if keep(rows)]
        result = run_search(query)
        assert result.complete and result.count == len(want), query
        assert [w.row_tuples() for w in result.witnesses] == want, query


def test_nonexistence_is_proven_on_one_corner_symbol():
    # the seed engine walked all n corner symbols: 12, 171 and 45 nodes
    cases = [(SearchQuery(n=6, min_distance=3, mode="exists"), 2),
             (SearchQuery(constraint="sudoku", shape=SudokuShape(3, 3), min_distance=4,
                          mode="exists"), 19),
             (SearchQuery(n=5, constraint="pandiagonal", min_distance=2, mode="exists"), 9)]
    for query, nodes in cases:
        result = run_search(query)
        assert result.complete and result.count == 0 and not result.witnesses, query
        assert result.nodes_expanded == nodes, query


def test_results_identical_for_any_worker_count():
    queries = [
        SearchQuery(n=5, min_distance=2, mode="enumerate"),
        SearchQuery(n=6, min_distance=2, mode="count"),
        SearchQuery(n=9, constraint="sudoku", shape=SudokuShape(3, 3), min_distance=3,
                    mode="count"),
    ]
    for query in queries:
        reference = run_search(query, workers=1)
        for workers in (2, 3):
            other = run_search(query, workers=workers)
            assert other.count == reference.count
            assert other.witnesses == reference.witnesses
            assert other.complete == reference.complete
            assert other.nodes_expanded == reference.nodes_expanded

    # complete iff the whole tree fits in the budget (plain 6 d=2: 4 106 nodes), any workers
    for query, complete in [(SearchQuery(n=6, min_distance=1, node_budget=5000), False),
                            (SearchQuery(n=6, min_distance=2, node_budget=4106), True),
                            (SearchQuery(n=6, min_distance=2, node_budget=4105), False)]:
        for workers in (1, 2):
            assert run_search(query, workers=workers).complete == complete, (query, workers)


def test_parallel_budget_bounds_the_work_done():
    # plain 6 d=1 has 120 first rows with the corner pinned; a task walks its rows
    # under one shared budget
    ctx_args = (6, 1, "plain", 0, 0)
    rows = [(1, *rest) for rest in itertools.permutations(range(2, 7))]
    count, nodes, complete, _ = _task_entry((ctx_args, rows, 5000, False))
    assert (nodes, complete) == (5001, False)
    # so a starved parallel query stops within a few budgets of work, not one per row
    start = time.perf_counter()
    result = run_search(SearchQuery(n=6, min_distance=1, node_budget=100_000), workers=2)
    assert not result.complete and result.nodes_expanded == 100_001
    assert time.perf_counter() - start < 10

def test_budget_exhaustion_is_reported_not_silent():
    starved = run_search(SearchQuery(n=6, min_distance=1, node_budget=50))
    assert not starved.complete
    generous = run_search(SearchQuery(n=6, min_distance=2))
    assert generous.complete and generous.count > 0


def test_max_distance_via_search():
    assert max_distance_via_search("plain", 6) == 2
    assert max_distance_via_search("pandiagonal", 7) == 2
    assert max_distance_via_search("sudoku", (2, 2)) == 1
    assert max_distance_via_search("sudoku", SudokuShape(2, 3)) == 2
    with pytest.raises(NonexistenceError):
        max_distance_via_search("pandiagonal", 6)
    with pytest.raises(ParameterError):
        max_distance_via_search("diagonal", 6)


def test_max_distance_via_search_reports_open_bracket_on_starvation():
    with pytest.raises(SearchIncompleteError) as info:
        max_distance_via_search("plain", 7, node_budget=20)
    assert info.value.lower == 3
    assert info.value.upper <= 3
    with pytest.raises(SearchIncompleteError) as info:
        max_distance_via_search("sudoku", (3, 6), node_budget=1000)
    assert (info.value.lower, info.value.upper) == (6, 7)
