import numpy as np
import pytest

from latindist import (NonexistenceError, ParameterError,
                       SearchIncompleteError, SearchQuery, SudokuShape,
                       inner_distance, max_distance_via_search, run_search,
                       validate_latin, validate_pandiagonal, validate_sudoku)

from latindist.search import _Context
from oracle import (all_latin_squares, band_column_order, count_by_filter, is_pandiagonal,
                    is_sudoku, min_adjacent_distance, row_major_prefix_count,
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
    # no (3, 6)-Sudoku square reaches d = 7: the walk proves it in 386 365 nodes
    result = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(3, 6), min_distance=7,
                                    mode="exists", node_budget=10**6))
    assert result.complete and result.count == 0 and not result.witnesses
    assert result.nodes_expanded == 386_365
    assert max_distance_via_search("sudoku", (3, 6), node_budget=10**6) == 6


@pytest.mark.parametrize("n, constraint, shape, d",
                         [(11, "pandiagonal", None, d) for d in (1, 2, 3, 4)]
                         + [(12, "sudoku", (3, 4), 4), (16, "sudoku", (4, 4), 6)])
def test_low_distance_probes_find_a_witness_early(n, constraint, shape, d):
    result = run_search(SearchQuery(n=n, constraint=constraint,
                                    shape=SudokuShape(*shape) if shape else None,
                                    min_distance=d, mode="exists", node_budget=10**4))
    assert result.complete and result.count == 1
    rows = result.witnesses[0].row_tuples()
    assert min_adjacent_distance(rows) >= d
    assert is_sudoku(rows, *shape) if shape else is_pandiagonal(rows)


def test_complete_queries_expand_the_same_tree():
    # the set-based counter walks row by row under the corner, negation and
    # transposition rules; squares counts the squares with symbol 1 in the corner
    # and row 0 no greater than its negation, a twin for each leaf whose row 0 is below c*
    for n, constraint, d, nodes, squares in [(6, "plain", 2, 1_300, 56),
                                             (8, "plain", 3, 7_253, 170),
                                             (13, "pandiagonal", 5, 11_199, 4)]:
        assert row_major_prefix_count(n, d, constraint) == (nodes, squares)
        for mode in ("count", "enumerate"):
            query = SearchQuery(n=n, constraint=constraint, min_distance=d, mode=mode)
            result = run_search(query)
            assert result.complete and result.nodes_expanded == nodes, query
            assert result.count == 2 * n * squares, query


@pytest.mark.parametrize("a, b, d, nodes",
                         [(2, 2, 1, 212), (2, 3, 2, 136), (3, 2, 2, 119), (2, 4, 3, 254),
                          (2, 5, 4, 384), (3, 3, 3, 5_932), (3, 3, 4, 6)])
def test_sudoku_walk_matches_the_set_based_prefix_count(a, b, d, nodes):
    # Sudoku squares are walked band by band, each band column by column; square
    # blocks also keep one square of each transposed pair
    prefixes, squares = sudoku_prefix_count(a, b, d)
    assert prefixes == nodes
    result = run_search(SearchQuery(constraint="sudoku", shape=SudokuShape(a, b), min_distance=d))
    assert result.complete and result.nodes_expanded == nodes
    assert result.count == 2 * a * b * squares


@pytest.mark.parametrize("n, constraint, shape, d",
                         [(5, "plain", None, 2), (6, "plain", None, 2), (7, "pandiagonal", None, 2),
                          (4, "sudoku", (2, 2), 1), (9, "sudoku", (3, 3), 3)])
def test_complete_lists_are_closed_under_transposition_and_symbol_maps(n, constraint, shape, d):
    # the walk keeps one square of each transposed pair; the list must hold both
    result = run_search(SearchQuery(n=n, constraint=constraint, min_distance=d, mode="enumerate",
                                    shape=SudokuShape(*shape) if shape else None))
    rows = [w.row_tuples() for w in result.witnesses]
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
    # plain 6 d=2 is a tree of 1 300 nodes
    for query, complete in [(SearchQuery(n=6, min_distance=1, node_budget=5000), False),
                            (SearchQuery(n=6, min_distance=2, node_budget=1300), True),
                            (SearchQuery(n=6, min_distance=2, node_budget=1299), False)]:
        assert run_search(query).complete == complete, query


@pytest.mark.parametrize("query", [
    SearchQuery(n=6, min_distance=1, node_budget=5000),
    SearchQuery(n=6, min_distance=2, mode="enumerate", node_budget=1299),
    SearchQuery(n=6, min_distance=1, node_budget=100_000),
    SearchQuery(n=8, min_distance=2, mode="exists", node_budget=10),
    SearchQuery(constraint="sudoku", shape=SudokuShape(3, 6), min_distance=7, mode="exists",
                node_budget=1000),
])
def test_a_starved_walk_stops_one_node_past_the_budget(query):
    result = run_search(query)
    assert not result.complete and result.nodes_expanded == query.node_budget + 1


def test_run_search_takes_workers_positionally_and_only_one():
    query = SearchQuery(n=5, min_distance=2)
    assert run_search(query, 1) == run_search(query)
    for workers in (0, 2):
        with pytest.raises(ParameterError):
            run_search(query, workers)


def test_sudoku_witnesses_are_laid_out_row_by_row():
    # the band-column walk meets the leaves in visiting order; every one comes back row-major
    for shape, d in [(SudokuShape(2, 3), 2), (SudokuShape(2, 4), 3)]:
        query = SearchQuery(constraint="sudoku", shape=shape, min_distance=d, mode="enumerate")
        result = run_search(query)
        assert result.complete and result.count == len(result.witnesses) > 0
        rows = [w.row_tuples() for w in result.witnesses]
        assert rows == sorted(rows)
        assert all(is_sudoku(r, shape.a, shape.b) and min_adjacent_distance(r) >= d
                   for r in rows)
        first = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=d,
                                       mode="exists"))
        assert first.witnesses[0] in result.witnesses


def test_budget_exhaustion_is_reported_not_silent():
    starved = run_search(SearchQuery(n=6, min_distance=1, node_budget=50))
    assert not starved.complete
    generous = run_search(SearchQuery(n=6, min_distance=2))
    assert generous.complete and generous.count > 0


def test_starved_results_are_not_expanded_by_symmetry():
    # only what the walk placed: no symbol map or transposition is applied to a
    # partial result (plain 6 d=2 has 672 squares; the walk places 35 in 1 300 nodes,
    # and 21 of them stand for a transposed twin too)
    starved = run_search(SearchQuery(n=6, min_distance=2, mode="enumerate", node_budget=1000))
    assert not starved.complete and 0 < starved.count < 35
    assert len(starved.witnesses) == starved.count
    assert all(w.row_tuples()[0][0] == 1 for w in starved.witnesses)
    counted = run_search(SearchQuery(n=6, min_distance=2, node_budget=1000))
    assert not counted.complete and counted.count == starved.count
    # a starved walk keeps the squares it placed before it stopped
    starved = run_search(SearchQuery(n=6, min_distance=1, mode="enumerate", node_budget=20_000))
    assert not starved.complete and starved.count > 0
    assert len(starved.witnesses) == starved.count
    assert all(w.row_tuples()[0][0] == 1 for w in starved.witnesses)


def test_odd_orders_count_and_enumerate_every_latin_square():
    squares = list(all_latin_squares(3))
    result = run_search(SearchQuery(n=3, min_distance=1, mode="enumerate"))
    assert result.complete and result.count == len(squares) == 12
    assert [w.row_tuples() for w in result.witnesses] == squares
    # the number of Latin squares of order 5 (OEIS A002860)
    result = run_search(SearchQuery(n=5, min_distance=1))
    assert result.complete and result.count == 161_280


def _sigma(s, n):
    return (2 - s - 1) % n + 1


@pytest.mark.parametrize("n, constraint, shape",
                         [(n, "plain", None) for n in range(2, 31)]
                         + [(n, "pandiagonal", None) for n in (5, 7, 13)]
                         + [(a * b, "sudoku", (a, b))
                            for a, b in ((2, 3), (3, 3), (3, 4), (3, 2), (4, 3), (1, 4),
                                         (4, 1), (2, 1), (2, 2))])
def test_context_tables_match_their_definition(n, constraint, shape):
    a, b = shape or (0, 0)
    full = (1 << n) - 1
    lead = sum(1 << (t - 1) for t in range(1, n + 1) if t <= _sigma(t, n))
    strict = sum(1 << (t - 1) for t in range(1, n + 1) if t < _sigma(t, n))
    # plain and pandiagonal squares are visited row by row, Sudoku squares band by band
    order = band_column_order(a, b) if shape else [divmod(k, n) for k in range(n * n)]
    at = {cell: k for k, cell in enumerate(order)}
    spare = n * n
    transposable = constraint != "sudoku" or a == b
    # c* reads column 0 through min(u, -u) while it ties its negation, then u or -u
    star = {0: lambda v: min(v, _sigma(v, n)), 1: lambda v: v, -1: lambda v: _sigma(v, n)}
    for d in sorted({1, 2, n // 4, n // 2, n // 2 + 1} - {0}):
        ctx = _Context(SearchQuery(n=n, constraint=constraint, min_distance=d,
                                   shape=SudokuShape(a, b) if shape else None))
        adm = [full] + [sum(1 << (v - 1) for v in range(1, n + 1)
                            if min((u - v) % n, (v - u) % n) >= d)
                        for u in range(1, n + 1)]
        assert ctx.adm == adm, d
        assert ctx.above == [sum(1 << (v - 1) for v in range(s + 1, n + 1))
                             for s in range(n + 1)]
        assert ctx.pos == [at[divmod(i, n)] for i in range(n * n)]
        assert len(ctx.cells) == n * n
        assert ctx.pairs == ([(at[0, i], at[i, 0]) for i in range(n)] if transposable else [])
        # exists walks keep every square of a transposed pair
        probe = _Context(SearchQuery(n=n, constraint=constraint, min_distance=d, mode="exists",
                                     shape=SudokuShape(a, b) if shape else None))
        assert probe.pairs == [] and probe.cells == [cell[:-1] + (0,) for cell in ctx.cells]
        for k, (u1, u2, u3, u4, prev, other, nbr, lex) in enumerate(ctx.cells):
            r, c = order[k]
            if constraint == "sudoku":
                block = 2 * n + (r // a) * a + c // b
                assert (u1, u2, u3, u4) == (r, n + c, block, block)
            elif constraint == "pandiagonal":
                forward, back = (r - c) % n, (r + c) % n
                assert (u1, u2, u3, u4) == (r, n + c, 2 * n + 2 * forward, 2 * n + 2 * back + 1)
            else:
                assert (u1, u2, u3, u4) == (r, n + c, r, n + c)
            left = at[r, c - 1] if c else spare
            up = at[r - 1, c] if r else spare
            assert all(j < k or j == spare for j in (left, up))
            # symbols are tried upwards from the left neighbour's, in column 0 the upper one's
            assert (prev, other) == ((left, up) if c else (up, spare))
            allowed = [full] * (n + 1)
            if (r, c) == (0, 0):
                allowed = [1] * (n + 1)
            elif (r, c) == (0, 1):
                allowed = [lead] * (n + 1)
            elif (r, c) == (0, 2) and n % 2 == 0 and n > 2:
                allowed[1 + n // 2] = strict
            assert nbr == [m & mask for m, mask in zip(adm, allowed)], (d, k)
            # pair i = r + c is decided at the later of (0, i) and (i, 0): a column cell
            # admits v with c*'s f(v) >= row 0's x, a row cell v <= f(x) for column 0's x
            if transposable and (r == 0 or c == 0) and at[c, r] < k:
                assert lex[:2] == (r + c, at[c, r]), (d, k)
                for sign, f in star.items():
                    assert lex[2][sign][1:] == [
                        sum(1 << (v - 1) for v in range(1, n + 1)
                            if (f(v) >= x if c == 0 else v <= f(x)))
                        for x in range(1, n + 1)], (d, k, sign)
            else:
                assert lex == 0, (d, k)


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
                       ("sudoku", (2, 3.5))]:
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
