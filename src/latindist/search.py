"""Exhaustive backtracking enumeration of constrained Latin squares.

This is the independent oracle for counts, maxima, and nonexistence: it
fills cells one at a time, keeping per-row/column (and per-block or
per-diagonal) occupancy bitmasks, and filters every candidate symbol
against a precomputed admissibility table dist(u, v) >= d for the two
already-placed neighbours (left and up).  At distances near n/2 each
symbol admits at most a handful of neighbours, so the tree collapses and
even order-9 runs finish in milliseconds.

Plain and pandiagonal squares are visited row by row.  Sudoku squares are
visited band by band (a rows each), each band column by column, so the
first a*b cells visited are a block and the first a*n a band: a walk
that cannot complete either backtracks inside it instead of under whole
rows of the square.  The left and upper neighbours are visited earlier in
both orders.  Candidates are tried cyclically upwards from the left
neighbour's symbol (in column 0 the upper neighbour's, at the corner from
1), so a row tends to go on by the smallest admissible step, as a shift
square does, and an exists probe below the maximum often meets a witness
after little more than n*n nodes instead of wandering.

The symbol maps u -> +-(u - 1) + s (mod n, symbols 1..n) keep every
constraint and distance: the constraints depend only on cell positions,
and the cyclic distance is unchanged by translation and negation.  For
n >= 3 no map but the identity fixes every symbol, so each orbit has 2n
squares, and exactly two of them, S and its negation, have symbol 1 in
the corner.  The walk visits only the lexicographically smaller of the
two (row 0 decides it by cell (0, 2) at the latest), and a complete
count or enumerate adds the other 2n - 1 maps back afterwards.  For
n = 2 negation is a translation and the orbit has n squares.  This is
isomorph rejection by lex-leader (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998), simple here because every orbit has
the same size.

Count and enumerate walks also break transposition, which keeps plain,
pandiagonal and (a, a)-Sudoku squares in their class and keeps their
inner distance.  With c column 0 and c* the smaller of c and its negation
(both start with 1), they keep a walked square only if its row 0 is
lexicographically <= c*.  Its partner, the transpose or the negated
transpose, whichever has row 0 <= its negation, has row 0 = c* and c*
equal to the square's row 0, so of each pair with different rows 0 the
walk keeps exactly one, and a square whose row 0 equals c* is kept with
its partner or is its own.  This is a lex-leader predicate decided while
the walk fills (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking
predicates for search problems", KR 1996): row 0[i] is compared with
c*[i] when the later of cells (0, i) and (i, 0) is placed, and the
subtree is cut as soon as c*[i] < row 0[i] after pairs that tied.  That
cell is (i, 0) in row-major order, and (0, i) for i < a in band-column
order.  The rule is one mask ANDed into that cell's candidates; every
other cell only finds that it has none.  A complete leaf whose row 0
differs from c* stands for its partner too: a count weighs it 2, and an
enumerate adds its transpose before the 2n symbol maps.  A starved walk
returns its leaves unweighted.  Exists walks keep both squares of each
pair.

One non-recursive walk over the visiting order does all of it: a query
is a single walk from the empty grid under the query's node budget, and
exists mode stops at its first witness.  The budget is exact: a query is
complete iff its tree (in exists mode, up to the first witness) fits in
node_budget placements, and a walk that does not fit stops at placement
node_budget + 1.  Each square comes back laid out row by row, and a
complete witness list is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import and_, itemgetter, or_

import numpy as np

from .construct import _order, known_bounds
from .errors import NonexistenceError, ParameterError, SearchIncompleteError
from .grid import SquareGrid, SudokuShape, _unit_labels

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "SearchQuery",
    "SearchResult",
    "max_distance_via_search",
    "run_search",
]

DEFAULT_NODE_BUDGET = 10**9

_CONSTRAINTS = ("plain", "pandiagonal", "sudoku")
_MODES = ("count", "enumerate", "exists")


@dataclass(frozen=True)
class SearchQuery:
    """What to enumerate: order/shape, constraint kind, distance floor, mode.

    min_distance may exceed floor(n/2); the count is then simply 0.

    node_budget caps the placements of the walk reduced by translation and
    negation (one square of each pair with symbol 1 in the corner), and in
    count and enumerate mode of plain, pandiagonal and (a, a)-Sudoku
    squares also by transposition (row 0 <= c*; see the module docstring);
    the search is complete iff that tree fits in it, and otherwise stops
    after exactly node_budget + 1 placements.  min_distance and n are
    integers, numpy's included; a bool, float or string is neither.
    """

    n: int | None = None
    constraint: str = "plain"
    shape: SudokuShape | None = None
    min_distance: int = 1
    mode: str = "count"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.constraint not in _CONSTRAINTS:
            raise ParameterError(f"constraint must be one of {_CONSTRAINTS}, got {self.constraint!r}")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "min_distance", _order(self.min_distance, "min_distance"))
        if self.min_distance < 1:
            raise ParameterError(f"min_distance must be at least 1, got {self.min_distance}")
        if self.node_budget < 1:
            raise ParameterError(f"node_budget must be positive, got {self.node_budget}")
        if self.n is not None:
            # numpy orders become Python ints: the walk builds bitmasks from n
            object.__setattr__(self, "n", _order(self.n))
        if self.constraint == "sudoku":
            if self.shape is None:
                raise ParameterError("sudoku searches need a block shape")
            if self.n is None:
                object.__setattr__(self, "n", self.shape.n)
            elif self.n != self.shape.n:
                raise ParameterError(f"order {self.n} does not match shape "
                                     f"({self.shape.a}, {self.shape.b})")
        else:
            if self.shape is not None:
                raise ParameterError(f"a block shape only applies to sudoku, not {self.constraint}")
            if self.n is None:
                raise ParameterError("order n is required")
        if self.n < 2:
            raise ParameterError("no inner distance is defined below order 2")

    def as_json_dict(self) -> dict:
        doc = {"constraint": self.constraint, "n": self.n,
               "min_distance": self.min_distance, "mode": self.mode,
               "node_budget": self.node_budget}
        if self.shape is not None:
            doc["shape"] = {"a": self.shape.a, "b": self.shape.b}
        return doc


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    complete means the answer is definitive for the queried mode: the tree
    up to the answer fit in the node budget.  A complete count or
    enumerate covers every square: the walked squares and the transposed
    partners of those whose row 0 is below c*, under all 2n symbol maps
    (n when n = 2), witnesses sorted by their rows.  A result truncated by
    the budget always comes back with complete=False, never silently, with
    nodes_expanded == node_budget + 1, and unexpanded and unweighted in
    every mode: its count and witnesses are only the squares the walk
    itself placed before it stopped, in the order it met them, each with
    symbol 1 in the corner, so an enumerate has len(witnesses) == count.
    In exists mode the count is min(total, 1) because the search stops at
    the first witness, which starts with symbol 1 and is the first square
    of the query in the walk's visiting and symbol order (see the module
    docstring), not the lexicographically first.  nodes_expanded counts the
    walk reduced by translation and negation, and in count and enumerate
    mode of plain, pandiagonal and (a, a)-Sudoku squares also by
    transposition; in exists mode and for (a, b)-Sudoku with a != b it
    counts no transposition cut.
    """

    count: int
    witnesses: tuple[SquareGrid, ...]
    nodes_expanded: int
    complete: bool


class _Context:
    """Immutable tables of one search, built from its SearchQuery; d is its min_distance.

    adm[u] is the mask of symbols at distance >= d from u, and adm[0], the
    symbol of the spare cell n*n, is the full mask; above[s] is the mask of
    the symbols above s.  cells[k] is (u1, u2, u3, u4, prev, other, nbr, lex)
    for the k-th cell visited: row by row for plain and pandiagonal squares,
    band by band and within a band column by column for sudoku; pos[i] is
    the visiting position of the i-th cell in row-major order.  u1..u4
    are the four units whose symbols must differ: its row, its column, and
    its block or two wrapped diagonals, as `grid._unit_labels` numbers
    them.  Plain cells list their row and column twice and sudoku cells
    their block twice; placing ORs a bit into each unit and removing
    clears it, so a repeated unit is harmless.  prev and other are the
    visiting positions of the two neighbours, both visited earlier: prev
    is the left one and other the upper one, or the spare cell in row 0;
    in column 0 prev is the upper one and other the spare cell.  Candidates
    are tried upwards from prev's symbol, then from 1.  nbr[s] is the mask
    the cell admits beside a prev holding s: adm itself for most cells, adm
    with the lex-leader rule folded in for the first cells of row 0.  The
    corner admits symbol 1 alone (translation), and cell (0, 1) admits s
    only if s <= -s, where -s is the negation 2 - s (mod n, symbols 1..n).
    For even n, -s = s at s = 1 + n/2, and then cell (0, 2) admits t only
    if t < -t.  For n = 2 negation is the identity and restricts nothing.

    Count and enumerate walks of transposable classes (plain, pandiagonal
    and (a, a)-Sudoku) also keep row 0 <= c*, the smaller of column 0 and
    its negation; see the module docstring.  pairs[i] holds the visiting
    positions of (0, i) and (i, 0), and neg[s] is -s.  lex is 0 but at the
    later cell of each pair i >= 1, where it is (i, the visiting position
    of the pair's other cell, masks): masks[t][x] is the mask the cell
    admits when the pairs before i tie in the state t of `_tie_sign` and
    the other cell holds x.  Exists walks and (a, b)-Sudoku with a != b
    have no pairs and no lex.
    """

    __slots__ = ("n", "adm", "above", "cells", "pos", "neg", "pairs")

    def __init__(self, query: SearchQuery):
        n, d, shape = query.n, query.min_distance, query.shape
        full = (1 << n) - 1
        self.n = n
        # v = u + x (mod n) is admissible beside u iff d <= x <= n - d; rotate x's mask by u - 1
        base = sum(1 << x for x in range(d, n - d + 1))
        adm = [full] + [((base << r) | (base >> (n - r))) & full for r in range(n)]
        self.adm = adm
        # the symbols above s; above[0], the spare cell's, holds them all
        self.above = [full >> s << s for s in range(n + 1)]
        spare = n * n
        labels = _unit_labels(n, shape, query.constraint == "pandiagonal")
        zero = np.zeros((n, n), np.int64)  # adding it broadcasts a label to every cell
        u1, u2, *more = [(zero + label).ravel().tolist() for label in labels]
        # a plain cell repeats its row and column, a sudoku cell its block
        u3, u4 = (more * 2)[:2] if more else (u1, u2)
        # row-major neighbours: prev is left, or up in column 0; other is up, or spare there
        up = [spare] * n + list(range(spare - n))
        prev = [spare] + list(range(spare - 1))
        prev[n::n] = range(0, spare - n, n)
        other = up[:]
        other[::n] = [spare] * n
        # symbols x + 1 with x <= -x (mod n), and with x < -x
        lead = sum(1 << x for x in range(n) if x <= -x % n)
        strict = sum(1 << x for x in range(n) if x < -x % n)
        nbr = [adm] * spare
        nbr[0] = [m & 1 for m in adm]
        nbr[1] = [m & lead for m in adm]
        if n % 2 == 0 and n > 2:
            nbr[2] = adm[:]
            nbr[2][1 + n // 2] &= strict
        pos = list(range(spare + 1))
        order = None
        if shape is not None:
            # band by band, each band column by column (row-major is this with one-row
            # bands, but plain tables built so took 3-4x as long)
            a = shape.a
            order = [(r + i) * n + c for r in range(0, n, a) for c in range(n) for i in range(a)]
            for k, cell in enumerate(order):
                pos[cell] = k
        lex = [0] * spare
        self.pairs = self.neg = []
        if query.mode != "exists" and (shape is None or shape.a == shape.b):
            self.pairs = [(pos[i], pos[i * n]) for i in range(n)]
            self.neg = neg = [0] + [(1 - u) % n + 1 for u in range(1, n + 1)]
            # c*[i] is f(c[i]): f(u) = min(u, -u) while c ties its negation, then u or -u.
            # Masks are listed by _tie_sign's state: 0, 1 (identity), -1 (negation).  A
            # column cell admits the v with f(v) >= row 0's symbol r (at_least[r] holds the
            # v >= r, negated[r] the v with -v >= r),
            at_least = [full] + self.above[:n]
            negated = [full] + list(accumulate((1 << (neg[v] - 1) for v in range(n, 0, -1)),
                                               or_))[::-1]
            col_masks = [list(map(and_, at_least, negated)), at_least, negated]
            # and a row cell, the later one only in a band of square blocks, v <= f(c[i])
            row_masks = None if shape is None else [
                [(1 << f[c]) - 1 for c in range(n + 1)]
                for f in ([min(u, v) for u, v in enumerate(neg)], range(n + 1), neg)]
            for i, (rk, ck) in enumerate(self.pairs[1:], 1):
                if rk > ck:
                    lex[i] = (i, ck, row_masks)
                else:
                    lex[i * n] = (i, rk, col_masks)
        cells = list(zip(u1, u2, u3, u4, prev, other, nbr, lex))
        if order is not None:
            # renumber the neighbours in visiting order
            cells = [(u1, u2, u3, u4, pos[p], pos[o], nb, lx)
                     for u1, u2, u3, u4, p, o, nb, lx in map(cells.__getitem__, order)]
        pos.pop()
        self.cells = cells
        self.pos = pos


def _tie_sign(sign, r: int, c: int, neg: list[int]):
    """The transposition state after pair i, from the state before it.

    r and c are the symbols of cells (0, i) and (i, 0).  The state is None
    once row 0 is below c*, and otherwise says how c* reads column 0: 0
    while c and its negation tie (c* = c so far), 1 once c* = c, -1 once
    c* is the negation of c.
    """
    if sign is None:
        return None
    if not sign:
        m = neg[c]
        return (c < m) - (c > m) if r == min(c, m) else None
    return sign if r == (c if sign > 0 else neg[c]) else None


def _walk(ctx: _Context, budget: int, collect: bool, stop_first: bool):
    """Depth-first fill of every cell from the empty grid.

    The only code that places symbols.  Cells are filled in the context's
    visiting order and each cell tries its candidates upwards from the
    symbol of its prev neighbour, wrapping round to 1, so the squares come
    in a fixed order.  Each cell's untried candidates are kept on an
    explicit stack, so the depth is not bounded by the interpreter's
    recursion limit.  Every placement counts as one node; a walk that
    needs more than budget nodes stops at node budget + 1.

    Returns (count, twins, nodes, complete, leaves): count leaves, twins of
    them with row 0 below c*, which stand for their transposed partner too,
    and the leaves' cell tuples in visiting order when collect is set.
    """
    adm, above, cells, pairs, neg = ctx.adm, ctx.above, ctx.cells, ctx.pairs, ctx.neg
    stop = ctx.n * ctx.n
    grid = [0] * (stop + 1)
    used = [0] * (4 * ctx.n)
    # ties[i]: the transposition state before pair i, set when its deciding cell is entered;
    # pair 0 is the corner, where 1 ties its negation
    ties = [0] * ctx.n
    count = twins = 0
    nodes = 0
    leaves: list[tuple[int, ...]] = []
    untried = [0] * stop
    k = 0
    while k >= 0:
        u1, u2, u3, u4, prev, other, nbr, lex = cells[k]
        sym = grid[k]
        if sym:
            # back at a placed cell: lift its symbol, go on with the rest
            keep = ~(1 << (sym - 1))
            used[u1] &= keep
            used[u2] &= keep
            used[u3] &= keep
            used[u4] &= keep
            cand = untried[k]
        else:
            sym = grid[prev]
            cand = nbr[sym] & adm[grid[other]] & ~(used[u1] | used[u2] | used[u3] | used[u4])
            if lex:
                # the later cell of pair i: keep row 0 <= c* while the pairs before tie
                i, partner, masks = lex
                r, c = pairs[i - 1]
                sign = ties[i] = _tie_sign(ties[i - 1], grid[r], grid[c], neg)
                if sign is not None:
                    cand &= masks[sign][grid[partner]]
        if not cand:
            grid[k] = 0
            k -= 1
            continue
        # upwards from prev's symbol, wrapping to 1; after a lifted symbol
        # the rest of that cycle starts above the lifted one
        pick = cand & above[sym] or cand
        bit = pick & -pick
        untried[k] = cand ^ bit
        nodes += 1
        if nodes > budget:
            return count, twins, nodes, False, leaves
        grid[k] = bit.bit_length()
        used[u1] |= bit
        used[u2] |= bit
        used[u3] |= bit
        used[u4] |= bit
        k += 1
        if k == stop:
            count += 1
            if pairs:
                r, c = pairs[-1]
                twins += _tie_sign(ties[-1], grid[r], grid[c], neg) is None
            if collect:
                leaves.append(tuple(grid[:stop]))
            if stop_first:
                break
            k -= 1
    return count, twins, nodes, True, leaves


def _below_c_star(leaf: tuple[int, ...], pairs, neg: list[int]) -> bool:
    """Whether the row-major square's row 0 is below c*; pairs are its (0, i), (i, 0) indices."""
    sign = 0
    for r, c in pairs:
        sign = _tie_sign(sign, leaf[r], leaf[c], neg)
    return sign is None


def run_search(query: SearchQuery, workers: int = 1) -> SearchResult:
    """Count, enumerate, or probe existence of grids matching the query.

    One walk from the empty grid under query.node_budget answers it: the
    candidate set of every cell is filtered by the Latin (and block or
    diagonal) occupancy masks and by the distance table against the left
    and upper neighbours, so the distance floor prunes while building, not
    after.  Witnesses are laid out row by row whatever the visiting order;
    a complete witness list is sorted by rows, and an exists witness is
    the first in visiting order.

    The search runs in one process, so workers must be 1.  It stays a
    second parameter because callers pass it positionally, as in
    run_search(query, workers).
    """
    if workers != 1:
        raise ParameterError(f"the search runs in one process: workers must be 1, got {workers}")
    n = query.n
    ctx = _Context(query)
    count, twins, nodes, complete, leaves = _walk(ctx, query.node_budget,
                                                  collect=query.mode != "count",
                                                  stop_first=query.mode == "exists")
    if query.constraint == "sudoku":
        # leaves hold the cells in visiting order; lay them out row by row
        row_major = itemgetter(*ctx.pos)
        leaves = [row_major(leaf) for leaf in leaves]
    if complete and query.mode != "exists":
        if twins:
            # a leaf with row 0 below c* stands for its transpose too
            count += twins
            pairs = [(i, i * n) for i in range(n)]
            transpose = itemgetter(*[c * n + r for r in range(n) for c in range(n)])
            leaves += [transpose(leaf) for leaf in leaves if _below_c_star(leaf, pairs, ctx.neg)]
        # each leaf stands for its orbit under u -> +-(u - 1) + s: 2n squares, n when n = 2
        maps = {(0, *[(sign * v + s) % n + 1 for v in range(n)])
                for sign in (1, -1) for s in range(n)}
        count *= len(maps)
        leaves = sorted(tuple(map(m.__getitem__, leaf)) for m in maps for leaf in leaves)
    witnesses = tuple(SquareGrid([w[i:i + n] for i in range(0, n * n, n)]) for w in leaves)
    return SearchResult(count=count, witnesses=witnesses, nodes_expanded=nodes, complete=complete)


def max_distance_via_search(kind: str, size, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest d for which a square of the given class with distance >= d exists.

    Probes existence downward from the proven upper bound, so it both
    verifies the bound and finds the maximum.  size is an order for plain
    and pandiagonal kinds, or an (a, b) shape for sudoku.  If a probe hits
    the node budget the answer is unknown and a SearchIncompleteError with
    the open bracket, from the known lower bound to the starved distance, is
    raised instead of a guess.
    """
    if kind == "sudoku":
        shape = size if isinstance(size, SudokuShape) else SudokuShape(*size)
        entry = known_bounds(kind, a=shape.a, b=shape.b)
        n = shape.n
    elif kind in ("plain", "pandiagonal"):
        shape = None
        entry = known_bounds(kind, n=size)
        n = entry.n
    else:
        raise ParameterError(f"unknown kind {kind!r}")
    if not entry.existence:
        raise NonexistenceError(f"no {kind} Latin square of order {n} exists")
    for d in range(entry.upper, 0, -1):
        query = SearchQuery(n=n, constraint=kind, shape=shape, min_distance=d,
                            mode="exists", node_budget=node_budget)
        result = run_search(query)
        if not result.complete:
            raise SearchIncompleteError(
                f"node budget exhausted probing distance {d}; "
                f"maximum lies in [{entry.lower}, {d}]", lower=entry.lower, upper=d)
        if result.count:
            return d
    return 0
