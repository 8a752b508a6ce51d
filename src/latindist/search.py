"""Exhaustive backtracking enumeration of constrained Latin squares.

This is the independent oracle for counts, maxima, and nonexistence.  It
has two walks, both depth-first from the empty grid under one node budget.

The row walk answers count and enumerate queries of plain and Sudoku
squares whose admissible rows, the permutations of 1..n with every
adjacent pair at cyclic distance >= d, pass the row-walk rule, which
the rest of this module refers to.  With cap = min(_ROW_CAP, _TABLE_BITS
// (n*n)), a query stacks rows iff its R admissible rows number at most
cap and, counting the prefixes of the rows that start with 1 column by
column, n times the prefixes at no column pass 8 * cap.  _ROW_CAP is
2**13 = 8 192 rows; the table term keeps the walk's n*n sets of R bits
within _TABLE_BITS = 2**23 bits and is the smaller from n = 33 on (822
rows at n = 101); the prefix term stops a listing whose dead ends would
outgrow the cap.  The rule reads only n and d, so a Sudoku query stacks
rows iff the plain query of the same order and distance does.  _rows
lists the rows once in lexicographic order, depth first over one int of
candidate symbols per column, and the walk stacks whole rows on each
other.  A set of rows is a Python int with bit r for row r, and a row's
column clashes, vertical distances and block clashes with the rows below
it are each one AND with one of its three masks.  numpy builds the sets
once, each as ceil(R / 64) 64-bit words.  The one-word rule: when R <=
64, numpy works out all R rows' masks before the walk starts; otherwise
the sets become Python ints and the walk works out a row's masks when it
first places it.  Both give the walk the same masks, so the rule changes
no answer and no node count; at the odd ceilings, 2n rows, it covers
n <= 31.  Past one word the masks wait for the walk because building them
before it costs one Python int per row and mask, placed or not, while
building them on first placement costs n lookups per placed row: with
every mask built first, Sudoku (3,3) d=3 and (4,5) d=9, whose walks place
few of their 1 710 and 2 040 rows, took 2.5 and 3 times as long.  Near
the ceiling a row admits few rows under it, so plain 8 d=3 takes 656 row
placements where the cell walk takes 7 253, and plain 9 d=3 0.4 s where
it takes 12 s.  A node is a row placement.

The cell walk answers everything else: exists probes, pandiagonal
squares (their diagonal clashes depend on how far apart two rows are)
and queries that the row-walk rule turns away, such as Sudoku (3,4)
d=4, where stacking rows lost to filling cells.  It fills cells one at a
time and filters every candidate symbol against a precomputed
admissibility table dist(u, v) >= d for the two already-placed
neighbours (left and up).  Occupancy is carried down the walk: placing a
symbol records, for each unit of the cell (its row, its column, and its
block or its two wrapped diagonals), the mask of the symbols in the cell
and in the unit's cells visited before it, one OR onto the mask of the
unit's previous cell.  A cell's candidates read the masks of its units'
previous cells, which stay as they are while the walk is below those
cells, so a backtrack has nothing to undo.  A node is a cell placement.

The cell walk visits cells band by band, each band column by column.  A
Sudoku band is a rows, so the first a*b cells visited are a block and
the first a*n a band: a walk that cannot complete either backtracks
inside it instead of under whole rows of the square.  In count and
enumerate walks a pandiagonal band is min(3, n) rows.  Pandiagonal
squares exist only for n = +-1 (mod 6), where 3 does not divide n, so
the last band is ragged.  A band's two diagonals through each cell meet
the cells of the columns before it, so a partial band that no square
completes dies inside the band: at the maximum, 13 d=5 takes 400
placements instead of 11 199 row by row and 17 d=7 662 instead of
110 411.  Far below the maximum bands can lose (7 d=1 takes 4.7 M
placements instead of 1.7 M), and a starved count meets fewer squares.
Plain bands, and those of pandiagonal exists walks, are one row, so
those squares are visited row by row: at or below the maximum an exists
probe meets a witness in about n*n placements in any order, and above it
refutes within row 0.
The left and upper neighbours are visited earlier in every such order,
and the walk's grid is indexed by the row-major cell whatever the order,
so each square comes back laid out row by row.  Candidates are tried
cyclically upwards from the left neighbour's symbol (in column 0 the
upper neighbour's, at the corner from 1), so a row tends to go on by the
smallest admissible step, as a shift square does, and an exists probe
below the maximum often meets a witness after little more than n*n nodes
instead of wandering.

The symbol maps u -> +-(u - 1) + s (mod n, symbols 1..n) keep every
constraint and distance: the constraints depend only on cell positions,
and the cyclic distance is unchanged by translation and negation.  For
n >= 3 no map but the identity fixes every symbol, so each orbit has 2n
squares, and exactly two of them, S and its negation, have symbol 1 in
the corner.  Both walks visit only the lexicographically smaller of the
two (row 0 decides it by cell (0, 2) at the latest), and a complete
count or enumerate adds the other 2n - 1 maps back afterwards.  For
n = 2 negation is a translation and the orbit has n squares.  This is
isomorph rejection by lex-leader (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998), simple here because every orbit has
the same size.

Count and enumerate walks also break transposition, which keeps plain,
pandiagonal and (a, a)-Sudoku squares in their class and keeps their
inner distance.  With c column 0 and -c its negation (both start with
1), they keep a walked square only if its row 0 is lexicographically
<= c and <= -c.  Its partner, the transpose or the negated transpose,
whichever has row 0 <= its negation, has row 0 the smaller of c and -c
and column 0 the square's row 0 or its negation, so of each pair whose
row 0 differs from c and -c the walk keeps exactly one, and a square
whose row 0 equals c or -c is kept with its partner or is its own.  This
lex-leader predicate, one lex comparison per symmetry (Crawford,
Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search
problems", KR 1996), is decided while the walk fills: tie bit 1 says
row 0 equals c on the pairs so far, bit 2 that it equals -c, and when
the later of cells (0, i) and (i, 0) is placed the subtree is cut if
row 0[i] is above c[i] or -c[i] while that one's bit is set.  The row
walk places row 0 first, so that cell is always (i, 0), and the rule is
a filter on the first symbol of row i.  In the cell walk, in bands of a
rows, it is (0, i) for i < a, inside the first band's first a columns,
and (i, 0) otherwise; the rule is one mask ANDed into that cell's
candidates, and every other cell only finds that it has none.  A
complete leaf with no tie bit left stands for its partner too: a count
weighs it 2, and an enumerate adds its transpose before the 2n symbol
maps.  A starved walk returns its leaves unweighted.  Exists walks keep
both squares of each pair.

Exists walks break the left-right flip instead, by the same predicate
taken over the walk's own visiting order.  Reversing the columns keeps
every class and the inner distance, so with H the reversal and s the
symbol map u -> +-(u - x) + 1, x the symbol H brings to the corner, signed
so that row 0 is <= its negation, s o H takes the squares whose first
band (its first a*n cells visited, row 0 for plain and pandiagonal
squares) is B one to one onto those whose first band is B' = s(H(B)),
B's mirror image.  The walk meets complete first bands in lexicographic
order of their candidate ranks, read in visiting order: a symbol v beside
a prev holding p has rank (v - p - 1) mod n, p = 0 at the corner.  The
first cell of band 1 compares the two once for each first band the walk
completes: if B' differs from B and ranks lower, the walk met B' before
and, still running, found no square under it, so it cuts B.  The first
band completed ranks lowest of all valid first bands, its image among
them, so it is never cut.  The first witness stays the same and
node counts can only fall: (3,6)-Sudoku d=7 is refuted in 241 073
placements instead of 386 365.  A shift square's row 0 is its own mirror
image, so probes that take the shift square cost what they did.  Count
and enumerate walks keep both squares of each mirrored pair: with
transposition the flip generates the dihedral group, whose orbits have
unequal sizes.

Each query is one non-recursive walk under the query's node budget, and
exists mode stops at its first witness.  The budget is exact: a query is
complete iff its tree (in exists mode, up to the first witness) fits in
node_budget placements, and a walk that does not fit stops at placement
node_budget + 1.  A complete witness list is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate, repeat
from operator import and_, itemgetter, or_

import numpy as np

from . import _EXPORTS
from .errors import NonexistenceError, ParameterError, SearchIncompleteError
from .grid import _KINDS, SquareGrid, SudokuShape, _grids, _order, _square_class

__all__ = list(_EXPORTS["search"])

DEFAULT_NODE_BUDGET = 10**9

# The row-walk rule of the module docstring.  _ROW_CAP is provisional: stacking rows won at
# 3 920 rows (Sudoku (2,4) d=2) and 6 094 (plain 11 d=4), went either way at 20 640
# (Sudoku (2,5) d=3), and lost at 57 060 (Sudoku (3,5) d=6) and 106 848 ((3,4) d=4); no
# plain or Sudoku count query has between 6 094 and 19 006 rows.  _TABLE_BITS keeps orders
# of a few hundred near the ceiling, 2n rows, from building hundreds of megabytes.
_ROW_CAP = 2**13
_TABLE_BITS = 2**23

_MODES = ("count", "enumerate", "exists")


@dataclass(frozen=True)
class SearchQuery:
    """What to enumerate: order/shape, constraint kind, distance floor, mode.

    min_distance may exceed floor(n/2); the count is then simply 0.

    node_budget caps the placements of the walk reduced by translation and
    negation (one square of each pair with symbol 1 in the corner), in
    count and enumerate mode of plain, pandiagonal and (a, a)-Sudoku
    squares also by the transposition rule of the module docstring, and in
    exists mode by its mirror cut; the search is complete iff that tree
    fits in it, and otherwise stops after exactly node_budget + 1
    placements.  A placement is a whole row in count and enumerate mode of
    plain and Sudoku squares that pass the row-walk rule of the module
    docstring, and a cell otherwise: in exists mode, for pandiagonal
    squares and for queries the rule turns away.  n, min_distance and
    node_budget are integers, numpy's included; a bool, float or string is
    none of them.  n and shape follow the class rule of
    `grid._square_class`: a sudoku query takes a SudokuShape and, if it
    gives n at all, the order the shape makes.
    """

    n: int | None = None
    constraint: str = "plain"
    shape: SudokuShape | None = None
    min_distance: int = 1
    mode: str = "count"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.constraint not in _KINDS:
            raise ParameterError(f"constraint must be one of {_KINDS}, got {self.constraint!r}")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        object.__setattr__(self, "min_distance", _order(self.min_distance, "min_distance"))
        if self.min_distance < 1:
            raise ParameterError(f"min_distance must be at least 1, got {self.min_distance}")
        object.__setattr__(self, "node_budget", _order(self.node_budget, "node_budget"))
        if self.node_budget < 1:
            raise ParameterError(f"node_budget must be positive, got {self.node_budget}")
        if self.shape is not None and not isinstance(self.shape, SudokuShape):
            raise ParameterError(f"shape must be a SudokuShape, got {self.shape!r}")
        sides = (None, None) if self.shape is None else (self.shape.a, self.shape.b)
        # numpy orders become Python ints: the walk builds bitmasks from n
        object.__setattr__(self, "n", _square_class(self.constraint, self.n, *sides)[0])

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
    up to the answer fit in the node budget.  A complete count or enumerate
    covers every square: the walked squares and the partners that the
    transposition rule of the module docstring lets them stand for, under
    all 2n symbol maps (n when n = 2), witnesses sorted by their rows.  A
    result truncated by the budget always comes back with complete=False,
    never silently, with nodes_expanded == node_budget + 1, and unexpanded
    and unweighted in every mode: its count and witnesses are only the
    squares the walk itself placed before it stopped, in the order it met
    them, each with symbol 1 in the corner, so an enumerate has
    len(witnesses) == count.  The row walk meets them in row order: each is
    lexicographically above the one before.  In exists mode the count is
    min(total, 1) because the search stops at the first witness, which
    starts with symbol 1 and is the first square of the query in the cell
    walk's visiting and symbol order (see the module docstring), not the
    lexicographically first.  nodes_expanded counts the placements of the
    reduced walk that SearchQuery.node_budget caps: under the mirror cut of
    the module docstring a refutation can take fewer nodes than the whole
    tree, and the first witness is the one the walk would meet without it.
    Its nodes are row placements in count and enumerate mode of plain and
    Sudoku squares that pass the row-walk rule of the module docstring, cell
    placements otherwise.  The witnesses share one read-only (W, n, n)
    int64 array, each one's cells a view of it, so holding one witness
    keeps the whole array alive.
    """

    count: int
    witnesses: tuple[SquareGrid, ...]
    nodes_expanded: int
    complete: bool


def _negation(n: int) -> list[int]:
    """neg[s] is -s, the negation 2 - s (mod n, symbols 1..n) of symbol s; neg[0] is 0."""
    return [0] + [(1 - u) % n + 1 for u in range(1, n + 1)]


def _transposable(shape: SudokuShape | None) -> bool:
    """Whether transposition keeps the class: plain, pandiagonal and (a, a)-Sudoku squares."""
    return shape is None or shape.a == shape.b


def _column_masks(sets: list[int], neg: list[int]) -> list:
    """The lex-leader masks of a cell in column 0, listed by tie bits.

    sets[v] is the set of candidates that put symbol v in the cell (sets[0]
    is empty) and neg[v] is -v.  With row 0's symbol x in the same pair,
    masks[t][x] holds the candidates with v >= x for tie bit 1 and -v >= x
    for bit 2, both for t = 3; masks[0] is None: no tie, no cut.
    """
    at_least = list(accumulate(sets[::-1], or_))[::-1]
    negated = list(accumulate(itemgetter(*neg[::-1])(sets), or_))[::-1]
    return [None, at_least, negated, list(map(and_, at_least, negated))]


class _Context:
    """Immutable tables of one search, built from its SearchQuery; d is its min_distance.

    adm[u] is the mask of symbols at distance >= d from u, and adm[0], the
    symbol of the spare cell n*n, is the full mask; above[s] is the mask of
    the symbols above s.  Cells are numbered row-major, as the walk's grid
    is: (r, c) is cell r*n + c.  cells[k] is (cell, p1, p2, p3, p4, nbr,
    lex) for the k-th cell visited, band by band and within a band column
    by column: a rows each for Sudoku squares, min(3, n) for count and
    enumerate walks of pandiagonal squares, the last band ragged where 3
    does not divide n, and one row otherwise, so row by row.  Every table
    is built once in row-major order and then gathered into that order.
    p1..p4 are, for each of the cell's four units, whose symbols must
    differ, the unit's cell visited last before it, or the spare cell if
    there is none: in its row the left neighbour, in its column the upper
    one, in its block the cell above or, at the top of a band, the last
    cell of the block's previous column, and in its forward and back
    diagonals the cell of that diagonal visited last before it, which row
    by row is the wrapped upper-left and upper-right neighbour.  Sudoku
    cells point p4, and plain cells p3 and p4, at the spare cell.  The walk
    reads the two neighbours, both visited earlier, through p1 and p2.  The
    cell's prev is the left one, or in column 0, where p1 is the spare
    cell, the upper one, and at the corner the spare cell; candidates are
    tried upwards from prev's symbol, then from 1.
    nbr[s] is the mask the cell admits beside a prev holding s: adm itself
    for most cells, adm with the lex-leader rule folded in for the first
    cells of row 0.  The corner admits symbol 1 alone (translation), and
    cell (0, 1) admits s only if s <= -s (see _negation).  For even n,
    -s = s at s = 1 + n/2, and then cell (0, 2) admits t only if t < -t.
    For n = 2 negation is the identity and restricts nothing.

    Count and enumerate walks of transposable classes apply the
    transposition rule of the module docstring.  Pair i is the cells (0, i)
    and (i, 0), row-major cells i and i*n; neg is _negation(n).  lex is 0
    but at the later cell of each pair i >= 1, which in bands of a rows is
    (0, i) for i < a and (i, 0) otherwise; there it is (i, the pair's other
    cell, masks): masks[t][x] is the mask the cell admits when the other
    cell holds x and the pairs before i leave the tie bits t, bit 1 while
    row 0 equals column 0 and bit 2 while it equals the negated column 0
    (masks[0] is None: no tie, no cut).  Other count and enumerate walks, of (a, b)-Sudoku with a
    != b, have no neg and no lex.  Exists walks have no neg, and their lex
    is 0 but at the first cell of band 1, (a, 0), if there is one (a < n);
    there it is (n, a, band, mirror, prevs), _mirror_met's arguments after
    the grid, for the mirror cut of the module docstring.  band reads the
    first band's symbols from the grid in visiting order, mirror the
    symbols of the cells that reversing the columns puts in their place,
    and prevs lists the band cells' prev, by the same rule: the left cell,
    the upper one in column 0, the spare cell at the corner.
    """

    __slots__ = ("n", "adm", "above", "cells", "neg")

    def __init__(self, query: SearchQuery):
        n, d, shape = query.n, query.min_distance, query.shape
        full = (1 << n) - 1
        self.n = n
        # symbol u is bit u - 1, so adm[u] is the far mask of u - 1
        adm = self.adm = [full] + _far_masks(n, d)
        # the symbols above s; above[0], the spare cell's, holds them all
        self.above = [full >> s << s for s in range(n + 1)]
        spare = n * n
        # the left and upper neighbours, or spare in column 0 and row 0
        cell = list(range(spare))
        left = [spare] + cell[:-1]
        left[::n] = [spare] * n
        up = [spare] * n + cell[:-n]
        # bands of a rows, visited band by band, each band column by column: the block height
        # of Sudoku squares, min(3, n) rows in count and enumerate walks of pandiagonal ones,
        # else one row, so row-major
        pandiagonal = query.constraint == "pandiagonal"
        a = shape.a if shape is not None else 1
        if pandiagonal and query.mode != "exists":
            a = min(3, n)
        bands = -(-n // a)
        order = np.arange(bands * a * n).reshape(bands, a, n).transpose(0, 2, 1).ravel()
        if n % a:
            # a ragged last band: whole bands, less the cells past the square.  Whole bands
            # skip the mask, which costs 1.3 us of a 34 us pandiagonal 13 exists build
            order = order[order < spare]
        # the cell before each cell in its third and fourth unit: in its block, the one
        # above, or at the top of a band the last of the block's previous column; in its
        # diagonals, the one visited last before it, in row order the wrapped upper-left
        # and upper-right neighbours; else spare
        third = fourth = [spare] * spare
        if shape is not None:
            third = up[:]
            for top in range(0, spare, a * n):
                third[top:top + n] = [spare] + cell[top + (a - 1) * n:top + a * n - 1]
                third[top:top + n:shape.b] = [spare] * a
        elif pandiagonal and a == 1:
            # row by row those are the wrapped neighbours, which list slices give in a sixth
            # of the argsort's time: exists probes build one context per query
            third = [spare] * (n + 1) + cell[:-n - 1]
            third[n::n] = cell[n - 1:-1:n]
            fourth = [spare] * n + cell[1:spare - n + 1]
            fourth[2 * n - 1::n] = cell[:-n:n]
        elif pandiagonal:
            rows, columns = np.divmod(order, n)
            prevs = np.full((2, spare), spare)
            for prev, diagonal in zip(prevs, ((rows - columns) % n, (rows + columns) % n)):
                # each row of by: one diagonal's cells in visiting order
                by = order[np.argsort(diagonal, kind="stable")].reshape(n, n)
                prev[by[:, 1:]] = by[:, :-1]
            third, fourth = prevs.tolist()
        neg = _negation(n)
        # the symbols s <= -s, and s < -s
        lead = sum(1 << (s - 1) for s in range(1, n + 1) if s <= neg[s])
        strict = sum(1 << (s - 1) for s in range(1, n + 1) if s < neg[s])
        nbr = [adm] * spare
        nbr[0] = [m & 1 for m in adm]
        nbr[1] = [m & lead for m in adm]
        if n % 2 == 0 and n > 2:
            nbr[2] = adm[:]
            nbr[2][1 + n // 2] &= strict
        order = order.tolist()
        lex = [0] * spare
        self.neg = []
        if query.mode == "exists":
            if a < n:
                # the first cell of band 1, (a, 0), checks the first band's mirror image
                band = order[:a * n]
                mirror = [c + n - 1 - 2 * (c % n) for c in band]
                prevs = tuple([left[c] if c % n else up[c] for c in band])
                lex[a * n] = (n, a, itemgetter(*band), itemgetter(*mirror), prevs)
        elif _transposable(shape):
            self.neg = neg
            # Masks are listed by tie bits: bit 1 compares row 0 with column 0, bit 2 with
            # its negation.  A column cell, with row 0's symbol x, admits v >= x for bit 1
            # and -v >= x for bit 2,
            col_masks = _column_masks([0] + [1 << v for v in range(n)], neg)
            # and a row cell, the later one for i < a, with column 0's symbol y, v <= y for
            # bit 1 and v <= -y for bit 2 (at_most[y] holds the v <= y)
            at_most = [full ^ m for m in self.above]
            neg_at_most = list(itemgetter(*neg)(at_most))
            row_masks = [None, at_most, neg_at_most, list(map(and_, at_most, neg_at_most))]
            for i in range(1, a):
                lex[i] = (i, i * n, row_masks)
            for i in range(a, n):
                lex[i * n] = (i, i, col_masks)
        tables = zip(cell, left, up, third, fourth, nbr, lex)
        self.cells = itemgetter(*order)(list(tables))


def _mirror_met(grid: list[int], n: int, a: int, band, mirror, prevs) -> bool:
    """Whether an exists walk met the mirror image of its first band before the band.

    This is the mirror cut of the module docstring, on the tables that
    _Context lists for it.
    """
    x = grid[n - 1]
    symbols = mirror(grid)
    image = tuple([(u - x) % n + 1 for u in symbols])
    negated = tuple([(x - u) % n + 1 for u in symbols])
    if image[::a] > negated[::a]:
        image = negated
    walked = band(grid)
    if image == walked:
        return False
    for k, (u, v) in enumerate(zip(image, walked)):
        if u != v:
            p = grid[prevs[k]]
            return (u - p - 1) % n < (v - p - 1) % n


def _walk(ctx: _Context, budget: int, collect: bool, stop_first: bool):
    """Depth-first fill of every cell from the empty grid.

    The only code that places symbols.  Cells are filled in the context's
    visiting order and each cell tries its candidates upwards from its
    prev's symbol, grid[p1] or grid[p2] as the spare cell holds 0, wrapping
    round to 1, so the squares come in a fixed order.  Each cell's untried
    candidates are kept on an explicit stack, so the depth is not bounded
    by the interpreter's recursion limit.  occ1..occ4[j] hold the symbols
    of cell j's units up to j in visiting order: placing a symbol at j ORs
    its bit onto the masks of j's p1..p4, and j's candidates exclude what
    those of p1..p4 hold.  A placement writes only its own cell's masks, so
    a backtrack only steps back to the deepest cell with a candidate left.
    Every placement counts as one node; a walk that needs more than budget
    nodes stops at node budget + 1.

    Returns (count, twins, nodes, complete, leaves, twin_leaves): count
    leaves, twins of them with no tie bit left, which stand for their
    transposed partner too, and, when collect is set, the row-major cell
    tuples of the leaves and of the twins.
    """
    n, adm, above, cells, neg = ctx.n, ctx.adm, ctx.above, ctx.cells, ctx.neg
    stop = n * n
    grid = [0] * (stop + 1)
    # occ1[j]..occ4[j]: the symbols of cell j and of the cells before it in its four units
    occ1 = [0] * (stop + 1)
    occ2 = occ1[:]
    occ3 = occ1[:]
    occ4 = occ1[:]
    # ties[i]: the tie bits before pair i, set at its deciding cell: bit 1 while row 0 equals
    # column 0, bit 2 while it equals the negated column 0; the corner's 1 is its own negation
    ties = [3] * n
    count = twins = nodes = 0
    leaves: list[tuple[int, ...]] = []
    twin_leaves: list[tuple[int, ...]] = []
    untried = [0] * stop
    k = 0
    # cand < 0 marks a cell the walk has just stepped onto
    cand = -1
    while k >= 0:
        cell, p1, p2, p3, p4, nbr, lex = cells[k]
        # the left neighbour's symbol; in column 0, where p1 is the spare cell, the upper one's
        sym = grid[p1] or grid[p2]
        if cand < 0:
            # the symbols that the cell's units and neighbours leave it
            cand = nbr[sym] & adm[grid[p2]] & ~(occ1[p1] | occ2[p2] | occ3[p3] | occ4[p4])
            if lex:
                if neg:
                    # the later cell of pair i: keep row 0 <= column 0 and <= its negation
                    # while the pairs before tie them
                    i, partner, masks = lex
                    x, y = grid[i - 1], grid[(i - 1) * n]
                    t = ties[i] = ties[i - 1] & ((x == y) | (x == neg[y]) << 1)
                    if t:
                        cand &= masks[t][grid[partner]]
                elif _mirror_met(grid, *lex):
                    # an exists walk's first band, whose mirror image came first and held
                    # no square
                    cand = 0
        if cand:
            # upwards from sym, wrapping to 1: the symbols tried before are gone
            # from cand, so the cycle goes on where it stopped
            pick = cand & above[sym] or cand
            bit = pick & -pick
            untried[k] = cand ^ bit
            nodes += 1
            if nodes > budget:
                return count, twins, nodes, False, leaves, twin_leaves
            grid[cell] = bit.bit_length()
            occ1[cell] = occ1[p1] | bit
            occ2[cell] = occ2[p2] | bit
            occ3[cell] = occ3[p3] | bit
            occ4[cell] = occ4[p4] | bit
            k += 1
            cand = -1
            if k < stop:
                continue
            count += 1
            if collect:
                leaves.append(tuple(grid[:stop]))
            if neg:
                # a transposable walk: the leaf is a twin if the last pair leaves no tie
                x, y = grid[n - 1], grid[stop - n]
                if not ties[-1] & ((x == y) | (x == neg[y]) << 1):
                    twins += 1
                    if collect:
                        twin_leaves.append(leaves[-1])
            if stop_first:
                break
        # back to the deepest cell with symbols left to try
        k -= 1
        while k >= 0 and not untried[k]:
            k -= 1
        cand = untried[k]
    return count, twins, nodes, True, leaves, twin_leaves


def _far_masks(n: int, d: int) -> list[int]:
    """masks[u] has bit v for each symbol v of 0..n-1 at cyclic distance >= d from u."""
    full = (1 << n) - 1
    # v = u + x (mod n) is far from u iff d <= x <= n - d; rotate x's mask by u
    base = sum(1 << x for x in range(d, n - d + 1))
    return [((base << u) | (base >> (n - u))) & full for u in range(n)]


def _rows(n: int, d: int):
    """Every permutation of 1..n with each adjacent pair at cyclic distance >= d.

    Returns (rows, near): the rows as an (R, n) array in lexicographic order
    and near[s], the m = n - 2d + 1 symbols far from symbol s, as an (n + 1,
    m) array whose row 0 names the empty symbol 0, which the row walk reads
    too; or None when the row-walk rule of the module docstring turns the
    query away.  One depth-first listing grows the rows that start with 1 in
    lexicographic order, on the symbols 0..n-1 until the end: each depth
    keeps its untried symbols as one int, the free symbols far from the one
    before.  Translating those rows by each symbol gives the rest.  Dead ends
    can leave more prefixes than rows, 17 times more at plain 20 d=9, hence
    the rule's prefix term: the listing counts each column's prefixes and
    gives up as soon as a count passes its term, so it lists at most 8 * cap
    prefixes before it turns a query away.
    """
    cap = min(_ROW_CAP, _TABLE_BITS // (n * n))
    # n times a column's prefixes may not pass 8 * cap, and n times the rows from 1 not cap
    limits = [8 * cap // n] * (n - 1) + [cap // n]
    steps = _far_masks(n, d)
    counts = [0] * n
    # row[0] is 0; free[k] holds the symbols not in row[:k], and untried[k] those of them
    # still to try in column k
    row = [0] * n
    free = [0] * n
    untried = [0] * n
    free[1] = (1 << n) - 2
    untried[1] = steps[0] & free[1]
    listed = []
    k = 1
    while k:
        cand = untried[k]
        if not cand:
            k -= 1
            continue
        bit = cand & -cand
        untried[k] = cand ^ bit
        counts[k] += 1
        if counts[k] > limits[k]:
            return None
        u = row[k] = bit.bit_length() - 1
        if k == n - 1:
            listed.append(row[:])
            continue
        k += 1
        free[k] = free[k - 1] ^ bit
        untried[k] = steps[u] & free[k]
    x = np.arange(n)
    rows = ((np.array(listed, np.intp).reshape(-1, n) + x[:, None, None]) % n).reshape(-1, n)
    near = (np.arange(n + 1)[:, None] + np.arange(d - 1, n - d)) % n + 1
    near[0] = 0
    return rows[_lex_order(rows.astype(np.min_scalar_type(n)))] + 1, near


def _row_walk(rows, near, shape: SudokuShape | None, budget: int, collect: bool):
    """Depth-first stacking of whole rows from _rows, for count and enumerate queries.

    rows and near are what _rows returns.  A set of rows has bit r for row
    r.  at[j][s] holds the rows with symbol s in column j, below[j][s] those
    whose column j symbol is far from s, the OR of at[j][v] over the v in
    near[s], and, for Sudoku squares, within[j][s] those with s in the
    block columns of column j.  A row's masks are the rows it admits under
    it, the AND of below[j][s] over its cells, and the rows it excludes
    below it, the OR of at[j][s], and within its band, the OR of
    within[j][s].  The tables are built once, as uint64 words; under the
    one-word rule of the module docstring masks lists every row's masks
    before the walk, otherwise the tables become Python ints and the walk
    fills a row's entry of masks when it first places the row.  Row 0
    starts with 1 and is no greater than its negation.  For plain and (a,
    a)-Sudoku squares the transposition rule of the module docstring
    filters the first symbol of each row i >= 1.  Rows are tried in
    lexicographic order, and every row placed counts as one node; a walk
    that needs more than budget nodes stops at node budget + 1.  Returns
    _walk's tuple, but the walk keeps each leaf as its n row indices and,
    when collect is set, gathers the cells once at the end: leaves and
    twins are (L, n*n) arrays in the narrowest dtype.
    """
    total, n = rows.shape
    if not total:
        return 0, 0, 0, True, [], []
    a, b = (shape.a, shape.b) if shape is not None else (1, n)
    # at[j][s] holds the rows with symbol s in column j as W = ceil(R / 64) words, bit r in
    # word r // 64; symbol 0 holds no row and pads each table so that it is indexed by the
    # symbol itself.  below folds at over near, and within over each block's b columns
    words = -(-total // 64)
    r = np.arange(total)[:, None]
    columns = np.arange(n)
    at = np.zeros((n, n + 1, words), "<u8")
    np.bitwise_or.at(at, (columns, rows, r // 64), np.uint64(1) << (r % 64).astype(np.uint64))
    below = np.bitwise_or.reduce(at[:, near], axis=2)
    within = np.bitwise_or.reduce(at.reshape(n // b, b, n + 1, words), axis=1) if a > 1 else None
    if words == 1:
        # gather every row's masks at once; table[cells] is (R, n), a row's entries by column
        cells = (columns, rows, 0)
        block = repeat(0)
        if a > 1:
            block = np.bitwise_or.reduce(within[columns // b, rows, 0], axis=1).tolist()
        masks = list(zip(np.bitwise_and.reduce(below[cells], axis=1).tolist(),
                         np.bitwise_or.reduce(at[cells], axis=1).tolist(), block))
        first = at[0, :, 0].tolist()
    else:
        # each set as one Python int, read from its words little-endian
        tables = np.concatenate([at, below] + ([within] if a > 1 else [])).view(f"V{8 * words}")
        tables = [list(map(int.from_bytes, t, repeat("little"))) for t in tables[..., 0].tolist()]
        at, below = tables[:n], tables[n:2 * n]
        within = [tables[2 * n + j // b] for j in range(n)] if a > 1 else None
        masks = [None] * total
        first = at[0]
    syms = rows.tolist()
    neg = _negation(n)
    transposable = _transposable(shape)
    # the first-symbol filter of rows 1.., by tie bits
    firsts = _column_masks(first, neg)
    # the rows starting with 1 come first, total // n of them
    lead = sum(1 << r for r in range(total // n) if syms[r] <= [neg[u] for u in syms[r]])
    count = twins = nodes = 0
    complete = True
    leaves: list[list[int]] = []
    twin_leaves: list[list[int]] = []
    # per level: the untried rows, the row placed, the rows that the rows above exclude in
    # their columns and within the band, and the tie bits once the level's row is placed
    untried = [lead] + [0] * (n - 1)
    picked = [0] * n
    cols = [0] * n
    band = [0] * n
    ties = [3 if transposable else 0] * n
    i = 0
    while i >= 0:
        cand = untried[i]
        if not cand:
            i -= 1
            continue
        bit = cand & -cand
        untried[i] = cand ^ bit
        nodes += 1
        if nodes > budget:
            complete = False
            break
        r = picked[i] = bit.bit_length() - 1
        row = syms[r]
        if i:
            x, y = top[i], row[0]
            ties[i] = ties[i - 1] & ((x == y) | (x == neg[y]) << 1)
        else:
            top = row
        if i == n - 1:
            count += 1
            if collect:
                leaves.append(picked[:])
            if transposable and not ties[i]:
                twins += 1
                if collect:
                    twin_leaves.append(leaves[-1])
            continue
        if masks[r] is None:
            # a query of more than 64 rows, whose tables are lists of Python ints
            masks[r] = (reduce(and_, map(list.__getitem__, below, row)),
                        reduce(or_, map(list.__getitem__, at, row)),
                        reduce(or_, map(list.__getitem__, within, row)) if within else 0)
        admits, clash, block = masks[r]
        t = ties[i]
        i += 1
        cols[i] = cols[i - 1] | clash
        band[i] = band[i - 1] | block if i % a else 0
        cand = admits & ~(cols[i] | band[i])
        untried[i] = cand & firsts[t][top[i]] if t else cand
    if collect:
        # each leaf's n rows, gathered once from the rows in the narrowest dtype; a count
        # skips it, as its fixed cost is a few percent of a small walk
        narrow = rows.astype(np.min_scalar_type(n))
        leaves, twin_leaves = (narrow[np.array(picks, np.intp).reshape(-1, n)].reshape(-1, n * n)
                               for picks in (leaves, twin_leaves))
    return count, twins, nodes, complete, leaves, twin_leaves


def run_search(query: SearchQuery, workers: int = 1) -> SearchResult:
    """Count, enumerate, or probe existence of grids matching the query.

    One walk from the empty grid under query.node_budget answers it, and
    the distance floor prunes while building, not after.  Count and
    enumerate queries of plain and Sudoku squares that pass the row-walk
    rule of the module docstring stack whole rows; every other query fills
    cells, each filtered by the Latin (and block or diagonal) occupancy
    masks and by the distance table against the left and upper neighbours.
    Witnesses are laid out row by row whatever the walk; a complete witness
    list is sorted by rows, and an exists witness is the first in the cell
    walk's visiting order.

    The search runs in one process, so workers must be 1.  It stays a
    second parameter because callers pass it positionally, as in
    run_search(query, workers).
    """
    if _order(workers, "workers") != 1:
        raise ParameterError(f"the search runs in one process: workers must be 1, got {workers}")
    count, stack, nodes, complete = _search(query)
    return SearchResult(count, _grids(stack), nodes, complete)


def _search(query: SearchQuery):
    """run_search's (count, stack, nodes, complete), the witnesses as one narrow (W, n, n) stack."""
    n, d, mode = query.n, query.min_distance, query.mode
    listed = _rows(n, d) if mode != "exists" and query.constraint != "pandiagonal" else None
    if listed is None:
        walked = _walk(_Context(query), query.node_budget, mode != "count", mode == "exists")
    else:
        walked = _row_walk(*listed, query.shape, query.node_budget, mode != "count")
    count, twins, nodes, complete, leaves, twin_leaves = walked
    # one row of symbols per leaf, in the narrowest dtype; run_search's _grids widens it once
    narrow = np.min_scalar_type(n)
    stack = np.asarray(leaves, narrow).reshape(-1, n * n)
    if complete and mode != "exists":
        # a leaf whose row 0 is below column 0 and its negation stands for its transpose too,
        # and each leaf for its orbit under u -> +-(u - 1) + s: 2n squares, n when n = 2
        count = (count + twins) * (n if n == 2 else 2 * n)
        if mode == "enumerate":
            partners = np.asarray(twin_leaves, narrow).reshape(-1, n, n).transpose(0, 2, 1)
            stack = np.concatenate((stack, partners.reshape(-1, n * n)))
            # row m of maps is the m-th symbol map, indexed by the symbol
            maps = np.array(list(dict.fromkeys((0, *[(sign * v + s) % n + 1 for v in range(n)])
                                               for sign in (1, -1) for s in range(n))), narrow)
            stack = maps[:, stack].reshape(-1, n * n)
            stack = stack[_lex_order(stack)]
    return count, stack.reshape(-1, n, n), nodes, complete


def _lex_order(stack: np.ndarray) -> np.ndarray:
    """The order that sorts the rows of an unsigned integer stack as sorted() sorts tuples.

    Each row's big-endian bytes are read as one bytes string, and numpy
    sorts bytes strings byte by byte as unsigned values, so one argsort
    compares whole rows.
    """
    rows = np.ascontiguousarray(stack, stack.dtype.newbyteorder(">"))
    return np.argsort(rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel(), kind="stable")


def max_distance_via_search(kind: str, size, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest d for which a square of the given class with distance >= d exists.

    Probes existence downward from the proven upper bound, so it both
    verifies the bound and finds the maximum.  size is an order for plain
    and pandiagonal kinds, or an (a, b) pair or a SudokuShape for sudoku;
    `known_bounds` applies the class rule to it.  If a probe hits
    the node budget the answer is unknown and a SearchIncompleteError with
    the open bracket, from the known lower bound to the starved distance, is
    raised instead of a guess.
    """
    from .construct import known_bounds

    sides = (size.a, size.b) if isinstance(size, SudokuShape) else size
    pair = isinstance(sides, (tuple, list)) and len(sides) == 2
    entry = known_bounds(kind, **(dict(zip("ab", sides)) if pair else {"n": size}))
    if not entry.existence:
        raise NonexistenceError(f"no {kind} Latin square of order {entry.n} exists")
    # the shape as given: the entry's sides are sorted
    query = SearchQuery(n=entry.n, constraint=kind, shape=SudokuShape(*sides) if pair else None,
                        mode="exists", node_budget=node_budget)
    for d in range(entry.upper, 0, -1):
        result = run_search(replace(query, min_distance=d))
        if not result.complete:
            raise SearchIncompleteError(
                f"node budget exhausted probing distance {d}; "
                f"maximum lies in [{entry.lower}, {d}]", lower=entry.lower, upper=d)
        if result.count:
            return d
    return 0
