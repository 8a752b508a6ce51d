"""Exhaustive backtracking enumeration of constrained Latin squares.

This is the independent oracle for counts, maxima, and nonexistence: it
fills cells in row-major order, keeping per-row/column (and per-block or
per-diagonal) occupancy bitmasks, and filters every candidate symbol
against a precomputed admissibility table dist(u, v) >= d for the two
already-placed neighbours (left and up).  At distances near n/2 each
symbol admits at most a handful of neighbours, so the tree collapses and
even order-9 runs finish in milliseconds.

The tree is partitioned into one task per valid first row.  The node
budget is divided evenly across tasks, and witnesses are sorted after the
fact, so count, witness list, and the complete flag are identical for any
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .construct import known_bounds
from .errors import NonexistenceError, ParameterError, SearchIncompleteError
from .grid import SquareGrid, SudokuShape

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
_SYMMETRIES = ("none", "fix_first_cell")


@dataclass(frozen=True)
class SearchQuery:
    """What to enumerate: order/shape, constraint kind, distance floor, mode.

    min_distance may exceed floor(n/2); the count is then simply 0.  With
    symmetry='fix_first_cell' the corner cell is pinned to symbol 1 and
    the reported count covers only that slice of the space (callers
    multiply back out where that is sound).
    """

    n: int | None = None
    constraint: str = "plain"
    shape: SudokuShape | None = None
    min_distance: int = 1
    mode: str = "count"
    symmetry: str = "none"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.constraint not in _CONSTRAINTS:
            raise ParameterError(f"constraint must be one of {_CONSTRAINTS}, got {self.constraint!r}")
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.symmetry not in _SYMMETRIES:
            raise ParameterError(f"symmetry must be one of {_SYMMETRIES}, got {self.symmetry!r}")
        if self.min_distance < 1:
            raise ParameterError(f"min_distance must be at least 1, got {self.min_distance}")
        if self.node_budget < 1:
            raise ParameterError(f"node_budget must be positive, got {self.node_budget}")
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
               "symmetry": self.symmetry, "node_budget": self.node_budget}
        if self.shape is not None:
            doc["shape"] = {"a": self.shape.a, "b": self.shape.b}
        return doc


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search.

    complete means the answer is definitive for the queried mode; a result
    truncated by the node budget always comes back with complete=False,
    never silently.  In exists mode the count is min(total, 1) because the
    search stops at the first witness.
    """

    count: int
    witnesses: tuple[SquareGrid, ...]
    nodes_expanded: int
    complete: bool


class _Context:
    """Immutable per-search tables shared by every task."""

    __slots__ = ("n", "full", "adm", "constraint", "a", "b")

    def __init__(self, n: int, d: int, constraint: str, a: int, b: int):
        self.n = n
        self.full = (1 << n) - 1
        self.constraint = constraint
        self.a = a
        self.b = b
        self.adm = [0] * (n + 1)
        for u in range(1, n + 1):
            mask = 0
            for v in range(1, n + 1):
                if min((u - v) % n, (v - u) % n) >= d:
                    mask |= 1 << (v - 1)
            self.adm[u] = mask


def _enumerate_first_rows(ctx: _Context, fix_first: bool, budget: int):
    """All admissible assignments of row 1, in lexicographic order.

    Within a single row the block constraint is subsumed by the row
    constraint and no two cells share a wrapped diagonal, so only the row
    mask and the left-neighbour distance filter apply here.
    """
    n, full, adm = ctx.n, ctx.full, ctx.adm
    rows: list[tuple[int, ...]] = []
    row = [0] * n
    nodes = 0
    budget_hit = False

    def rec(c: int, used: int) -> bool:
        nonlocal nodes, budget_hit
        if c == n:
            rows.append(tuple(row))
            return False
        cand = full & ~used
        if c == 0 and fix_first:
            cand &= 1
        if c:
            cand &= adm[row[c - 1]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if nodes > budget:
                budget_hit = True
                return True
            row[c] = bit.bit_length()
            if rec(c + 1, used | bit):
                return True
        return False

    rec(0, 0)
    return rows, nodes, budget_hit


def _run_task(ctx: _Context, first_row: tuple[int, ...], budget: int,
              collect: bool, stop_first: bool):
    """Complete all grids extending one fixed first row.

    Returns (count, nodes, budget_hit, witnesses-as-row-tuples).
    """
    n, full, adm = ctx.n, ctx.full, ctx.adm
    total = n * n
    sudoku = ctx.constraint == "sudoku"
    pandiagonal = ctx.constraint == "pandiagonal"
    a, b = ctx.a, ctx.b

    grid = [0] * total
    row_used = [0] * n
    col_used = [0] * n
    blk_used = [0] * n if sudoku else []
    fd_used = [0] * n
    bd_used = [0] * n
    for c, sym in enumerate(first_row):
        bit = 1 << (sym - 1)
        grid[c] = sym
        row_used[0] |= bit
        col_used[c] |= bit
        if sudoku:
            blk_used[c // b] |= bit
        elif pandiagonal:
            fd_used[-c % n] |= bit
            bd_used[c] |= bit

    count = 0
    nodes = 0
    budget_hit = False
    witnesses: list[tuple[tuple[int, ...], ...]] = []

    def rec(k: int) -> bool:
        nonlocal count, nodes, budget_hit
        if k == total:
            count += 1
            if collect:
                witnesses.append(tuple(tuple(grid[r * n:(r + 1) * n]) for r in range(n)))
            return stop_first
        r, c = divmod(k, n)
        cand = full & ~(row_used[r] | col_used[c])
        if sudoku:
            blk = (r // a) * a + c // b
            cand &= ~blk_used[blk]
        elif pandiagonal:
            fd = (r - c) % n
            bd = (r + c) % n
            cand &= ~(fd_used[fd] | bd_used[bd])
        if c:
            cand &= adm[grid[k - 1]]
        if r:
            cand &= adm[grid[k - n]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if nodes > budget:
                budget_hit = True
                return True
            grid[k] = bit.bit_length()
            row_used[r] |= bit
            col_used[c] |= bit
            if sudoku:
                blk_used[blk] |= bit
            elif pandiagonal:
                fd_used[fd] |= bit
                bd_used[bd] |= bit
            stop = rec(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit
            if sudoku:
                blk_used[blk] ^= bit
            elif pandiagonal:
                fd_used[fd] ^= bit
                bd_used[bd] ^= bit
            if stop:
                return True
        return False

    rec(n)
    return count, nodes, budget_hit, witnesses


def _task_entry(args):
    """Picklable worker entry: rebuilds the context and runs one task."""
    n, d, constraint, a, b, first_row, budget, collect = args
    ctx = _Context(n, d, constraint, a, b)
    return _run_task(ctx, first_row, budget, collect, stop_first=False)


def run_search(query: SearchQuery, workers: int = 1) -> SearchResult:
    """Count, enumerate, or probe existence of grids matching the query.

    The candidate set of every cell is filtered by the Latin (and block or
    diagonal) occupancy masks and by the distance table against the left
    and upper neighbours, so the distance floor prunes while building, not
    after.  Witness lists are in lexicographic grid order regardless of
    worker count.
    """
    if workers < 1:
        raise ParameterError(f"workers must be positive, got {workers}")
    n = query.n
    a, b = (query.shape.a, query.shape.b) if query.shape else (0, 0)
    ctx = _Context(n, query.min_distance, query.constraint, a, b)
    collect = query.mode == "enumerate"
    stop_first = query.mode == "exists"

    first_rows, root_nodes, root_hit = _enumerate_first_rows(
        ctx, query.symmetry == "fix_first_cell", query.node_budget)
    if root_hit:
        return SearchResult(count=0, witnesses=(), nodes_expanded=root_nodes, complete=False)
    if not first_rows:
        return SearchResult(count=0, witnesses=(), nodes_expanded=root_nodes, complete=True)

    task_budget = (query.node_budget - root_nodes) // len(first_rows)
    if task_budget < 1:
        return SearchResult(count=0, witnesses=(), nodes_expanded=root_nodes, complete=False)

    count = 0
    nodes = root_nodes
    complete = True
    raw_witnesses: list[tuple[tuple[int, ...], ...]] = []

    if stop_first:
        # existence probes walk tasks in lexicographic order and stop at the
        # first witness, so the answer is deterministic for any worker count
        for first_row in first_rows:
            t_count, t_nodes, t_hit, t_wit = _run_task(
                ctx, first_row, task_budget, collect=True, stop_first=True)
            nodes += t_nodes
            if t_hit:
                return SearchResult(count=0, witnesses=(), nodes_expanded=nodes, complete=False)
            if t_count:
                witness = (SquareGrid([list(r) for r in t_wit[0]]),)
                return SearchResult(count=1, witnesses=witness, nodes_expanded=nodes, complete=True)
        return SearchResult(count=0, witnesses=(), nodes_expanded=nodes, complete=True)

    if workers == 1:
        outcomes = (_run_task(ctx, fr, task_budget, collect, False) for fr in first_rows)
        for t_count, t_nodes, t_hit, t_wit in outcomes:
            count += t_count
            nodes += t_nodes
            complete = complete and not t_hit
            raw_witnesses.extend(t_wit)
    else:
        args = [(n, query.min_distance, query.constraint, a, b, fr, task_budget, collect)
                for fr in first_rows]
        chunk = max(1, len(args) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for t_count, t_nodes, t_hit, t_wit in pool.map(_task_entry, args, chunksize=chunk):
                count += t_count
                nodes += t_nodes
                complete = complete and not t_hit
                raw_witnesses.extend(t_wit)

    raw_witnesses.sort()
    witnesses = tuple(SquareGrid([list(r) for r in w]) for w in raw_witnesses)
    return SearchResult(count=count, witnesses=witnesses, nodes_expanded=nodes, complete=complete)


def max_distance_via_search(kind: str, size, *, node_budget: int = DEFAULT_NODE_BUDGET,
                            workers: int = 1) -> int:
    """Largest d for which a square of the given class with distance >= d exists.

    Probes existence downward from the proven upper bound, so it both
    verifies the bound and finds the maximum.  size is an order for plain
    and pandiagonal kinds, or an (a, b) shape for sudoku.  If a probe hits
    the node budget the answer is unknown and a SearchIncompleteError with
    the open bracket is raised instead of a guess.
    """
    if kind == "sudoku":
        shape = size if isinstance(size, SudokuShape) else SudokuShape(*size)
        entry = known_bounds(kind, a=shape.a, b=shape.b)
        n = shape.n
    elif kind in ("plain", "pandiagonal"):
        shape = None
        n = int(size)
        entry = known_bounds(kind, n=n)
    else:
        raise ParameterError(f"unknown kind {kind!r}")
    if not entry.existence:
        raise NonexistenceError(f"no {kind} Latin square of order {n} exists")
    for d in range(entry.upper, 0, -1):
        query = SearchQuery(n=n, constraint=kind, shape=shape, min_distance=d,
                            mode="exists", node_budget=node_budget)
        result = run_search(query, workers=workers)
        if not result.complete:
            raise SearchIncompleteError(
                f"node budget exhausted probing distance {d}; "
                f"maximum lies in [1, {d}]", lower=1, upper=d)
        if result.count:
            return d
    return 0
