"""The row walk's answers, pinned query by query.

The golden file holds, for each query of the sweep below, the count,
nodes_expanded, complete and the SHA-256 of the witnesses' concatenated
cells, as the row walk gave them before its masks were worked out in
64-bit words.  A change that alters node counts on purpose rewrites the
file and says so.  Regenerate it with

    PYTHONPATH=src python tests/test_row_walk_golden.py > tests/fixtures/row_walk_golden.json
"""

import hashlib
import json
import sys
from pathlib import Path

from latindist import DEFAULT_NODE_BUDGET, SearchQuery, SudokuShape, run_search
from latindist.search import _rows

GOLDEN = Path(__file__).parent / "fixtures" / "row_walk_golden.json"

# queries whose rows do not fit one 64-bit word: 66, 120, 144, 208, 560 and 1 710 rows
_WIDE = [(33, None, 16), (5, None, 1), (8, None, 3), (8, (2, 4), 3), (10, (2, 5), 4),
         (9, (3, 3), 3)]
# starved walks on both sides of 64 rows
_STARVED = [(25, None, 12), (31, None, 15), (4, (2, 2), 1), (9, (3, 3), 4), (33, None, 16),
            (8, None, 3), (9, (3, 3), 3)]


def _one_word():
    """Every plain order 2..33 and Sudoku shape of order up to 16, at every distance with
    1 to 64 admissible rows, as (n, shape, d)."""
    classes = [(n, None) for n in range(2, 34)]
    classes += [(a * b, (a, b)) for a in range(1, 17) for b in range(1, 17) if 2 <= a * b <= 16]
    for n, shape in classes:
        for d in range(1, n // 2 + 2):
            listed = _rows(n, d)
            if listed is not None and 0 < len(listed[0]) <= 64:
                yield n, shape, d


def sweep():
    """(label, query) for every query the golden file pins."""
    for n, shape, d in [*_one_word(), *_WIDE]:
        for mode in ("count", "enumerate"):
            yield _labelled(n, shape, d, mode, DEFAULT_NODE_BUDGET)
    for n, shape, d in _STARVED:
        for budget in (1, 3, 10):
            for mode in ("count", "enumerate"):
                yield _labelled(n, shape, d, mode, budget)


def _labelled(n, shape, d, mode, budget):
    kind = f"sudoku ({shape[0]},{shape[1]})" if shape else f"plain {n}"
    label = f"{kind} d={d} {mode}" + ("" if budget == DEFAULT_NODE_BUDGET else f" budget={budget}")
    return label, SearchQuery(n=n, constraint="sudoku" if shape else "plain",
                              shape=SudokuShape(*shape) if shape else None, min_distance=d,
                              mode=mode, node_budget=budget)


def record(query):
    result = run_search(query)
    digest = hashlib.sha256(b"".join(w.cells.tobytes() for w in result.witnesses))
    return [result.count, result.nodes_expanded, result.complete, digest.hexdigest()]


def test_the_sweep_covers_both_sides_of_one_word():
    rows = {label: len(_rows(q.n, q.min_distance)[0]) for label, q in sweep()}
    assert max(rows.values()) == 1_710
    assert rows["plain 31 d=15 count"] == 62 and rows["plain 33 d=16 count"] == 66
    # 44 one-word queries in two modes, and four of the starved ones at three budgets
    assert sum(count <= 64 for count in rows.values()) == 2 * 44 + 2 * 3 * 4


def test_the_row_walk_matches_its_golden():
    golden = json.loads(GOLDEN.read_text())
    walked = {label: record(query) for label, query in sweep()}
    assert walked.keys() == golden.keys()
    assert [label for label in golden if walked[label] != golden[label]] == []
    # the boundary pair: 61 placements under 62 rows, 65 under 66
    assert golden["plain 31 d=15 count"][:3] == [124, 61, True]
    assert golden["plain 33 d=16 count"][:3] == [132, 65, True]


if __name__ == "__main__":
    lines = [f"{json.dumps(label)}: {json.dumps(record(query))}" for label, query in sweep()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
