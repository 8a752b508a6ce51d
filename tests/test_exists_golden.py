"""The cell walk's exists probes, pinned query by query.

The golden file holds, for each query of the sweep below, the count,
nodes_expanded, complete and the SHA-256 of the witness's cells, as
`run_search` gave them before the cell walk carried its unit occupancy
down the walk.  The sweep probes plain orders 4-25, pandiagonal orders
5-23 prime to 6 and every Sudoku shape (a, b) with a, b >= 2 and a*b <= 30,
at every distance from one past `known_bounds`' upper bound down to 1,
under one node budget: 697 probes, 476 of them complete.  Exists mode
always takes the cell walk, so the file pins its visiting and symbol
order, its node counts and its mirror cut.  A change that alters node
counts on purpose rewrites the file and says so.  Regenerate it with

    PYTHONPATH=src python tests/test_exists_golden.py > tests/fixtures/exists_golden.json
"""

import json
import sys
from math import gcd
from pathlib import Path

from latindist import SearchQuery, SudokuShape, known_bounds
from test_row_walk_golden import record

GOLDEN = Path(__file__).parent / "fixtures" / "exists_golden.json"
BUDGET = 10**4

_CLASSES = ([("plain", n, None) for n in range(4, 26)]
            + [("pandiagonal", n, None) for n in range(5, 24) if gcd(n, 6) == 1]
            + [("sudoku", a * b, (a, b)) for a in range(2, 16) for b in range(2, 16)
               if a * b <= 30])


def sweep():
    """(label, query) for every query the golden file pins."""
    for kind, n, shape in _CLASSES:
        name = f"sudoku ({shape[0]},{shape[1]})" if shape else f"{kind} {n}"
        sides = dict(zip("ab", shape)) if shape else {"n": n}
        for d in range(known_bounds(kind, **sides).upper + 1, 0, -1):
            yield f"{name} d={d}", SearchQuery(n=n, constraint=kind,
                                               shape=shape and SudokuShape(*shape),
                                               min_distance=d, mode="exists", node_budget=BUDGET)


def test_the_exists_sweep_matches_its_golden():
    golden = json.loads(GOLDEN.read_text())
    walked = {label: record(query) for label, query in sweep()}
    assert walked.keys() == golden.keys()
    assert len(golden) == 697 and sum(entry[2] for entry in golden.values()) == 476
    assert sum(entry[1] for entry in golden.values()) == 2_422_677
    assert [label for label in golden if walked[label] != golden[label]] == []


if __name__ == "__main__":
    lines = [f"{json.dumps(label)}: {json.dumps(record(query))}" for label, query in sweep()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
