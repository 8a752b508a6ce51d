"""Both walks' answers over small classes, pinned query by query.

The golden file holds, for each query of the sweep below, the count,
nodes_expanded, complete and the SHA-256 of the witnesses' concatenated
cells, as `run_search` gave them before the square-class rule was
written once.  The sweep covers plain orders 3-9, pandiagonal orders 5, 7,
11 and 13 and six small Sudoku shapes at every distance from 1 to one
past the ceiling, in count, enumerate and exists mode, under one node
budget, so it holds the cell walk and exists mode as well as the row
walk.  A change that alters node counts on purpose rewrites the file and
says so: the pandiagonal count and enumerate entries were rewritten when
those walks moved to bands of three rows, keeping every complete entry's
count and witnesses.  Regenerate it with

    PYTHONPATH=src python tests/test_search_golden.py > tests/fixtures/search_golden.json
"""

import json
import sys
from pathlib import Path

from latindist import SearchQuery, SudokuShape
from test_row_walk_golden import record

GOLDEN = Path(__file__).parent / "fixtures" / "search_golden.json"
BUDGET = 3 * 10**4

_CLASSES = ([("plain", n, None) for n in range(3, 10)]
            + [("pandiagonal", n, None) for n in (5, 7, 11, 13)]
            + [("sudoku", a * b, (a, b)) for a, b in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
                                                       (3, 3)]])


def sweep():
    """(label, query) for every query the golden file pins."""
    for kind, n, shape in _CLASSES:
        name = f"sudoku ({shape[0]},{shape[1]})" if shape else f"{kind} {n}"
        for d in range(1, n // 2 + 2):
            for mode in ("count", "enumerate", "exists"):
                yield f"{name} d={d} {mode}", SearchQuery(
                    n=n, constraint=kind, shape=shape and SudokuShape(*shape), min_distance=d,
                    mode=mode, node_budget=BUDGET)


def test_the_search_sweep_matches_its_golden():
    golden = json.loads(GOLDEN.read_text())
    walked = {label: record(query) for label, query in sweep()}
    assert walked.keys() == golden.keys()
    assert len(golden) == 216 and sum(entry[2] for entry in golden.values()) == 170
    assert [label for label in golden if walked[label] != golden[label]] == []


if __name__ == "__main__":
    lines = [f"{json.dumps(label)}: {json.dumps(record(query))}" for label, query in sweep()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
