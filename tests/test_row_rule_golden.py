"""The row-walk rule's decision, pinned query by query.

The golden file holds, for each plain order n = 2..64, one entry per
distance d = 1..n//2 + 1: the number R of admissible rows when the
row-walk rule of the `search.py` docstring lets the query stack rows, or
null when it turns the query away.  It was generated while `_rows` still
grew the rows one numpy column step at a time, so it pins both terms of
the rule, the prefix term included, across the listing's rewrites.
Regenerate it with

    PYTHONPATH=src python tests/test_row_rule_golden.py > tests/fixtures/row_rule_golden.json
"""

import json
import sys
from pathlib import Path

from latindist.search import _rows

GOLDEN = Path(__file__).parent / "fixtures" / "row_rule_golden.json"
ORDERS = range(2, 65)


def decisions(n):
    """R for each d = 1..n//2 + 1, or None where the rule turns the query away."""
    return [None if listed is None else len(listed[0])
            for listed in (_rows(n, d) for d in range(1, n // 2 + 2))]


def test_the_row_rule_matches_its_golden():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [str(n) for n in ORDERS]
    assert [n for n in ORDERS if decisions(n) != golden[str(n)]] == []
    # plain 22 d=10, an even ceiling, has 2 684 rows, under the cap: the prefix term alone
    # turns it away.  Every even ceiling from order 22 on is turned away
    assert golden["22"][9] is None and golden["20"][8] == 2_040
    assert all(golden[str(n)][n // 2 - 2] is None for n in range(22, 65, 2))


if __name__ == "__main__":
    lines = [f"{json.dumps(str(n))}: {json.dumps(decisions(n))}" for n in ORDERS]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
