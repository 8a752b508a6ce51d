#!/usr/bin/env python3
"""Counting every square above a distance floor, exactly.

The search fills cells row by row (Sudoku squares band by band, each band
column by column), filtering candidates through occupancy bitmasks and a
distance table against the two placed neighbours.  Near
the distance ceiling each symbol has at most a couple of admissible
neighbours, so complete enumeration is cheap, and it independently
confirms what the constructions promise.

The nodes printed are the placements of the reduced walk: symbol 1 in
the corner, row 0 no greater than its negation, and, in these count and
enumerate queries, row 0 no greater than c*, the smaller of column 0 and
its negation, which keeps one square of each transposed pair.  The
counts add the transposed partners and all 2n symbol maps back.
"""

import time

from latindist import SearchQuery, SudokuShape, run_search

print("At the ceiling d = (n-1)/2, odd orders admit exactly 4n squares:")
print("(two direction choices per axis, n choices for the corner symbol)\n")
for n in (5, 7, 9):
    d = (n - 1) // 2
    started = time.perf_counter()
    result = run_search(SearchQuery(n=n, min_distance=d))
    ms = (time.perf_counter() - started) * 1000
    print(f"  n={n} d={d}: {result.count:3d} squares = 4*{n}   "
          f"({result.nodes_expanded} nodes, {ms:.1f} ms)")

print("\nOne notch above the ceiling, nothing survives:")
for n, d in [(4, 2), (5, 3), (6, 3), (7, 4)]:
    result = run_search(SearchQuery(n=n, min_distance=d))
    print(f"  n={n} d={d}: {result.count} squares")

print("\nThe same engine handles block and diagonal constraints:")
shape = SudokuShape(3, 3)
for d in (3, 4):
    result = run_search(SearchQuery(constraint="sudoku", shape=shape, min_distance=d))
    print(f"  (3,3) blocks, d={d}: {result.count} squares")
for d in (1, 2):
    result = run_search(SearchQuery(n=5, constraint="pandiagonal", min_distance=d))
    print(f"  pandiagonal n=5, d={d}: {result.count} squares")

print("\nWitness enumeration is deterministic; the first of the 20 maximal")
print("order-5 squares in lexicographic order:\n")
result = run_search(SearchQuery(n=5, min_distance=2, mode="enumerate"))
for row in result.witnesses[0].rows():
    print(" ", " ".join(map(str, row)))
