#!/usr/bin/env python3
"""All shift-by-k squares are one square in disguise.

Relabeling symbols, sorting columns by the first row, and re-ranking rows
turns every Latin sum square, whose every row is row 0 plus a constant
(all shift-by-k squares and every offset shift fill among them), into the
same circulant with first row 1..n.  The reduction returns the
permutation triple that achieves it, so the claim is checkable by direct
application; any other square is refused.
"""

from latindist import (NotReducibleError, SearchQuery, apply_permutation, format_grid_text,
                       run_search, shift_by_k, to_circulant_canonical)

n = 7
print(f"Shift-by-k squares of order {n} for every k coprime to {n}:\n")
for k in (1, 2, 3, -1):
    grid = shift_by_k(n, k)
    canonical, perm = to_circulant_canonical(grid)
    same = apply_permutation(grid, perm) == canonical
    print(f"  k={k:+d}: rows of the original start with "
          f"{[row[0] for row in grid.rows()]}")
    print(f"        row permutation {list(perm.rows)}, "
          f"columns {list(perm.cols)}, verified={same}")

canonical, _ = to_circulant_canonical(shift_by_k(n, 3))
print("\nThe shared canonical form (each row is the previous one shifted right):\n")
print(format_grid_text(canonical))

maxima = run_search(SearchQuery(n=6, min_distance=2, mode="enumerate")).witnesses
refused = []
for grid in maxima:
    try:
        to_circulant_canonical(grid)
    except NotReducibleError as exc:
        refused.append((grid, exc))
print(f"Of the {len(maxima)} Latin squares of order 6 with inner distance 2, the reduction")
print(f"refuses {len(refused)}: each row is a rotation of row 0, but not row 0 plus a")
print("constant, so they are not sum squares.  The first of them:\n")
grid, exc = refused[0]
print(format_grid_text(grid))
print(f"NotReducibleError: {exc}")
print("\nThe refusal says nothing about isotopy, only about the method.")
