"""The adjacent-distance and inner-distance metric.

Two cells are adjacent when they share an edge horizontally or vertically;
adjacency does not wrap around the grid boundary, so edge cells have 2 or
3 neighbours.  The distance between symbols u and v is the shorter way
around the cycle of n symbols, min{(u-v) mod n, (v-u) mod n}, which lands
in [0, floor(n/2)].  The inner distance of a grid is the minimum over all
adjacent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedDistanceError
from .grid import SquareGrid

__all__ = ["DistanceReport", "adjacent_distance", "inner_distance"]

CellPair = tuple[tuple[int, int], tuple[int, int]]


def adjacent_distance(u: int, v: int, n: int) -> int:
    """Cyclic distance between symbols u and v modulo n.

    Defined for u == v (returns 0) even though Latin adjacency never
    produces it; search code compares arbitrary symbol pairs.
    """
    if n < 1:
        raise ParameterError(f"order must be positive, got {n}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParameterError(f"symbols must lie in [1, {n}], got {u}, {v}")
    return min((u - v) % n, (v - u) % n)


@dataclass(frozen=True)
class DistanceReport:
    """Inner distance together with the full census of adjacent distances.

    realized_classes maps each occurring distance value to the number of
    unordered adjacent pairs realizing it; the counts sum to 2n(n-1).
    argmin_pairs lists the 1-based cell pairs achieving the minimum,
    horizontal pairs in row-major order first, then vertical.
    """

    inner_distance: int
    realized_classes: tuple[tuple[int, int], ...]
    argmin_pairs: tuple[CellPair, ...]

    def class_counts(self) -> dict[int, int]:
        return dict(self.realized_classes)

    def as_json_dict(self) -> dict:
        return {
            "inner_distance": self.inner_distance,
            "classes": [{"distance": d, "pairs": c} for d, c in self.realized_classes],
            "argmin_pairs": [[list(p), list(q)] for p, q in self.argmin_pairs],
        }


def inner_distance(grid: SquareGrid) -> DistanceReport:
    """Minimum adjacent distance over the grid, with the class census."""
    n = grid.n
    if n == 1:
        raise UndefinedDistanceError(
            "inner distance is undefined for an order-1 grid (no adjacent cells)")
    cells = grid.cells
    hdiff = cells[:, 1:] - cells[:, :-1]
    vdiff = cells[1:, :] - cells[:-1, :]
    hdist = np.minimum(hdiff % n, -hdiff % n)
    vdist = np.minimum(vdiff % n, -vdiff % n)

    values, counts = np.unique(np.concatenate([hdist.ravel(), vdist.ravel()]), return_counts=True)
    classes = tuple((int(v), int(c)) for v, c in zip(values, counts))
    best = int(values[0])

    pairs: list[CellPair] = []
    for r, c in np.argwhere(hdist == best):
        pairs.append(((int(r) + 1, int(c) + 1), (int(r) + 1, int(c) + 2)))
    for r, c in np.argwhere(vdist == best):
        pairs.append(((int(r) + 1, int(c) + 1), (int(r) + 2, int(c) + 1)))
    return DistanceReport(inner_distance=best, realized_classes=classes, argmin_pairs=tuple(pairs))
