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

from . import _EXPORTS
from .errors import UndefinedDistanceError
from .grid import SquareGrid, _cyclic_distance, _narrow

__all__ = list(_EXPORTS["metrics"])


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Inner distance together with the full census of adjacent distances.

    realized_classes maps each occurring distance value to the number of
    unordered adjacent pairs realizing it; the counts sum to 2n(n-1).
    argmin_pairs is a read-only int64 array of shape (k, 2, 2): row m
    holds the 1-based cells [[i, j], [i', j']] of the m-th pair achieving
    the minimum, horizontal pairs in row-major order first, then vertical.
    Reports compare and hash by value.
    """

    inner_distance: int
    realized_classes: tuple[tuple[int, int], ...]
    argmin_pairs: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceReport):
            return NotImplemented
        return (self.inner_distance == other.inner_distance
                and self.realized_classes == other.realized_classes
                and np.array_equal(self.argmin_pairs, other.argmin_pairs))

    def __hash__(self) -> int:
        return hash((self.inner_distance, self.realized_classes, self.argmin_pairs.tobytes()))

    def as_json_dict(self) -> dict:
        return {
            "inner_distance": self.inner_distance,
            "classes": [{"distance": d, "pairs": c} for d, c in self.realized_classes],
            "argmin_pairs": self.argmin_pairs.tolist(),
        }


def _fill_pairs(out: np.ndarray, hits: np.ndarray, step: tuple[int, int]) -> None:
    """Write the 1-based cell pairs at the true cells of hits, in row-major
    order, into out of shape (k, 2, 2); the second cell lies one step away.

    A hit's row is read off the hit count of each row, and its column is
    its flat index less that of its row's first cell, so no index is
    divided; the rows become the columns in place.
    """
    index = np.repeat(np.arange(len(hits)), np.count_nonzero(hits, axis=1))
    np.add(index, 1, out=out[:, 0, 0])
    np.add(index, 1 + step[0], out=out[:, 1, 0])
    index *= -hits.shape[1]
    index += np.flatnonzero(hits)
    np.add(index, 1, out=out[:, 0, 1])
    np.add(index, 1 + step[1], out=out[:, 1, 1])


def inner_distance(grid: SquareGrid) -> DistanceReport:
    """Minimum adjacent distance over the grid, with the class census."""
    n = grid.n
    if n == 1:
        raise UndefinedDistanceError(
            "inner distance is undefined for an order-1 grid (no adjacent cells)")
    # symbols and their differences lie in [-n, n], so the narrow copy holds every value
    cells = grid.cells.astype(_narrow(n))
    hdist = _cyclic_distance(cells[:, 1:] - cells[:, :-1], n)
    vdist = _cyclic_distance(cells[1:, :] - cells[:-1, :], n)

    hcounts = np.bincount(hdist.ravel(), minlength=n // 2 + 1)
    counts = hcounts + np.bincount(vdist.ravel(), minlength=n // 2 + 1)
    values = np.flatnonzero(counts)
    classes = tuple(zip(values.tolist(), counts[values].tolist()))
    best = classes[0][0]

    pairs = np.empty((classes[0][1], 2, 2), dtype=np.int64)
    horizontal = int(hcounts[best])
    _fill_pairs(pairs[:horizontal], hdist == best, (0, 1))
    _fill_pairs(pairs[horizontal:], vdist == best, (1, 0))
    pairs.setflags(write=False)
    return DistanceReport(inner_distance=best, realized_classes=classes, argmin_pairs=pairs)
