"""Expected answers that do not come from the code under test.

Every check here recomputes a property from its definition with numpy,
or compares against a closed form or a pinned count whose provenance is
recorded next to it.  `test_perfbench.py` re-derives the pinned counts
with a row-stacking counter and the brute-force oracle in `tests/`.
"""

from __future__ import annotations

from math import gcd
from pathlib import Path

import numpy as np


class WrongAnswer(Exception):
    """The program answered, and the answer contradicts the expectation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


# Pinned search counts: (kind, size, d) -> (count, provenance).  size is an
# order, or an (a, b) block shape for sudoku.
PINNED_COUNTS = {
    ("plain", 3, 1): (12, "oracle"),
    ("plain", 4, 1): (576, "oracle"),
    ("plain", 4, 2): (0, "oracle"),
    ("plain", 5, 1): (161280, "number of Latin squares of order 5 (OEIS A002860)"),
    ("plain", 6, 2): (672, "row-stacking counter"),
    ("plain", 8, 3): (2720, "row-stacking counter"),
    ("pandiagonal", 5, 1): (240, "row-stacking counter"),
    ("pandiagonal", 7, 2): (56, "row-stacking counter"),
    ("pandiagonal", 11, 4): (88, "row-stacking counter"),
    ("pandiagonal", 13, 5): (104, "row-stacking counter"),
    ("sudoku", (2, 2), 1): (288, "oracle"),
    ("sudoku", (2, 3), 2): (48, "row-stacking counter"),
    ("sudoku", (2, 4), 3): (64, "row-stacking counter"),
    ("sudoku", (2, 5), 4): (80, "row-stacking counter"),
    ("sudoku", (3, 3), 3): (2880, "row-stacking counter"),
}


def plain_max(n: int) -> int:
    """floor((n-1)/2), the proven maximum for n >= 3 (1 for n = 2)."""
    return 1 if n == 2 else (n - 1) // 2


def pandiagonal_exists(n: int) -> bool:
    return n % 6 in (1, 5)


def pandiagonal_max(n: int) -> int:
    return (n - 3) // 2


def sudoku_bounds(a: int, b: int) -> tuple[int, int]:
    """Proven (lower, upper) for (a, b)-Sudoku squares, from the paper's formulas."""
    a, b = min(a, b), max(a, b)
    n = a * b
    if a == 1:
        return plain_max(b), plain_max(b)
    if a == 2:
        return b - 1, b - 1
    upper = (n - 5) // 2 if a % 2 and b % 2 and a >= 5 else (n - 3) // 2
    if b % 2 or a % 2 == 0:
        lower = (n - a) // 2
    elif b % 4 == 0:
        lower = (n - min(2 * a, b)) // 2
    else:
        lower = (n - min(4 * a, b)) // 2
    return lower, upper


def max_range(kind: str, size) -> tuple[int, int]:
    """Proven (lower, upper) on the largest inner distance of a class that exists."""
    if kind == "plain":
        return plain_max(size), plain_max(size)
    if kind == "pandiagonal":
        return pandiagonal_max(size), pandiagonal_max(size)
    return sudoku_bounds(*size)


def ceiling_count(n: int) -> int:
    """Exactly 4n squares of odd order n reach distance (n-1)/2."""
    return 4 * n


# --- grid checks --------------------------------------------------------


def unit_labels(n: int, kind: str, shape: tuple[int, int] | None = None) -> list[np.ndarray]:
    """One n x n label array per family of units the kind must keep Latin."""
    i, j = np.indices((n, n))
    labels = [i, j]
    if kind == "pandiagonal":
        labels += [(i - j) % n, (i + j) % n]
    elif kind == "sudoku":
        a, b = shape
        labels.append((i // a) * a + j // b)
    return labels


def duplicate_count(cells: np.ndarray, kind: str, shape=None) -> int:
    """Number of (unit, symbol) pairs where the symbol occurs twice or more."""
    n = cells.shape[0]
    total = 0
    for label in unit_labels(n, kind, shape):
        counts = np.bincount((label * n + cells - 1).ravel(), minlength=n * n)
        total += int(np.count_nonzero(counts >= 2))
    return total


def distance_census(cells: np.ndarray) -> dict[int, int]:
    """Adjacent-distance value -> number of edge-adjacent pairs realising it."""
    n = cells.shape[0]
    diffs = np.concatenate([(cells[:, 1:] - cells[:, :-1]).ravel(),
                            (cells[1:, :] - cells[:-1, :]).ravel()])
    dist = np.minimum(diffs % n, -diffs % n)
    values, counts = np.unique(dist, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def inner_distance(cells: np.ndarray) -> int:
    return min(distance_census(cells))


def is_additive(cells: np.ndarray) -> bool:
    """cells[i, j] = x_i + y_j (mod n): the squares a circulant reduction must accept."""
    n = cells.shape[0]
    c = cells - 1
    return bool(np.all((c - c[:, :1] - c[:1, :] + c[0, 0]) % n == 0)
                and duplicate_count(cells, "plain") == 0)


def circulant(n: int) -> np.ndarray:
    """First row 1..n, each row shifted right by one."""
    i, j = np.indices((n, n))
    return (j - i) % n + 1


def apply_triple(cells: np.ndarray, rows, cols, symbols) -> np.ndarray:
    """Cell (i, j) holding m moves to (rows[i], cols[j]) and becomes symbols[m]."""
    out = np.zeros_like(cells)
    rows = np.asarray(rows) - 1
    cols = np.asarray(cols) - 1
    out[rows[:, None], cols[None, :]] = np.asarray(symbols)[cells - 1]
    return out


def check_square(cells: np.ndarray, kind: str, shape, min_distance: int, what: str) -> None:
    require(duplicate_count(cells, kind, shape) == 0, f"{what}: not a valid {kind} square")
    require(inner_distance(cells) >= min_distance,
            f"{what}: inner distance below {min_distance}")


def check_witnesses(stack: np.ndarray, kind: str, shape, min_distance: int, what: str) -> None:
    """Vectorised check of k witnesses (k x n x n): valid, distance >= d, sorted, distinct."""
    k, n, _ = stack.shape
    if k == 0:
        return
    for label in unit_labels(n, kind, shape):
        keys = (label[None] * n + stack - 1).reshape(k, -1)
        keys = keys + (np.arange(k) * n * n)[:, None]
        counts = np.bincount(keys.ravel(), minlength=k * n * n)
        require(not np.any(counts >= 2), f"{what}: a witness breaks the {kind} constraint")
    for diffs in (stack[:, :, 1:] - stack[:, :, :-1], stack[:, 1:, :] - stack[:, :-1, :]):
        require(bool(np.all(np.minimum(diffs % n, -diffs % n) >= min_distance)),
                f"{what}: a witness is below distance {min_distance}")
    flat = stack.reshape(k, -1)
    if k > 1:
        order = np.lexsort(flat.T[::-1])
        require(bool(np.all(order == np.arange(k))),
                f"{what}: witnesses not in lexicographic order")
        step = flat[1:] != flat[:-1]
        require(bool(np.all(step.any(axis=1))), f"{what}: duplicate witnesses")


# --- grids the benchmark makes itself ----------------------------------------


def shift_square(n: int, r: int, c: int) -> np.ndarray:
    """cells[i, j] = 1 + (i*r + j*c) mod n; Latin when r and c are units mod n."""
    if gcd(r, n) != 1 or gcd(c, n) != 1:
        raise ValueError(f"increments {r}, {c} must be coprime to {n}")
    i, j = np.indices((n, n))
    return (i * r + j * c) % n + 1


def corrupt(cells: np.ndarray, rng, k: int) -> np.ndarray:
    """A copy with k distinct cells each overwritten by a different symbol."""
    n = cells.shape[0]
    out = cells.copy()
    for flat in rng.sample(range(n * n), k):
        i, j = divmod(flat, n)
        out[i, j] = (out[i, j] + rng.randrange(1, n)) % n or n
    return out


def grid_text(cells: np.ndarray) -> str:
    return "".join(" ".join(str(int(v)) for v in row) + "\n" for row in cells)


def parse_text(text: str) -> np.ndarray:
    rows = [[int(t) for t in line.split()] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return np.array(rows, dtype=np.int64)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# CLI `gen` argument lists whose output must equal a golden fixture byte for byte.
GOLDEN_GEN = [
    (["--algo", "shiftk", "--n", "5", "--k", "-1"], "order5_back_circulant.txt"),
    (["--algo", "shiftk", "--n", "5", "--k", "1"], "order5_circulant.txt"),
    (["--algo", "shiftk", "--n", "5", "--k", "2"], "order5_shift_by_2.txt"),
    (["--algo", "shiftk", "--n", "5", "--k", "3"], "order5_shift_by_3.txt"),
    (["--algo", "shift", "--n", "6", "--r", "4", "--c", "2", "--alpha", "-1", "--beta", "1"],
     "order6_shift_r4_c2.txt"),
    (["--algo", "shift", "--n", "9", "--r", "5", "--c", "4", "--alpha", "9", "--beta", "9"],
     "order9_shift_r5_c4.txt"),
    (["--algo", "shift", "--n", "10", "--r", "5", "--c", "4", "--alpha", "1", "--beta", "1"],
     "order10_shift_r5_c4.txt"),
    (["--algo", "pandiagonal", "--n", "11"], "order11_pandiagonal.txt"),
    (["--algo", "sudoku", "--a", "3", "--b", "3"], "order9_sudoku_3x3.txt"),
    (["--algo", "eveneven", "--x", "2", "--y", "2"], "order16_sudoku_4x4.txt"),
]


def golden_text(name: str) -> str:
    """The fixture's grid lines as `gen` prints them (comment lines dropped)."""
    return grid_text(parse_text((FIXTURE_DIR / name).read_text()))
