from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import latindist
from latindist import SquareGrid, parse_grid_text

# every property test draws the same examples on every run and every Python, untimed; a
# test's own @settings still names its example count
settings.register_profile("latindist", derandomize=True, deadline=None)
settings.load_profile("latindist")

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_golden(name: str) -> SquareGrid:
    return parse_grid_text((FIXTURE_DIR / name).read_text())


@pytest.fixture(scope="session")
def golden():
    """Loader for the golden grid files shipped under tests/fixtures."""
    return load_golden


def random_grids(seed: int, count: int):
    """Order-2..9 grids as lists of rows: uniform random fills, and linear
    squares (alpha*i + beta*j) mod n under a random relabelling of the
    symbols with 0-2 cells overwritten.  A linear square is Latin when
    alpha and beta are units mod n, and pandiagonal when alpha + beta and
    alpha - beta are units too; other multipliers repeat symbols in a
    regular pattern."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 10))
        if t % 2:
            cells = rng.integers(1, n + 1, size=(n, n))
        else:
            alpha, beta = rng.integers(0, n, size=2)
            i = np.arange(n).reshape(-1, 1)
            j = np.arange(n)
            cells = rng.permutation(n)[(alpha * i + beta * j) % n] + 1
            for _ in range(int(rng.integers(0, 3))):
                cells[rng.integers(n), rng.integers(n)] = rng.integers(1, n + 1)
        yield cells.tolist()


# the squares the build-verify benchmark builds, at its orders: (constructor, arguments)
BENCHMARK_SQUARES = [("pandiagonal_max", (151,)), ("max_distance_square", (162,)),
                     ("sudoku_square", (12, 12)), ("sudoku_square", (7, 17)),
                     ("sudoku_square", (16, 8))]
BENCHMARK_IDS = ["-".join(map(str, (build, *args))) for build, args in BENCHMARK_SQUARES]


def benchmark_square(build: str, args: tuple) -> SquareGrid:
    return getattr(latindist, build)(*args)


def corrupted_copies(grid: SquareGrid, seed: int):
    """The grid's rows, then four seeded corruptions of them, each a list of rows.

    A cell is overwritten by the next symbol, and two cells of one row are
    swapped, which always breaks their columns: a random cell and a random
    pair; the pair of one row on forward diagonals d = 0 and d = n - 1, (i, i)
    and (i, i + 1); the pair on back diagonals d = 0 and d = n - 1, (i, -i)
    and (i, n - 1 - i); then the corners (0, 0) and (n - 1, 0), which lie on
    both diagonals d = 0 and both d = n - 1.  Columns are taken mod n.
    """
    rng = np.random.default_rng(seed)
    n = grid.n
    yield grid.rows()

    def copy(swap=(), overwrite=()):
        cells = grid.cells.copy()
        for i, j, k in swap:
            cells[i, [j % n, k % n]] = cells[i, [k % n, j % n]]
        for i, j in overwrite:
            cells[i, j] = cells[i, j] % n + 1
        return cells.tolist()

    i, j, k = (int(v) for v in rng.integers(n, size=3))
    yield copy(swap=[(i, j, j + 1 + k % (n - 1))], overwrite=[tuple(rng.integers(n, size=2))])
    i = int(rng.integers(n))
    yield copy(swap=[(i, i, i + 1)])
    yield copy(swap=[(i, -i, n - 1 - i)])
    yield copy(overwrite=[(0, 0), (n - 1, 0)])
