from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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
