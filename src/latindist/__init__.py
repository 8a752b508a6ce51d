"""Latin squares under the inner-distance metric.

The inner distance of a Latin square is the smallest cyclic difference
between symbols in edge-adjacent cells.  This package constructs squares
that maximize it (plain, pandiagonal, and (a, b)-Sudoku variants),
validates and measures arbitrary grids, reduces shift-structured squares
to a canonical circulant form, and exhaustively counts or enumerates
squares above a distance floor.
"""

from .construct import (BoundsEntry, ShiftParams, algorithm1, algorithm2,
                        known_bounds, max_distance_square, pandiagonal_max,
                        shift_by_k, sudoku_square)
from .errors import (GridFormatError, NonexistenceError, NotReducibleError,
                     ParameterError, SearchIncompleteError,
                     UndefinedDistanceError)
from .grid import (BlockAddress, SquareGrid, SudokuShape, ValidationReport,
                   Violation, format_grid_text, grid_to_json, parse_grid_json,
                   parse_grid_text, validate_latin, validate_pandiagonal,
                   validate_sudoku)
from .metrics import DistanceReport, inner_distance
from .search import (DEFAULT_NODE_BUDGET, SearchQuery, SearchResult,
                     max_distance_via_search, run_search)
from .transform import (GridPermutation, apply_permutation,
                        to_circulant_canonical, transpose)

__version__ = "0.1.0"

__all__ = [
    "BlockAddress",
    "BoundsEntry",
    "DEFAULT_NODE_BUDGET",
    "DistanceReport",
    "GridFormatError",
    "GridPermutation",
    "NonexistenceError",
    "NotReducibleError",
    "ParameterError",
    "SearchIncompleteError",
    "SearchQuery",
    "SearchResult",
    "ShiftParams",
    "SquareGrid",
    "SudokuShape",
    "UndefinedDistanceError",
    "ValidationReport",
    "Violation",
    "algorithm1",
    "algorithm2",
    "apply_permutation",
    "format_grid_text",
    "grid_to_json",
    "inner_distance",
    "known_bounds",
    "max_distance_square",
    "max_distance_via_search",
    "pandiagonal_max",
    "parse_grid_json",
    "parse_grid_text",
    "run_search",
    "shift_by_k",
    "sudoku_square",
    "to_circulant_canonical",
    "transpose",
    "validate_latin",
    "validate_pandiagonal",
    "validate_sudoku",
]
