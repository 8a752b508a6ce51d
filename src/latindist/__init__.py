"""Latin squares under the inner-distance metric.

The inner distance of a Latin square is the smallest cyclic difference
between symbols in edge-adjacent cells.  This package constructs squares
that maximize it (plain, pandiagonal, and (a, b)-Sudoku variants),
validates and measures arbitrary grids, reduces shift-structured squares
to a canonical circulant form, and exhaustively counts or enumerates
squares above a distance floor.
"""

from .construct import (BoundsEntry, ShiftParams, algorithm1, algorithm2,
                        known_bounds, max_distance_square, pandiagonal_bounds,
                        pandiagonal_max, plain_bounds, predicted_inner_distance,
                        row_offset, shift_by_k, sudoku_bounds, sudoku_square)
from .errors import (GridFormatError, NonexistenceError, NotReducibleError,
                     ParameterError, SearchIncompleteError,
                     UndefinedDistanceError)
from .grid import (BlockAddress, SquareGrid, SudokuShape, ValidationReport,
                   Violation, block_of, format_grid_text, grid_from_json,
                   grid_to_json, parse_grid_json, parse_grid_text,
                   validate_latin, validate_pandiagonal, validate_sudoku)
from .metrics import DistanceReport, adjacent_distance, inner_distance
from .modmath import mod1n, residue_orbit
from .search import (DEFAULT_NODE_BUDGET, SearchQuery, SearchResult,
                     max_distance_via_search, run_search)
from .transform import (GridPermutation, apply_permutation, is_back_circulant,
                        is_circulant, to_circulant_canonical, transpose)

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
    "adjacent_distance",
    "algorithm1",
    "algorithm2",
    "apply_permutation",
    "block_of",
    "format_grid_text",
    "grid_from_json",
    "grid_to_json",
    "inner_distance",
    "is_back_circulant",
    "is_circulant",
    "known_bounds",
    "max_distance_square",
    "max_distance_via_search",
    "mod1n",
    "pandiagonal_bounds",
    "pandiagonal_max",
    "parse_grid_json",
    "parse_grid_text",
    "plain_bounds",
    "predicted_inner_distance",
    "residue_orbit",
    "row_offset",
    "run_search",
    "shift_by_k",
    "sudoku_bounds",
    "sudoku_square",
    "to_circulant_canonical",
    "transpose",
    "validate_latin",
    "validate_pandiagonal",
    "validate_sudoku",
]
