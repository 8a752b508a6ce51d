"""Latin squares under the inner-distance metric.

The inner distance of a Latin square is the smallest cyclic difference
between symbols in edge-adjacent cells.  This package constructs squares
that maximize it (plain, pandiagonal, and (a, b)-Sudoku variants),
validates and measures arbitrary grids, reduces Latin sum squares to
a canonical circulant form, and exhaustively counts or enumerates
squares above a distance floor.

Importing the package loads none of its modules: each public name, and
each module name, imports its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the one list of public names, by the module that defines each: the package re-exports
# them, and each module's __all__ is read from its entry
_EXPORTS = {
    "construct": ("BoundsEntry", "ShiftParams", "algorithm1", "algorithm2", "known_bounds",
                  "max_distance_square", "pandiagonal_max", "shift_by_k", "sudoku_square"),
    "errors": ("GridFormatError", "NonexistenceError", "NotReducibleError", "ParameterError",
               "SearchIncompleteError", "UndefinedDistanceError"),
    "grid": ("BlockAddress", "SquareGrid", "SudokuShape", "ValidationReport", "Violation",
             "format_grid_text", "grid_to_json", "parse_grid_json", "parse_grid_text",
             "validate_latin", "validate_pandiagonal", "validate_sudoku"),
    "metrics": ("DistanceReport", "inner_distance"),
    "search": ("DEFAULT_NODE_BUDGET", "SearchQuery", "SearchResult", "max_distance_via_search",
               "run_search"),
    "transform": ("GridPermutation", "apply_permutation", "to_circulant_canonical", "transpose"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

# the module that owns each public name, and each module name itself
_OWNER = {**{module: module for module in _EXPORTS},
          **{name: module for module, names in _EXPORTS.items() for name in names}}


def __getattr__(name: str):
    try:
        owner = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{owner}")
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
