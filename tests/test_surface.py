"""The package's public names: exactly what the README, the demos, the CLI
and the benchmark reach, and every module's `__all__` re-exported."""

import importlib
import importlib.util

import latindist

PUBLIC = """
    BoundsEntry ShiftParams algorithm1 algorithm2 known_bounds
    max_distance_square pandiagonal_max shift_by_k sudoku_square
    GridFormatError NonexistenceError NotReducibleError ParameterError
    SearchIncompleteError UndefinedDistanceError
    BlockAddress SquareGrid SudokuShape ValidationReport Violation
    format_grid_text grid_to_json parse_grid_json parse_grid_text
    validate_latin validate_pandiagonal validate_sudoku
    DistanceReport inner_distance
    DEFAULT_NODE_BUDGET SearchQuery SearchResult max_distance_via_search run_search
    GridPermutation apply_permutation to_circulant_canonical transpose
""".split()

MODULES = ("construct", "errors", "grid", "metrics", "search", "transform")


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 38
    assert sorted(latindist.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(latindist, name), name


def test_every_module_export_is_re_exported_by_the_package():
    exported = set()
    for module_name in MODULES:
        module = importlib.import_module(f"latindist.{module_name}")
        for name in module.__all__:
            assert getattr(latindist, name) is getattr(module, name), (module_name, name)
            exported.add(name)
    assert exported == set(PUBLIC)


def test_modmath_is_gone():
    assert importlib.util.find_spec("latindist.modmath") is None
