"""The package's public names: exactly what the README, the demos, the CLI
and the benchmark reach, and every module's `__all__` re-exported."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latindist

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_star_import_binds_each_modules_own_objects():
    namespace = {}
    exec("from latindist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    for module_name in MODULES:
        module = importlib.import_module(f"latindist.{module_name}")
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (module_name, name)
    assert set(PUBLIC) | set(MODULES) <= set(dir(latindist))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="module 'latindist' has no attribute 'no_such_name'"):
        latindist.no_such_name
    assert not hasattr(latindist, "modmath") and "modmath" not in dir(latindist)


def test_a_bare_import_loads_each_module_on_first_use():
    # in a fresh interpreter: dir lists every name before any module loads, a module
    # name gives the module, and a public name loads only its own module and the ones it imports
    code = """if True:
        import sys, latindist
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("latindist."))
        assert loaded() == [], loaded()
        assert set(dir(latindist)) >= set(latindist.__all__), "dir"
        assert loaded() == [], loaded()
        assert latindist.search is sys.modules["latindist.search"], "search"
        assert loaded() == ["latindist.errors", "latindist.grid", "latindist.search"], loaded()
        from latindist import inner_distance
        assert inner_distance is sys.modules["latindist.metrics"].inner_distance
        assert latindist.__dict__["inner_distance"] is inner_distance, "cached"
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(README.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_public_api_lists_each_module_export():
    # one bullet per module, "- `module`: `name`, `name`, ... [prose]", in the README's
    # "Public API" section, naming exactly that module's __all__
    section = README.read_text().split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert f"`latindist` exports {len(PUBLIC)} names" in section
    listed = {}
    for bullet in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", section, re.M | re.S):
        module_name, body = bullet
        items = (re.fullmatch(r"`(\w+)`", item.strip()) for item in body.split(","))
        listed[module_name] = [m[1] for m in items if m]
    assert sorted(listed) == sorted(MODULES)
    for module_name, names in listed.items():
        module = importlib.import_module(f"latindist.{module_name}")
        assert sorted(names) == sorted(module.__all__), module_name
