"""Module layering, read from the source: only kernel.py builds, multiplies
or reads a block, the kernel imports no module built on it, and numpy is
imported only where columns are batched."""
import ast
import importlib
from pathlib import Path

import pytest

import newton_strata

SRC = Path(__file__).resolve().parent.parent / "src" / "newton_strata"
# the names that build, multiply or read a block
BLOCK_NAMES = {"_dot", "_matmul_blocks", "_pattern_blocks", "_lead_val", "_slopes_block", "_raw_hash"}
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _tree(name):
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree):
    """Every module-level name a module defines, reads or imports, and every
    attribute it reads off the kernel module (a method of the same name on
    another object is another thing)."""
    yield from (node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[-1]
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "kernel":
            yield node.attr


def _imported_modules(tree):
    """The last dotted part of every module imported, including `from .
    import m` and `from newton_strata import m`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "newton_strata"):
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[-1]


def test_kernel_imports_nothing_built_on_it():
    assert "kernel.py" in MODULES
    assert not set(_imported_modules(_tree("kernel.py"))) & {"strata", "empirics", "cli"}


def test_only_the_batched_modules_import_numpy():
    # the exact layer (series, isocrystal, strata) works on Python ints
    assert [name for name in MODULES if "numpy" in _imported_modules(_tree(name))] == ["empirics.py", "kernel.py"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "kernel.py"])
def test_only_the_kernel_names_block_helpers(name):
    assert not set(_names(_tree(name))) & BLOCK_NAMES, name


def test_the_hash_slot_layout_is_written_once():
    # _raw_hash is called only by the block draw; a scalar draw is one of
    # its columns
    callers = []
    for fn in ast.walk(_tree("kernel.py")):
        if isinstance(fn, ast.FunctionDef):
            callers += [fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name) and node.func.id == "_raw_hash"]
    assert callers == ["_pattern_blocks"]


def _defined(tree):
    """The names a module binds at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_the_horizon_rule_is_written_once():
    # the scalar slope_sequence and the block kernel read entries through
    # the same horizons: one definition, in isocrystal.py, which the kernel
    # imports under the same module-level name (tests patch kernel._horizons)
    for name in MODULES:
        shared = {"_MONOMIALS", "_OTHERS", "_horizons"} & set(_defined(_tree(name)))
        assert shared == (set() if name != "isocrystal.py" else {"_MONOMIALS", "_OTHERS", "_horizons"}), name
    imports = [(node.module, alias.name, alias.asname) for node in _tree("kernel.py").body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert ("isocrystal", "_horizons", None) in imports


EXPORTING = ("series", "isocrystal", "affine_weyl", "strata", "empirics")


def test_the_package_api_is_the_submodule_lists():
    # each submodule's __all__ is the one list of its public names
    modules = [importlib.import_module(f"newton_strata.{name}") for name in EXPORTING]
    listed = [n for module in modules for n in module.__all__]
    assert newton_strata.__all__ == listed + ["__version__"]
    assert len(listed) == len(set(listed)), "a name sits in two submodule lists"
    for module in modules:
        for n in module.__all__:
            assert hasattr(module, n), f"{module.__name__}.__all__ lists {n}, which it does not define"
            assert getattr(newton_strata, n) is getattr(module, n), n
