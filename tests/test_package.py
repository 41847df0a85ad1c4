"""The package root: one export table, bound into the namespace and read into ``__all__``.

Also: no module of the package or of its tests imports a name it never reads.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import kfusion
from kfusion import numerics

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_sorted_without_duplicates_and_equals_the_table():
    table = [name for names in kfusion._EXPORTS.values() for name in names]
    assert kfusion.__all__ == sorted(kfusion.__all__)
    assert len(set(kfusion.__all__)) == len(kfusion.__all__)
    assert sorted(table) == kfusion.__all__


def test_each_export_is_the_object_defined_in_its_table_module():
    for key, names in kfusion._EXPORTS.items():
        module = importlib.import_module(f"kfusion.{key}")
        for name in names:
            obj = getattr(kfusion, name)
            assert obj is getattr(module, name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == f"kfusion.{key}", name
    assert kfusion.DEFAULT_TOL is numerics.DEFAULT_TOL


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from kfusion import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == kfusion.__all__
    assert {"resolution_b", "resolution_c", "resolution_from_x"} <= set(namespace)


def test_importing_the_library_loads_every_layer_and_not_click():
    code = (
        "import sys, kfusion\n"
        "print(sorted(m for m in sys.modules if m.startswith('kfusion.')))\n"
        "print('click' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    layers = sorted(f"kfusion.{key}" for key in kfusion._EXPORTS)
    assert proc.stdout.splitlines() == [repr(layers), "False"]


def _unread_imports(path: Path) -> list:
    """``file:line name`` for each name the module imports and never reads.

    ``from __future__`` imports and import lines marked ``# noqa`` are exempt.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                unread.append(f"{path.relative_to(ROOT)}:{alias.lineno} {name}")
    return unread


def test_every_module_reads_each_name_it_imports():
    modules = sorted([*(ROOT / "src" / "kfusion").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 20
    assert [entry for path in modules for entry in _unread_imports(path)] == []
