"""The package root: one export table, bound into the namespace and read into ``__all__``."""

import importlib
import inspect
import subprocess
import sys

import kfusion
from kfusion import numerics


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
