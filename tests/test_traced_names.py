"""The benchmark's per-layer rows name liedeform functions that must stay public.

bench/tracer.py wraps only public callables, and names each span after the module
that defines the callable and its own qualified name.  A row whose function was
deleted, renamed or made private would read nothing, and the benchmark run would
fail with "metric ... was not produced".
"""
import importlib
import json
import pkgutil
from pathlib import Path

import liedeform

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MODULES = {info.name for info in pkgutil.iter_modules(liedeform.__path__)}


def traced_names():
    """(module, name) of every <module>.<name>.{calls,self_ms,raised} row on a liedeform module."""
    names = set()
    for row in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = row["name"].split(".")
        if len(parts) == 3 and parts[0] in MODULES and parts[2] in ("calls", "self_ms", "raised"):
            names.add((parts[0], parts[1]))
    return sorted(names)


def test_traced_functions_exist_and_are_public():
    names = traced_names()
    assert ("phase_space", "degeneracy") in names  # the filter reads the file's rows
    for module, name in names:
        obj = getattr(importlib.import_module(f"liedeform.{module}"), name, None)
        assert obj is not None, f"liedeform.{module}.{name} is traced but does not exist"
        assert not name.startswith("_") and callable(obj)
        assert (obj.__module__, obj.__qualname__) == (f"liedeform.{module}", name), \
            f"{module}.{name} is traced under another name"
