import importlib
import importlib.util
import sys
from pathlib import Path

import grpoagg

# by import_module: ``from grpoagg import decompose`` gives the function
MODULES = tuple(
    importlib.import_module(f"grpoagg.{name}")
    for name in ("aggregate", "decompose", "groups", "rollout_io", "sim", "verify")
)


def test_package_exports_each_module_list_once():
    names = grpoagg.__all__
    assert len(names) == len(set(names))
    assert names == [n for m in MODULES for n in m.__all__] + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(grpoagg, name) is getattr(module, name), name
    assert isinstance(grpoagg.__version__, str)
    # ``from .decompose import *`` rebinds the package's ``decompose`` to the function
    assert grpoagg.decompose is MODULES[1].decompose


def test_the_bench_tracer_resolves_the_names_it_wraps(monkeypatch):
    # a span whose name no longer resolves is reported absent and times
    # nothing; resolve each as ``install`` does, without wrapping it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under bench/
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = set()
    for name in tracing.SPANS:
        module_name, *attrs = name.split(".")
        try:
            owner = importlib.import_module(f"grpoagg.{module_name}")
            for attr in attrs:
                owner = getattr(owner, attr)
        except (ImportError, AttributeError):
            unresolved.add(name)
    assert unresolved <= {"aggregate.evaluate_arrays"}
