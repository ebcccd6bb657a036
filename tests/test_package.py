import importlib

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
