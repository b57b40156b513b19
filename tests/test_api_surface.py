"""The public API: every exported name resolves, the package re-exports only exported names,
and the defaulted parameters are the ones listed here."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from types import FunctionType

import pytest

import cyclic_jacobi

# the submodules that declare their exports (``__main__`` would run the CLI)
EXPORTING = [
    info.name for info in pkgutil.iter_modules(cyclic_jacobi.__path__)
    if not info.name.startswith("_")
    and hasattr(importlib.import_module(f"cyclic_jacobi.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cyclic_jacobi.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(cyclic_jacobi.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"cyclic_jacobi.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert unexported == [], node.module


# Every defaulted parameter of an exported function or public method.  A new one is a knob that
# every caller may turn; add it here only with the caller that needs it.
KNOBS = {
    "driver.verification_campaign(modes)",   # cjacobi verify --bound
    "driver.verification_campaign(map_fn)",  # cjacobi verify --jobs
    "driver.random_symmetric(n)",            # the n = 3 and 5 digest runs
    "driver.random_symmetric_batch(n)",
    "driver.random_symmetric_batch(zero_pairs)",  # a12 = a34 = 0 inputs
    "driver.random_spd_factor(n)",
    "jjacobi.run_j_jacobi(tol)",             # cjacobi jsolve --tol
    "jjacobi.run_j_jacobi(max_cycles)",      # ConvergenceError and the zero-sweep path
    "jjacobi.solve_factored(tol)",
    "jjacobi.solve_factored(max_cycles)",
}


def _public_callables(module):
    for export in module.__all__:
        obj = getattr(module, export)
        if inspect.isfunction(obj):
            yield export, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(
                    member, (FunctionType, classmethod, staticmethod)
                ):
                    yield f"{export}.{attr}", getattr(member, "__func__", member)


def test_the_defaulted_parameters_are_the_listed_knobs():
    found = set()
    for name in EXPORTING:
        for qualname, fn in _public_callables(importlib.import_module(f"cyclic_jacobi.{name}")):
            found.update(
                f"{name}.{qualname}({p.name})"
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty
            )
    assert found == KNOBS
