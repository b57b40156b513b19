"""The public API: every exported name resolves, the package re-exports only exported names,
the defaulted parameters are the ones listed here, and program code calls every exported
callable."""

import ast
import importlib
import inspect
import pkgutil
import re
from functools import cached_property
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
    "driver.random_symmetric_batch(n)",      # perfbench/session.py passes n=4
    # the n = 3 and 5 digest factors; without it the tests would copy its redraw loop
    "driver.random_spd_factor(n)",
    "jjacobi.run_j_jacobi(tol)",             # cjacobi jsolve --tol
    "jjacobi.solve_factored(tol)",
}


def _public_callables(module):
    for export in module.__all__:
        obj = getattr(module, export)
        if inspect.isfunction(obj):
            yield export, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (FunctionType, classmethod, staticmethod)):
                    yield f"{export}.{attr}", getattr(member, "__func__", member)
                elif isinstance(member, property):
                    yield f"{export}.{attr}", member.fget
                elif isinstance(member, cached_property):
                    yield f"{export}.{attr}", member.func


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


ROOT = Path(__file__).resolve().parents[1]

# Exported callables that no program code calls, each with the reason it stays.
UNCALLED = {
    "orderings.parse_certificate": "checks certificate text that comes from outside the program",
    # the pinned batch digest and the scalar-agreement tests read it; built only when read
    "driver.BatchSweep.finals": "the only view of the batch kernel's final matrices",
}


class _References(ast.NodeVisitor):
    """The identifiers a tree reads, as names or attributes, outside a definition of the same
    name (so recursion is no caller)."""

    def __init__(self):
        self.names = set()
        self._inside = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def _program_sources():
    """The package, the demos, the benchmark and README's python blocks: not the tests."""
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path.read_text(encoding="utf-8")
    yield from re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_every_exported_callable_has_a_program_caller():
    """Each function in an ``__all__``, and each public method or property of an exported class,
    is referenced by name in program code.  Names are matched without their owner, so another
    owner's name (``np.diag`` for a ``diag`` method) can hide a helper no program code calls."""
    refs = _References()
    for source in _program_sources():
        refs.visit(ast.parse(source))
    uncalled = {
        f"{name}.{qualname}"
        for name in EXPORTING
        for qualname, _ in _public_callables(importlib.import_module(f"cyclic_jacobi.{name}"))
        if qualname.rpartition(".")[2] not in refs.names
    }
    assert uncalled == set(UNCALLED)
