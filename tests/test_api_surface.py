"""The public API: every exported name resolves, and the package re-exports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
