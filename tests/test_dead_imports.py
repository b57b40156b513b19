"""No module of the package imports a name at module level that it never uses.

A static check over the source, standing in for a linter.  ``__init__`` is
left out: its imports are re-exports, which ``test_api_surface`` covers.
"""

import ast
from pathlib import Path

import pytest

import cyclic_jacobi

PACKAGE = Path(cyclic_jacobi.__file__).parent
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# bindings that perfbench/tracing.py rebinds to meter them; the module itself no longer calls them
REBOUND = {("driver", "relate"), ("cli", "campaign_cells_for_ordering")}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported, so used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [
        name for name in _imported_names(tree)
        if name not in used and (path.stem, name) not in REBOUND
    ]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_rebound_names_are_imported_and_unused():
    # an allowance that no longer matches an unused import is stale
    for module, name in REBOUND:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in set(_imported_names(tree)) - _used_names(tree), (module, name)
