"""No module of the package imports a name at module level that it never uses, and no
module-level private name of the package goes unread.

A static check over the source, standing in for a linter.  ``__init__`` is
left out of the import check: its imports are re-exports, which
``test_api_surface`` covers.
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


def _private_definitions(tree):
    """The module-level private functions, classes and constants that ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_module_level_private_name_is_read():
    # read means loaded as a bare name, or imported by another module, whose own import
    # check above then asks that it be used; a leftover of a deletion is read nowhere
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = [(stem, name) for stem, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 50  # the walk finds the package's private names
    unread = [f"{stem}.{name}" for stem, name in defined if name not in read]
    assert unread == [], f"module-level private names that nothing reads: {unread}"
