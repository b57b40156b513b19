"""The names the benchmark's tracer wraps, and the names its session calls, still exist.

``perfbench/tracing.py`` replaces module-level names of ``cyclic_jacobi`` by
name, and ``perfbench/session.py`` calls ``driver``, ``jjacobi``,
``classification`` and ``cli`` attributes in its workloads; each direct
``module.attr(...)`` call there must also bind to the callee's signature
(its positional count and keyword names).  A refactor that renames or moves
one fails here rather than in a benchmark run.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from cyclic_jacobi import classification, cli, driver, jjacobi
from cyclic_jacobi.orderings import enumerate_orderings

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = (cli, driver, classification, jjacobi)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_meters_one_ordering_campaign(monkeypatch):
    tracing = load_tracing()
    for module in MODULES:  # install() rebinds names; monkeypatch restores them all
        for name, value in list(vars(module).items()):
            if not name.startswith("__"):
                monkeypatch.setattr(module, name, value)
    tracer = tracing.Tracer()
    tracing.install(tracer, *MODULES)
    tracer.active = True
    ordering = next(iter(enumerate_orderings(4)))
    mats = driver.random_symmetric_batch(driver.default_rng(3), 5)
    cells, identity, monotonicity = driver.campaign_cells_for_ordering(
        ordering, mats, ("classified", "universal")
    )
    assert [c.mode for c in cells] == ["classified", "universal"]
    assert all(c.violations == 0 and c.t0 + c.tau + 4 <= 8 for c in cells)
    assert identity <= driver.IDENTITY_RTOL
    assert monotonicity <= driver.MONOTONICITY_RTOL
    layers = tracer.layers(tracer.op)
    assert layers["driver.batch_sweep"]["calls"] == 1
    assert layers["classification.classify"]["calls"] >= 1
    assert tracer.counts["batch_sweep.matrix_steps"] == 5 * 8 * 6


def test_session_references_existing_names():
    tree = ast.parse((PERFBENCH / "session.py").read_text(encoding="utf-8"))
    modules = {m.__name__.rpartition(".")[2]: m for m in MODULES}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {module for module, _ in used} == set(modules)
    missing = sorted(f"{module}.{attr}" for module, attr in used if not hasattr(modules[module], attr))
    assert missing == []
    # every direct call binds to its callee's signature, so a renamed keyword
    # or a dropped parameter fails here too
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules
    ]
    assert calls
    unbound = []
    for node in calls:
        name = f"{node.func.value.id}.{node.func.attr}"
        assert not any(isinstance(a, ast.Starred) for a in node.args), name
        assert all(k.arg is not None for k in node.keywords), name
        fn = getattr(modules[node.func.value.id], node.func.attr)
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {name}: {exc}")
    assert unbound == []
