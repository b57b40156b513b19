"""The names the benchmark's tracer wraps, and the campaign call it times, still exist.

``perfbench/tracing.py`` replaces module-level names of ``cyclic_jacobi`` by
name, and the verify-all workload times ``driver.campaign_cells_for_ordering``.
A refactor that renames either fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

from cyclic_jacobi import classification, cli, driver, jjacobi
from cyclic_jacobi.orderings import enumerate_orderings

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
