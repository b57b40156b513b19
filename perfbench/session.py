"""One benchmark session: a fresh interpreter running one workload.

``run.py`` starts this script once per run, and a few more times with
``--setup-only`` to time set-up.  The session imports ``cyclic_jacobi`` from
the checkout's ``src/``, generates its inputs from ``--seed``, runs the
workload's full ``cjacobi`` commands once each and checks their output, then
repeats the workload's short operations in a closed loop with one client for
``--seconds`` and prints one JSON line.  A failed check marks its operation
failed; it never stops the session.

Why short operations, repeated: on a shared host the core this runs on can
switch, several times a second, between two speeds about 2x apart.  The time
of a multi-second command then depends on how much of it ran at which speed,
and over a 30 s run its spread is 20-30 %.  An operation of a few
milliseconds runs at one speed, so the fastest of its many repetitions is its
time at the host's full speed, which repeats to a few percent.  Every item
(an ordering, a problem) is repeated in passes over the item list and keeps
its fastest untraced time; the workload's time is the sum over its items.

    python3 perfbench/session.py --workload solve-stream --seed 7 --seconds 5 --trace 1
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

try:
    import numpy as np

    import cyclic_jacobi
    from cyclic_jacobi import classification, cli, driver, jjacobi
    from cyclic_jacobi.orderings import enumerate_orderings
except ImportError as exc:
    sys.exit(f"session: cannot import cyclic_jacobi from {SRC}: {exc}")
if Path(cyclic_jacobi.__file__).resolve().parent.parent != SRC:
    sys.exit(f"session: cyclic_jacobi was imported from {cyclic_jacobi.__file__}, not {SRC}")

import tracing  # noqa: E402  (perfbench/ is sys.path[0])

WORKLOADS = ("verify-all", "classify-census", "solve-stream")
HOST_REF_EVERY_S = 2.0

VERIFY_SAMPLES = 200
VERIFY_MODES = ("classified", "universal")
VERIFY_ROWS = 1440  # 720 orderings x two bound modes
VERIFY_HEADER = "ordering,label,gamma,tau,t0,worst_ratio,violations"
VERIFY_ITEMS = 96  # orderings of the 720 in the timed loop
# sha256 of `cjacobi classify --all --format json`, recorded when the
# benchmark was defined; identical across processes.
CENSUS_SHA256 = "dede1bd13359a123ffa406b4a1c2c5697b0a7831b18a88f4eec435e8a98761d6"
CATALOG_OK = "all chains replay and classify consistently"

STREAM_CYCLES = 10
STREAM_ITEMS = 128  # problems generated per session, repeated in passes
STREAM_CALLS = ("run_cycles", "solve_factored", "run_parallel_cycle")
# Output tolerances: final diagonal against eigvalsh, relative to ||A||_F;
# eigen-residual of H = L J L^T relative to ||H||_F; eigenvalues relative to
# max |lambda| (acceptance criterion 8); parallel against sequential sweep,
# relative to ||A||_F (criterion 6).  Observed worst cases are near 1e-14.
DIAG_RTOL = 1e-12
RESIDUAL_RTOL = 1e-10
EIGEN_RTOL = 1e-9
PARALLEL_RTOL = 1e-13


def host_ref_ms() -> float:
    """Time of a fixed 2,000-step rotation loop on a 4x4 array (no repo code)."""
    a = np.array([[4.0, 1.0, 2.0, 0.5], [1.0, 3.0, 0.2, 1.0],
                  [2.0, 0.2, 2.0, 0.3], [0.5, 1.0, 0.3, 1.0]])
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    start = time.perf_counter()
    for k in range(2000):
        i, j = pairs[k % 6]
        c, s = math.cos(0.1 * k), math.sin(0.1 * k)
        ri, rj = a[i, :].copy(), a[j, :].copy()
        a[i, :], a[j, :] = c * ri + s * rj, c * rj - s * ri
        ci, cj = a[:, i].copy(), a[:, j].copy()
        a[:, i], a[:, j] = c * ci + s * cj, c * cj - s * ci
    return (time.perf_counter() - start) * 1e3


def program_caches() -> list:
    """Every ``functools`` cache in ``cyclic_jacobi``, found before tracing wraps them."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "cyclic_jacobi" or name.startswith("cyclic_jacobi."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def go_cold(caches: list) -> None:
    """Forget everything the program cached, as a fresh ``cjacobi`` process would."""
    for cache in caches:
        cache.cache_clear()


class Session:
    """Operations, their checks and the counters of one session."""

    def __init__(self, tracer: tracing.Tracer, caught: list) -> None:
        self.tracer = tracer
        self.caught = caught
        self.commands: list[dict] = []
        self.attempted = 0
        self.failed: set[str] = set()
        self.problems: list[str] = []
        self.loop_warnings = 0
        self.host_refs: list[float] = []
        self.last_ref = -math.inf

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed.add(op)
            self.problems += [f"{op}: {p}" for p in problems[:5]]

    def host_ref_due(self) -> None:
        if time.monotonic() - self.last_ref >= HOST_REF_EVERY_S:
            self.host_refs.append(host_ref_ms())
            self.last_ref = time.monotonic()

    def command(self, argv: list[str], op: str, traced: bool) -> tuple[int, str]:
        """Run one ``cjacobi`` command in this process and time it."""
        self.tracer.begin(op)
        self.tracer.active = traced
        buf = io.StringIO()
        seen = len(self.caught)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed session
            rc = None
            self.fail(op, [f"{type(exc).__name__}: {exc}"])
        finally:
            self.tracer.active = False
        wall = time.perf_counter() - start
        out = buf.getvalue()
        self.tracer.counts["cli.report_bytes"] += len(out.encode())
        self.attempted += 1
        self.commands.append({"op": op, "wall_s": wall, "rc": rc,
                              "runtime_warnings": len(self.caught) - seen})
        return rc, out

    def loop(self, items: list, run_op, check, seconds: float, trace: bool, before_pass=None) -> dict:
        """Passes over ``items`` until ``seconds`` pass; odd passes are traced in a traced run.

        ``run_op(item)`` returns ``(result, times)`` where ``times`` maps a
        call name to its seconds; ``check(item, result)`` returns problems.
        Keeps each item's fastest untraced and traced time per call name.
        """
        best: dict[str, list[float]] = {}
        best_traced: dict[str, list[float]] = {}
        reps = [0] * len(items)
        traced_ops = 0
        self.tracer.begin("loop")
        cpus = sorted(os.sched_getaffinity(0))
        deadline = time.monotonic() + seconds
        passes = 0
        while passes < (2 if trace else 1) or time.monotonic() < deadline:
            traced = trace and passes % 2 == 1
            # Pairs of passes (one untraced, one traced) take the CPUs in turn:
            # on a shared host one core can stay slow for a whole run while
            # another does not.
            os.sched_setaffinity(0, {cpus[(passes // 2) % len(cpus)]})
            if before_pass is not None:
                before_pass()
            for i, item in enumerate(items):
                op = f"pass {passes} item {i}"
                self.tracer.active = traced
                seen = len(self.caught)
                try:
                    result, times = run_op(item)
                except Exception as exc:
                    self.attempted += 1
                    self.fail(op, [f"{type(exc).__name__}: {exc}"])
                    continue
                finally:
                    self.tracer.active = False
                self.loop_warnings += len(self.caught) - seen
                self.attempted += 1
                seen = len(self.caught)
                try:
                    problems = check(item, result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                del self.caught[seen:]  # warnings raised by the checks are not the program's
                if problems:
                    self.fail(op, problems)
                    continue
                into = best_traced if traced else best
                for name, seconds_taken in times.items():
                    row = into.setdefault(name, [math.inf] * len(items))
                    row[i] = min(row[i], seconds_taken)
                reps[i] += not traced
                traced_ops += traced
                self.host_ref_due()
            passes += 1
        os.sched_setaffinity(0, cpus)
        return {"best": best, "best_traced": best_traced, "reps": reps, "passes": passes,
                "traced_ops": traced_ops}


def _check_verify(rc: int, out: str) -> tuple[list[str], int]:
    """Problems with a verify CSV, and the matrix-sweeps it stands for."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = out.splitlines()
    if len(lines) < 2 or lines[1] != VERIFY_HEADER:
        return problems + ["missing CSV header"], 0
    rows = list(csv.reader(lines[2:]))
    if len(rows) != VERIFY_ROWS:
        problems.append(f"{len(rows)} rows, expected {VERIFY_ROWS}")
    cycles: dict[str, int] = {}
    violations = 0
    for row in rows:
        # the Parallel label holds an unquoted comma, so read the numbers from the right
        ordering, (tau, t0, bad) = row[0], (row[-4], row[-3], row[-1])
        violations += int(bad)
        # campaign_cells_for_ordering runs t0 + tau + 4 cycles for the longest bound
        cycles[ordering] = max(cycles.get(ordering, 0), int(t0) + int(tau) + 4)
    if violations:
        problems.append(f"{violations} bound violations")
    return problems, VERIFY_SAMPLES * sum(cycles.values())


def verify_inputs(seed: int) -> tuple:
    """The generator ``cjacobi verify --seed`` draws its batch from, and the orderings the loop times.

    The orderings are evenly spaced over the 720 and the same for every seed:
    their cold classifications differ in cost, and a seeded draw of them
    would move the result from seed to seed more than the host does.
    """
    orderings = list(enumerate_orderings(4))
    items = [orderings[k * len(orderings) // VERIFY_ITEMS] for k in range(VERIFY_ITEMS)]
    return driver.default_rng(seed), items


def verify_workload(s: Session, seed: int, inputs: tuple, seconds: float, trace: bool,
                    caches: list) -> dict:
    """``cjacobi verify`` at --jobs 2 and --jobs 1, then one ordering's campaign at a time."""
    rng, items = inputs
    mats = [driver.random_symmetric_batch(rng, VERIFY_SAMPLES, n=4)]  # the commands' batch
    t_first_op = time.monotonic()

    argv = ["verify", "--seed", str(seed), "--samples", str(VERIFY_SAMPLES),
            "--orderings", "all", "--bound", "both", "--jobs"]
    shas, sweeps = {}, 0
    for jobs in (2, 1):  # each cold, as a fresh process
        go_cold(caches)
        op = f"verify --jobs {jobs}"
        rc, out = s.command(argv + [str(jobs)], op, trace)
        problems, sweeps = _check_verify(rc, out)
        s.fail(op, problems)
        shas[jobs] = hashlib.sha256(out.encode()).hexdigest()
    if shas[2] != shas[1]:
        s.fail("verify --jobs 2", ["CSV differs from --jobs 1"])

    tracer = s.tracer

    def run_op(ordering):
        start = time.perf_counter()
        if tracer.active:
            result = tracer.call("driver.campaign_cells", driver.campaign_cells_for_ordering,
                                 ordering, mats[0], VERIFY_MODES)
        else:
            result = driver.campaign_cells_for_ordering(ordering, mats[0], VERIFY_MODES)
        return result, {"op": time.perf_counter() - start}

    sweeps_of: dict = {}  # matrix-sweeps of one ordering's campaign

    def check(ordering, result):
        cells, _, _ = result
        problems = [] if len(cells) == len(VERIFY_MODES) else [f"{len(cells)} cells"]
        bad = sum(c.violations for c in cells)
        # campaign_cells_for_ordering runs t0 + tau + 4 cycles for the longest bound
        sweeps_of[ordering] = VERIFY_SAMPLES * max(c.t0 + c.tau + 4 for c in cells)
        return problems + ([f"{bad} bound violations"] if bad else [])

    def new_pass():
        # Every pass starts cold with the next batch from the seed, as a new
        # command would, so no cache can serve a repetition.
        go_cold(caches)
        mats[0] = driver.random_symmetric_batch(rng, VERIFY_SAMPLES, n=4)

    for ordering in items:  # one untimed pass
        driver.campaign_cells_for_ordering(ordering, mats[0], VERIFY_MODES)
    done = s.loop(items, run_op, check, seconds, trace, before_pass=new_pass)
    work = [sweeps_of.get(o, 0) for o in items]
    return {"t_first_op": t_first_op, "work": work, "command_sweeps": sweeps, **done}


def census_workload(s: Session, items: list, seconds: float, trace: bool, caches: list) -> dict:
    """``cjacobi classify --all`` and ``--catalog``, then cold passes of ``classify`` over the 720."""
    t_first_op = time.monotonic()
    go_cold(caches)
    rc, out = s.command(["classify", "--all", "--format", "json"], "classify --all", trace)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if hashlib.sha256(out.encode()).hexdigest() != CENSUS_SHA256:
        problems.append("census JSON differs from the recorded sha256")
    s.fail("classify --all", problems)
    rc, out = s.command(["classify", "--catalog"], "classify --catalog", trace)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if out.splitlines()[-1:] != [CATALOG_OK]:
        problems.append("catalog replay did not report success")
    s.fail("classify --catalog", problems)

    reference = {o: classification.classify(o) for o in items}
    classify = classification.classify  # wrapped in a traced run

    def run_op(ordering):
        start = time.perf_counter()
        record = classify(ordering)
        return record, {"op": time.perf_counter() - start}

    def check(ordering, record):
        return [] if record == reference[ordering] else ["record differs from the first classification"]

    done = s.loop(items, run_op, check, seconds, trace, before_pass=lambda: go_cold(caches))
    return {"t_first_op": t_first_op, "work": [1] * len(items), **done}


def _stream_inputs(seed: int) -> list[tuple]:
    rng = driver.default_rng(seed)
    orderings = list(enumerate_orderings(4))
    variants = classification.anchor_variants(classification.PAR_ANCHOR) + (
        classification.anchor_variants(classification.PAR_ANCHOR_MIRROR)
    )
    problems = []
    for _ in range(STREAM_ITEMS):
        a = driver.random_symmetric(rng)
        ordering = orderings[int(rng.integers(len(orderings)))]
        factor = driver.random_spd_factor(rng)
        variant = variants[int(rng.integers(len(variants)))]
        problems.append((a, ordering, factor, variant))
    return problems


def _check_problem(problem, outputs) -> list[str]:
    a, _, factor, variant = problem
    (final, report), (eigenvalues, eigenvectors, _), (par, _) = outputs
    signs = jjacobi.STANDARD_SIGNS
    problems = []
    try:
        driver.verify_step_identities(report)
        driver.verify_cycle_monotonicity(report)
    except AssertionError as exc:
        problems.append(f"run_cycles report: {exc}")
    dense = a.to_dense()
    scale = float(np.linalg.norm(dense))
    gap = np.max(np.abs(np.sort(final.diagonal()) - np.linalg.eigvalsh(dense)))
    if gap > DIAG_RTOL * scale:
        problems.append(f"run_cycles diagonal off eigvalsh by {gap:.3e}")
    h = factor @ np.diag(np.array(signs, dtype=float)) @ factor.T
    h_norm = float(np.linalg.norm(h))
    residual = max(
        float(np.linalg.norm(h @ eigenvectors[:, k] - eigenvalues[k] * eigenvectors[:, k]))
        for k in range(len(signs))
    )
    if residual > RESIDUAL_RTOL * h_norm:
        problems.append(f"solve_factored residual {residual:.3e} > {RESIDUAL_RTOL:g} ||H||")
    oracle = np.linalg.eigvalsh(h)
    if np.max(np.abs(np.sort(eigenvalues) - oracle)) > EIGEN_RTOL * np.max(np.abs(oracle)):
        problems.append("solve_factored eigenvalues off eigvalsh")
    seq, _ = driver.run_cycles(a, variant, 1)
    if np.linalg.norm(par.to_dense() - seq.to_dense()) > PARALLEL_RTOL * scale:
        problems.append("run_parallel_cycle disagrees with one run_cycles sweep")
    return problems


def _fingerprint(outputs) -> tuple:
    (final, _), (eigenvalues, eigenvectors, _), (par, _) = outputs
    return (final.to_dense().tobytes(), eigenvalues.tobytes(), eigenvectors.tobytes(),
            par.to_dense().tobytes())


def _count_problem(counts, report, j_report) -> None:
    counts["run_cycles.steps"] += len(report.steps)
    counts["run_cycles.early_stops"] += report.cycles_executed < report.cycles_requested
    counts["run_cycles.identity_steps"] += sum(st.angles[0] == 0.0 for st in report.steps)
    counts["run_j_jacobi.cycles"] += j_report.cycles_executed
    counts["run_j_jacobi.steps"] += len(j_report.steps)
    counts["run_j_jacobi.hyperbolic_steps"] += sum(st.kind == "hyperbolic" for st in j_report.steps)
    counts["run_j_jacobi.max_tanh"] = max(
        [counts["run_j_jacobi.max_tanh"]] + [st.tanh for st in j_report.steps]
    )


def stream_workload(s: Session, inputs: list[tuple], seconds: float, trace: bool) -> dict:
    """Single 4x4 problems: ``run_cycles``, ``solve_factored`` and ``run_parallel_cycle``."""
    tracer = s.tracer
    signs = jjacobi.STANDARD_SIGNS
    t_first_op = time.monotonic()
    calls = (
        ("run_cycles", "driver.run_cycles", driver.run_cycles, lambda p: (p[0], p[1], STREAM_CYCLES)),
        ("solve_factored", "jjacobi.solve_factored", jjacobi.solve_factored, lambda p: (p[2], signs, p[1])),
        ("run_parallel_cycle", "driver.run_parallel_cycle", driver.run_parallel_cycle, lambda p: (p[0], p[3])),
    )

    def run_op(problem):
        outputs, times = [], {}
        root = tracer.open("bench.problem") if tracer.active else None
        try:
            for key, span, fn, args in calls:
                start = time.perf_counter()
                outputs.append(tracer.call(span, fn, *args(problem)) if tracer.active else fn(*args(problem)))
                times[key] = time.perf_counter() - start
        finally:
            if root is not None:
                tracer.close(root)
        times["op"] = sum(times.values())
        if root is not None:
            _count_problem(tracer.counts, outputs[0][1], outputs[1][2].report)
        return outputs, times

    # One untimed pass checks every problem in full; the timed passes check
    # that each repetition reproduces those outputs bit for bit.
    reference = {}
    for i, problem in enumerate(inputs):
        s.attempted += 1
        try:
            outputs, _ = run_op(problem)
            s.fail(f"checked item {i}", _check_problem(problem, outputs))
            reference[id(problem)] = _fingerprint(outputs)
        except Exception as exc:
            s.fail(f"checked item {i}", [f"{type(exc).__name__}: {exc}"])
    del s.caught[:]

    def check(problem, outputs):
        same = _fingerprint(outputs) == reference.get(id(problem))
        return [] if same else ["outputs differ from the checked repetition"]

    done = s.loop(inputs, run_op, check, seconds, trace)
    return {"t_first_op": t_first_op, "work": [1] * len(inputs), **done}


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(workload: str, done: dict) -> dict:
    """Workload time from each item's fastest untraced repetition."""
    best = done["best"].get("op", [])
    timed = [(t, w) for t, w in zip(best, done["work"]) if math.isfinite(t)]
    if not timed:
        return {}
    times = [t for t, _ in timed]
    out = {
        "work_per_s": sum(w for _, w in timed) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": _quantile(times, 90) * 1e3,
        "items": len(done["work"]), "items_timed": len(timed),
        "reps_min": min(done["reps"]), "passes": done["passes"],
    }
    if workload == "solve-stream":
        for call, label in zip(STREAM_CALLS, ("solve", "jsolve", "pcycle")):
            call_best = [t * 1e3 for t in done["best"].get(call, []) if math.isfinite(t)]
            out[f"{label}_p50_ms"] = statistics.median(call_best)
            out[f"{label}_p90_ms"] = _quantile(call_best, 90)
    traced = done["best_traced"].get("op")
    if traced:
        pairs = [(u, t) for u, t in zip(best, traced) if math.isfinite(u) and math.isfinite(t)]
        if pairs:
            base = sum(u for u, _ in pairs)
            out["trace_overhead_frac"] = (sum(t for _, t in pairs) - base) / base
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first operation would start")
    args = parser.parse_args()

    if args.workload == "verify-all":
        inputs = verify_inputs(args.seed)
    elif args.workload == "classify-census":
        inputs = list(enumerate_orderings(4))  # the census has no seeded input
    else:
        inputs = _stream_inputs(args.seed)
    if args.setup_only:
        sys.stdout.write(json.dumps({"t_first_op": time.monotonic()}) + "\n")
        return 0

    caches = program_caches()
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, cli, driver, classification, jjacobi)
    trace = bool(args.trace)
    with warnings.catch_warnings(record=True) as caught:
        # every RuntimeWarning is recorded and counted, not only the first per line
        warnings.simplefilter("always", RuntimeWarning)
        s = Session(tracer, caught)
        if args.workload == "verify-all":
            done = verify_workload(s, args.seed, inputs, args.seconds, trace, caches)
        elif args.workload == "classify-census":
            done = census_workload(s, inputs, args.seconds, trace, caches)
        else:
            done = stream_workload(s, inputs, args.seconds, trace)
    s.host_refs.append(host_ref_ms())
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "t_first_op": done["t_first_op"],
        "summary": summarize(args.workload, done),
        "attempted": s.attempted,
        "failed": len(s.failed),
        "problems": s.problems[:50],
        "commands": s.commands,
        "loop_warnings": s.loop_warnings,
        "loop_ops": s.attempted - len(s.commands),
        "host_ref_ms": s.host_refs,
        "rss_kb": own + workers,
        "best": done["best"],
        "reps": done["reps"],
        "traced_ops": done["traced_ops"],
        "layers": {op: tracer.layers(op) for op in tracer.counts_by_op},
        "counts": {op: dict(c) for op, c in tracer.counts_by_op.items()},
        "spans": tracer.spans,
    }
    if args.workload == "verify-all":
        result["command_sweeps"] = done["command_sweeps"]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
