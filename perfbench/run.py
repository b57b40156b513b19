"""Benchmark for cyclic_jacobi: three closed-loop workloads with one client.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 30 --trace 0

Each run starts one session (``session.py``, a fresh interpreter).  The session
runs the workload's full ``cjacobi`` commands once each, cold, and checks
their output; then, for ``--seconds``, it repeats the workload's short
operations in passes over a list of items and keeps each item's fastest time
(``session.py`` says why).  Workloads (why each was chosen is in
BENCHMARK.json):

* ``verify-all``: ``cjacobi verify --samples 200 --orderings all --bound both``
  at ``--jobs 2`` and ``--jobs 1`` (the two CSVs must be byte-identical, with
  1440 rows and no violations); then ``campaign_cells_for_ordering`` for 96
  orderings evenly spaced over the 720, every pass cold and on the next
  200-matrix batch drawn from the seed.
* ``classify-census``: ``cjacobi classify --all --format json`` (checked
  against a recorded sha256) and ``cjacobi classify --catalog``; then passes
  of ``classify`` over all 720 orderings, every pass starting with the
  program's caches cleared, as in a fresh process.
* ``solve-stream``: 128 seeded 4x4 problems, each through ``run_cycles``
  (10 cycles, an ordering drawn from all 720), ``solve_factored`` and
  ``run_parallel_cycle`` (one of the 16 parallel anchor variants).

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s``: median over seven set-ups (six stopped where the first
  operation would start, and the measured session's own) of the time from
  starting the interpreter to its first operation: import plus inputs.
* ``peak_rss_mb``: peak RSS of the session plus that of its largest worker.
* ``work_per_s``: work over the sum of the items' fastest times: matrix-sweeps
  (samples x cycles) on ``verify-all``, orderings classified on
  ``classify-census``, problems on ``solve-stream``.
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile over items of an
  item's fastest time: one ordering's cold classification and campaign, one
  ordering's cold classification, or the three calls of one problem.

The traced run (``--trace 1``) traces the commands and every other pass of
the loop.  Per-layer values are per traced command on ``verify-all`` (the
``--jobs 1`` command; ``cli.pool.*`` from the ``--jobs 2`` one) and on
``classify-census`` (the census command; ``verify_catalog`` from the catalog
command), and per traced problem on ``solve-stream``.  ``trace.overhead_frac``
is the traced over the untraced sum of fastest times, minus one.  Both runs
print a summary with the per-workload names (``sweeps_per_s``,
``classify_per_s``, ``solve_p50_ms``, ...) and the environment, and write
everything, spans included, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-all", "classify-census", "solve-stream")
SETUP_PROBES = 6      # extra set-ups, stopped before the first operation, for setup_s
RUN_LIMIT_S = 170     # the session is stopped before the run reaches this
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SessionError(RuntimeError):
    """A session did not print its result line."""


def environment(args) -> dict:
    import numpy as np

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_session(args, limit: float, setup_only: bool = False) -> dict:
    """Start one session, wait for it, and return its result with ``setup_s``."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    cmd += ["--setup-only"] if setup_only else []
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit - spawned, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError(f"{args.workload} session timed out")
    finally:
        try:  # pool workers left behind by a crashed session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"{args.workload} session exited {proc.returncode}: {err[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_first_op"] - spawned
    return result


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(workload: str, session: dict) -> dict:
    """Per-layer values: per traced command, or per traced problem on solve-stream."""
    if workload == "verify-all":
        main_op, pool_op, catalog_op = "verify --jobs 1", "verify --jobs 2", None
    elif workload == "classify-census":
        main_op, pool_op, catalog_op = "classify --all", None, "classify --catalog"
    else:
        main_op, pool_op, catalog_op = "loop", None, None
    n = session["traced_ops"] if workload == "solve-stream" else 1
    layers, counts = session["layers"], session["counts"]

    def layer(name: str, key: str, op: str | None = main_op) -> float:
        return layers.get(op, {}).get(name, {}).get(key, 0.0)

    def count(key: str, op: str | None = main_op) -> float:
        return counts.get(op, {}).get(key, 0)

    def per_op(value: float) -> float:
        return ratio(value, n)

    def p(name: str, q: int) -> float:
        return percentile([(end - start) * 1e3 for name_, start, end, _, op in session["spans"]
                           if name_ == name and op == "loop"], q)

    pool_s = sum(layer(f"cli.pool.{k}", "busy_s", pool_op) for k in ("start", "wait", "shutdown"))
    steps = count("batch_sweep.matrix_steps")
    rc_steps = count("run_cycles.steps")
    j_steps = count("run_j_jacobi.steps")
    loop_ops = session["loop_ops"]
    return {
        "driver.batch_sweep.calls": per_op(layer("driver.batch_sweep", "calls")),
        "driver.batch_sweep.busy_s": per_op(layer("driver.batch_sweep", "busy_s")),
        "driver.batch_sweep.matrix_steps": per_op(steps),
        "driver.batch_sweep.ns_per_matrix_step": ratio(layer("driver.batch_sweep", "busy_s") * 1e9, steps),
        "driver.batch_sweep.bytes_computed": per_op(count("batch_sweep.bytes_computed")),
        "driver.campaign_cells.self_s": per_op(layer("driver.campaign_cells", "self_s")),
        "classification.classify.calls": per_op(layer("classification.classify", "calls")),
        "classification.classify.busy_s": per_op(layer("classification.classify", "busy_s")),
        "classification.classify.us_per_call": ratio(
            layer("classification.classify", "busy_s") * 1e6, layer("classification.classify", "calls")
        ),
        "classification.verify_catalog.busy_s": layer("classification.verify_catalog", "busy_s", catalog_op),
        "orderings.relate.calls": per_op(layer("orderings.relate", "calls")),
        "orderings.relate.busy_s": per_op(layer("orderings.relate", "busy_s")),
        "driver.run_parallel_cycle.self_s": per_op(layer("driver.run_parallel_cycle", "self_s")),
        "driver.run_parallel_cycle.p50_ms": p("driver.run_parallel_cycle", 50),
        "driver.run_parallel_cycle.p99_ms": p("driver.run_parallel_cycle", 99),
        "driver.run_cycles.busy_s": per_op(layer("driver.run_cycles", "busy_s")),
        "driver.run_cycles.steps": per_op(rc_steps),
        "driver.run_cycles.ns_per_step": ratio(layer("driver.run_cycles", "busy_s") * 1e9, rc_steps),
        "driver.run_cycles.early_stops": per_op(count("run_cycles.early_stops")),
        "driver.run_cycles.identity_steps": per_op(count("run_cycles.identity_steps")),
        "driver.run_cycles.p50_ms": p("driver.run_cycles", 50),
        "driver.run_cycles.p99_ms": p("driver.run_cycles", 99),
        "jjacobi.run_j_jacobi.busy_s": per_op(layer("jjacobi.run_j_jacobi", "busy_s")),
        "jjacobi.run_j_jacobi.cycles": per_op(count("run_j_jacobi.cycles")),
        "jjacobi.run_j_jacobi.steps": per_op(j_steps),
        "jjacobi.run_j_jacobi.hyperbolic_steps": per_op(count("run_j_jacobi.hyperbolic_steps")),
        "jjacobi.run_j_jacobi.ns_per_step": ratio(layer("jjacobi.run_j_jacobi", "busy_s") * 1e9, j_steps),
        "jjacobi.run_j_jacobi.max_tanh": count("run_j_jacobi.max_tanh"),
        "jjacobi.solve_factored.self_s": per_op(layer("jjacobi.solve_factored", "self_s")),
        "jjacobi.solve_factored.p50_ms": p("jjacobi.solve_factored", 50),
        "jjacobi.solve_factored.p99_ms": p("jjacobi.solve_factored", 99),
        "cli.self_s": per_op(layer("cli.main", "self_s")),
        "cli.report_bytes": per_op(count("cli.report_bytes")),
        "cli.pool.start_s": layer("cli.pool.start", "busy_s", pool_op),
        "cli.pool.tasks": count("pool.tasks", pool_op),
        "cli.pool.task_bytes_computed": ratio(count("pool.task_bytes", pool_op), count("pool.tasks", pool_op)),
        "cli.pool.wait_s": layer("cli.pool.wait", "busy_s", pool_op),
        "cli.pool.shutdown_s": layer("cli.pool.shutdown", "busy_s", pool_op),
        "cli.pool.serial_s": layer("cli.main", "busy_s", pool_op) - pool_s if pool_op else 0.0,
        "core.runtime_warnings": ratio(session["loop_warnings"], loop_ops),
        "trace.overhead_frac": session["summary"].get("trace_overhead_frac", 0.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="cyclic_jacobi benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    limit = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "cyclic_jacobi" / "__init__.py").is_file():
        print(f"run.py: no cyclic_jacobi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args)

    try:
        setups = [run_session(args, limit, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        session = run_session(args, limit)
    except SessionError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(session["setup_s"])
    summary = session["summary"]
    if not summary:
        print("run.py: no operation of the timed loop succeeded:\n" + "\n".join(session["problems"]),
              file=sys.stderr)
        return 1
    attempted, failed = session["attempted"], session["failed"]
    refs = session["host_ref_ms"]
    commands = {c["op"]: c["wall_s"] for c in session["commands"]}
    work_name = {"verify-all": "sweeps_per_s", "classify-census": "classify_per_s",
                 "solve-stream": "problems_per_s"}[args.workload]
    summary = {work_name: summary["work_per_s"], **summary, "command_s": commands,
               "failed_frac": ratio(failed, attempted), "attempted": attempted,
               "loop_runtime_warnings": session["loop_warnings"],
               "command_runtime_warnings": sum(c["runtime_warnings"] for c in session["commands"]),
               "host_ref_ms": statistics.median(refs)}
    report = {"env": env, "summary": summary, "host_ref_ms": refs, "setups_s": setups,
              "problems": session["problems"], "best_s": session["best"], "reps": session["reps"]}
    if args.trace:
        values = per_layer(args.workload, session)
        values["host.ref_ms"] = statistics.median(refs)
        wanted = spec["per_layer"]
        report.update(per_layer=values, layers=session["layers"], counts=session["counts"],
                      spans=session["spans"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": session["rss_kb"] / 1024.0,
            "work_per_s": summary["work_per_s"],
            "op_p50_ms": summary["op_p50_ms"],
            "op_p90_ms": summary["op_p90_ms"],
        }
        wanted = spec["end_to_end"]
        report.update(end_to_end=values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    shown = {k: round(v, 6) if isinstance(v, float) else v for k, v in summary.items()}
    print(f"{args.workload} seed={args.seed} {json.dumps(shown)}")
    print(f"environment: {json.dumps(env)}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
