"""Command-line front end: classify, solve, jsolve, verify.

Exit codes: 0 all checks passed, 1 a convergence bound was violated,
2 input or configuration error, 3 numerical breakdown or non-convergence,
or (solve, verify) a failed S^2 decrement-identity or cycle-growth check.
Randomized commands require an explicit --seed and reproduce byte-identical
reports for identical (seed, config).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor  # perfbench/tracing.py wraps cli's binding
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import _dot, _norm, _parse_square, format_matrix, read_matrix_file
from .orderings import PivotOrdering, enumerate_orderings, format_certificate, parse_ordering
from .classification import (
    _label_parts,
    c0_orderings,
    catalog,
    classify,
    parallel_orderings,
    serial_perm_orderings,
    verify_catalog,
)
from .driver import (
    CampaignCell,
    _report_checks,
    _s2_checks,
    campaign_cells_for_ordering,  # noqa: F401  unused, but perfbench/tracing.py wraps it by name
    run_cycles,
    verification_campaign,
)
from .jjacobi import (
    ConvergenceError,
    HyperbolicBreakdownError,
    _check_converged,
    monitor_proof_bounds,
    run_j_jacobi,
    sign_diagonal,
    solve_factored,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CSV_HEADER = "ordering,label,gamma,tau,t0,worst_ratio,violations"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path: Optional[str], payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(rows) -> str:
    """``rows`` as CSV lines; csv.writer quotes the orderings and the Parallel labels, which
    hold commas."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _classification_row(ordering: PivotOrdering) -> list:
    record = classify(ordering)
    b = record.bound
    return [str(ordering), *_label_parts(record.label), repr(b.gamma), b.tau, b.t0]


def _classification_json(ordering: PivotOrdering) -> dict:
    record = classify(ordering)
    text, d_or_shift = _label_parts(record.label)
    b = record.bound
    payload = {
        "ordering": str(ordering),
        "label": text,
        "d_or_shift": d_or_shift,
        "bound": {"gamma": b.gamma, "tau": b.tau, "t0": b.t0},
        "certificate": format_certificate(record.certificate).splitlines(),
    }
    if b.gamma_sq is not None:
        payload["bound"]["gamma_sq"] = str(b.gamma_sq)
    return payload


def cmd_classify(args) -> int:
    if args.catalog:
        if args.format is not None:
            raise ValueError("--format does not apply to --catalog, which writes a text summary")
        report = verify_catalog()
        lines = [f"catalog entries checked: {len(catalog())}"]
        lines += [f"class counts: {json.dumps(report.class_counts, sort_keys=True)}"]
        lines += [f"FAIL: {msg}" for msg in report.failures]
        lines += ["all chains replay and classify consistently" if report.ok else "catalog verification FAILED"]
        _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK if report.ok else EXIT_VIOLATION
    orderings = list(enumerate_orderings(4)) if args.all else [parse_ordering(args.ordering)]
    if args.format == "json":
        _write_json(args.out, [_classification_json(o) for o in orderings])
    else:
        header = ["ordering", "label", "d_or_shift", "gamma", "tau", "t0"]
        _write_text(args.out, _csv_text([header, *map(_classification_row, orderings)]))
    return EXIT_OK


def cmd_solve(args) -> int:
    matrix = read_matrix_file(args.matrix)
    ordering = parse_ordering(args.ordering)
    final, report = run_cycles(matrix, ordering, args.cycles)
    payload = {
        "ordering": str(ordering),
        "cycles_requested": report.cycles_requested,
        "cycles_executed": report.cycles_executed,
        "cycle_off_norms": report.cycle_off_norms,
        "steps": [
            {
                "pivots": [list(p) for p in st.pivots],
                "values": list(st.values),
                "angles": list(st.angles),
                "off_norm_before": st.s_before,
                "off_norm_after": st.s_after,
            }
            for st in report.steps
        ],
        "final_matrix": format_matrix(final).splitlines(),
        "final_diagonal": final.diagonal().tolist(),
    }
    _write_json(args.report, payload)
    ok, checks = _s2_checks(*_report_checks(report))
    sys.stderr.write(checks)
    return EXIT_OK if ok else EXIT_NUMERIC


def _load_factor(text: str, n: int) -> np.ndarray:
    if text == "identity":
        return np.eye(n)
    with open(text, "r", encoding="utf-8") as fh:
        return _parse_square(fh.read())  # a factor need not be symmetric


def cmd_jsolve(args) -> int:
    signs = sign_diagonal(args.J.replace("+", " ").split())
    ordering = parse_ordering(args.ordering)
    payload: dict = {"signs": list(signs), "ordering": str(ordering), "tol": args.tol}
    if args.L is not None:
        factor = _load_factor(args.L, len(signs))
        try:
            eigenvalues, eigenvectors, result = solve_factored(
                factor, signs, ordering, tol=args.tol
            )
        except ConvergenceError as exc:  # no eigenpairs; the run's fields are written below
            report = exc.report
        else:
            rows = factor.tolist()
            h = [[_dot([x * s for x, s in zip(u, signs)], v) for v in rows] for u in rows]
            payload["eigenvalues"] = eigenvalues.tolist()
            payload["residual_norms"] = [  # H v - lambda v, each entry one exact dot
                _norm([_dot([*h_r, -lam], [*v, v_r]) for h_r, v_r in zip(h, v)])
                for lam, v in zip(payload["eigenvalues"], eigenvectors.T.tolist())
            ]
            payload["matrix_norm"] = _norm([x for h_r in h for x in h_r])
            report = result.report
    else:
        result = run_j_jacobi(read_matrix_file(args.A), signs, ordering, tol=args.tol)
        lam = result.diagonalized._diagonal_floats()
        payload["eigenvalues"] = [s * x for s, x in zip(signs, lam)]
        report = result.report
    payload["converged"] = report.converged
    payload["cycles_executed"] = report.cycles_executed
    payload["cycle_off_norms"] = report.cycle_off_norms
    payload["angle_envelope"] = report.angle_envelope
    payload["covered_by_convergence_theory"] = report.covered_by_convergence_theory
    if args.monitor is not None:
        verdict = monitor_proof_bounds(report, args.monitor)
        payload["monitor"] = dataclasses.asdict(verdict)
    _write_json(args.report, payload)
    _check_converged(report)  # main prints why and exits 3
    if args.monitor is not None and verdict.attained and not verdict.cascade_ok:
        return EXIT_VIOLATION
    return EXIT_OK


def _select_orderings(selection: list[str]) -> list[PivotOrdering]:
    kind, rest = selection[0], selection[1:]
    if kind == "list":
        if len(rest) != 1:
            raise ValueError("--orderings list needs a file path")
        with open(rest[0], "r", encoding="utf-8") as fh:
            return [parse_ordering(line) for line in fh if line.strip()]
    sources = {
        "all": partial(enumerate_orderings, 4),
        "c0": c0_orderings,
        "serial": serial_perm_orderings,
        "parallel": parallel_orderings,
    }
    if kind not in sources:
        raise ValueError(f"unknown ordering selection {selection!r}")
    if rest:
        raise ValueError(f"--orderings {kind} takes no further tokens, got {' '.join(rest)!r}")
    return list(sources[kind]())


def worker_count(jobs: int, tasks: int, cpus: Optional[int]) -> int:
    """Worker processes for ``tasks`` orderings: ``jobs`` clamped to the tasks and CPUs.

    One worker gets one chunk of orderings, so more workers than orderings
    would idle, and more than ``cpus`` (``os.cpu_count()``, possibly None)
    would only contend.
    """
    return max(1, min(jobs, tasks, cpus or 1))


def _cell_rows(cells: Sequence[CampaignCell]) -> str:
    """The campaign's CSV rows, one per cell, under ``CSV_HEADER``."""
    return _csv_text(
        [str(c.ordering), c.label, repr(c.gamma), c.tau, c.t0, repr(c.worst_ratio), c.violations]
        for c in cells
    )


def cmd_verify(args) -> int:
    # enumeration order: itertools.permutations of the sorted pairs is lexicographic
    orderings = sorted(_select_orderings(args.orderings), key=lambda o: o.pairs)
    modes = ("classified", "universal") if args.bound == "both" else (args.bound,)
    if args.seed < 0:
        raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {args.jobs}")
    jobs = worker_count(args.jobs, len(orderings), os.cpu_count())
    campaign = partial(verification_campaign, args.seed, args.samples, orderings, modes)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # one chunk per worker: each chunk pickles the matrix batch once
            chunk = math.ceil(len(orderings) / jobs)
            report = campaign(map_fn=partial(pool.map, chunksize=chunk))
    else:
        report = campaign()
    header = [
        f"# seed={args.seed} samples={args.samples} rng={report.rng_algorithm}"
        f" bound={args.bound} orderings={' '.join(args.orderings)}",
        CSV_HEADER,
    ]
    _write_text(args.out, "\n".join(header) + "\n" + _cell_rows(report.cells))
    ok, checks = _s2_checks(report.identity_violation, report.monotonicity_excess)
    sys.stderr.write(checks)
    total = report.total_violations
    if total:
        print(f"{total} bound violations beyond fp slack", file=sys.stderr)
    if not ok:
        return EXIT_NUMERIC
    return EXIT_VIOLATION if total else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cjacobi",
        description="Cyclic Jacobi sweeps: ordering classification, solving, and bound verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify orderings and verify the built-in catalog")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="classify all 720 orderings")
    group.add_argument("--ordering", help='one ordering, e.g. "1 2, 1 3, 2 3, 1 4, 2 4, 3 4"')
    group.add_argument("--catalog", action="store_true", help="replay all 120 catalog chains")
    p.add_argument("--format", choices=("csv", "json"), help="default: csv; not with --catalog")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="run cyclic Jacobi sweeps on a matrix file")
    p.add_argument("--matrix", required=True, help="whitespace-separated symmetric matrix file")
    p.add_argument("--ordering", required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--report", help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("jsolve", help="solve the definite pair (A, J) or H = L J L^T")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--L", help='factor file, or "identity"')
    group.add_argument("--A", help="symmetric positive definite matrix file")
    p.add_argument("--J", required=True, help='sign diagonal, e.g. "+1 +1 -1 -1"')
    p.add_argument(
        "--ordering", default="1 2, 1 3, 2 3, 1 4, 2 4, 3 4",
        help="pivot ordering (default: the column-wise template)",
    )
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--monitor", type=float, help="epsilon for the parallel-pattern cascade monitor")
    p.add_argument("--report", help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_jsolve)

    p = sub.add_parser("verify", help="seeded empirical verification of contraction bounds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument(
        "--orderings", nargs="+", default=["all"],
        help="all | c0 | serial | parallel | list FILE",
    )
    p.add_argument("--bound", choices=("classified", "universal", "both"), default="both")
    p.add_argument("--out", help="CSV report path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1 (default: 1)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (HyperbolicBreakdownError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
