"""Acceptance suite: every stated convergence guarantee, at desk scale.

Each test evaluates one criterion at its stated tolerance over seeded random
inputs, prints a single PASS/FAIL line (visible with ``pytest -s``), and then
asserts.  Fixed seeds make every run byte-reproducible.
"""

from fractions import Fraction

import numpy as np

from cyclic_jacobi.cli import main as cli_main
from cyclic_jacobi.core import SymMatrix
from cyclic_jacobi.classification import (
    GeneralizedSerial,
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    Parallel,
    anchor_variants,
    c0_orderings,
    catalog,
    classify,
    compute_eta,
    parallel_orderings,
    verify_catalog,
)
from cyclic_jacobi.driver import (
    batch_sweep,
    default_rng,
    random_spd_factor,
    random_symmetric_batch,
    run_cycles,
    run_parallel_cycle,
    verify_cycle_monotonicity,
    verify_step_identities,
)
from cyclic_jacobi.jjacobi import STANDARD_SIGNS, monitor_proof_bounds, run_j_jacobi
from cyclic_jacobi.orderings import enumerate_orderings

ETA4 = 27.0 / 28.0
GAMMA_UNIVERSAL = 1.0 - 1e-5
SLACK = 1e-12

SEED_SERIAL = 101
SEED_UNIVERSAL = 202
SEED_GENERALIZED = 303
SEED_PARALLEL_CONSTRAINED = 404
SEED_PARALLEL_SHIFT2 = 405
SEED_AGREEMENT = 606
SEED_IDENTITY = 707
SEED_JJACOBI = 808
SEED_MONITOR = 909

ENTRY = {e.index: e for e in catalog()}

# running maxima over every sweep executed by this suite (criterion 7)
RUN_STATS = {"identity": 0.0, "monotonicity": -np.inf, "sweeps": 0}


def _track(identity: float, monotonicity: float, sweeps: int) -> None:
    RUN_STATS["identity"] = max(RUN_STATS["identity"], identity)
    RUN_STATS["monotonicity"] = max(RUN_STATS["monotonicity"], monotonicity)
    RUN_STATS["sweeps"] += sweeps


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_serial_one_sweep_bound():
    mats = random_symmetric_batch(default_rng(SEED_SERIAL), 10_000)
    violations = 0
    worst = 0.0
    for idx in range(1, 17):
        sweep = batch_sweep(mats, ENTRY[idx].ordering, 1)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 10_000)
        s2_start = sweep.off_norms[0] ** 2
        s2_end = sweep.off_norms[1] ** 2
        excess = s2_end - (ETA4 * s2_start + SLACK)
        violations += int(np.sum(excess > 0.0))
        live = s2_start > 0.0
        worst = max(worst, float(np.max(s2_end[live] / s2_start[live])))
    _verdict(
        1,
        violations == 0,
        f"16 serial orderings x 1e4 matrices: S^2 one-sweep ratio <= 27/28 + 1e-12; "
        f"worst ratio {worst:.6f}, violations {violations}",
    )


def test_criterion_2_universal_contraction():
    mats = random_symmetric_batch(default_rng(SEED_UNIVERSAL), 200)
    violations = 0
    worst = 0.0
    for ordering in enumerate_orderings(4):
        sweep = batch_sweep(mats, ordering, 8)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 200 * 8)
        offs = sweep.off_norms
        for t in range(1, 6):
            start = offs[t]
            live = start > 0.0
            if not np.any(live):
                continue
            ratios = offs[t + 3][live] / start[live]
            violations += int(np.sum(ratios > GAMMA_UNIVERSAL + SLACK))
            worst = max(worst, float(ratios.max()))
    _verdict(
        2,
        violations == 0,
        f"720 orderings x 200 matrices x t in 1..5: S ratio <= 1 - 1e-5 + 1e-12; "
        f"worst ratio {worst:.8f}, violations {violations}",
    )


def test_criterion_3_generalized_serial_bound():
    mats = random_symmetric_batch(default_rng(SEED_GENERALIZED), 1_000)
    violations = 0
    checked = 0
    worst = 0.0
    for ordering in c0_orderings():
        record = classify(ordering)
        if not isinstance(record.label, GeneralizedSerial):
            continue
        checked += 1
        d = record.label.d
        sweep = batch_sweep(mats, ordering, d + 1)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 1_000 * (d + 1))
        s2_start = sweep.off_norms[0] ** 2
        s2_end = sweep.off_norms[d + 1] ** 2
        violations += int(np.sum(s2_end > ETA4 * s2_start + SLACK))
        live = s2_start > 0.0
        worst = max(worst, float(np.max(s2_end[live] / s2_start[live])))
    _verdict(
        3,
        checked == 88 and violations == 0,
        f"{checked} generalized-serial orderings x 1e3 matrices: "
        f"S^2(A^[d+1]) <= 27/28 S^2(A) + 1e-12; worst ratio {worst:.6f}, "
        f"violations {violations}",
    )


def test_criterion_4_parallel_bounds():
    constrained = random_symmetric_batch(
        default_rng(SEED_PARALLEL_CONSTRAINED), 1_000, zero_pairs=((1, 2), (3, 4))
    )
    violations = 0
    variants = anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
    assert len(variants) == 16
    for ordering in variants:
        sweep = batch_sweep(constrained, ordering, 2)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 2_000)
        start, end = sweep.off_norms[0], sweep.off_norms[2]
        violations += int(np.sum(end > GAMMA_UNIVERSAL * start + SLACK))

    shift2 = [
        o for o in parallel_orderings()
        if isinstance(classify(o).label, Parallel) and classify(o).label.shift_length == 2
    ]
    assert len(shift2) == 16
    unconstrained = random_symmetric_batch(default_rng(SEED_PARALLEL_SHIFT2), 1_000)
    for ordering in shift2:
        sweep = batch_sweep(unconstrained, ordering, 3)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 3_000)
        start, end = sweep.off_norms[0], sweep.off_norms[3]
        violations += int(np.sum(end > GAMMA_UNIVERSAL * start + SLACK))
    _verdict(
        4,
        violations == 0,
        "16 anchor-variants (pinned a12=a34=0, two sweeps) and 16 shift-2 "
        f"orderings (unconstrained, three sweeps): S ratio <= 1 - 1e-5 + 1e-12; "
        f"violations {violations}",
    )


def test_criterion_5_catalog_fidelity(capsys):
    report = verify_catalog()
    exit_code = cli_main(["classify", "--catalog", "--out", "-"])
    capsys.readouterr()
    counts = report.class_counts
    ok = (
        report.ok
        and exit_code == 0
        and counts["column"] == 12
        and counts["reverse-row"] == 4
        and counts["row"] == 0
        and counts["generalized-serial"] == 88
        and counts["parallel"] == 16
    )
    _verdict(
        5,
        ok,
        f"120 chains replay exactly (exit {exit_code}); counts {counts}; "
        f"failures: {report.failures or 'none'}",
    )


def test_criterion_6_parallel_sequential_agreement():
    mats = random_symmetric_batch(default_rng(SEED_AGREEMENT), 100)
    worst = 0.0
    variants = anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
    for ordering in variants:
        for k in range(100):
            m = SymMatrix.from_dense(mats[k])
            par, rep_par = run_parallel_cycle(m, ordering)
            seq, rep_seq = run_cycles(m, ordering, 1)
            _track(verify_step_identities(rep_par), -np.inf, 1)
            _track(verify_step_identities(rep_seq), -np.inf, 1)
            verify_cycle_monotonicity(rep_seq)
            scale = max(np.linalg.norm(m.to_dense()), 1e-300)
            rel = np.linalg.norm(par.to_dense() - seq.to_dense()) / scale
            worst = max(worst, rel)
    _verdict(
        6,
        worst <= 1e-13,
        f"16 anchor-variants x 100 matrices: parallel vs sequential sweep "
        f"agrees within 1e-13 relative Frobenius (worst {worst:.3e})",
    )


def test_criterion_7_step_identity_and_monotonicity():
    # sweeps of its own, so the criterion is not vacuous when run alone
    mats = random_symmetric_batch(default_rng(SEED_IDENTITY), 200)
    for ordering in c0_orderings():
        sweep = batch_sweep(mats, ordering, 6)
        _track(sweep.identity_violation, sweep.monotonicity_excess, 200 * 6)
    for k in range(10):
        _, report = run_cycles(SymMatrix.from_dense(mats[k]), ENTRY[1 + 12 * k].ordering, 6)
        verify_cycle_monotonicity(report)
        _track(verify_step_identities(report), -np.inf, 6)
    ok = (
        RUN_STATS["sweeps"] > 0
        and RUN_STATS["identity"] <= 1e-13
        and RUN_STATS["monotonicity"] <= 1e-14
    )
    _verdict(
        7,
        ok,
        f"across {RUN_STATS['sweeps']} sweeps in this suite: worst S^2-decrement "
        f"deviation {RUN_STATS['identity']:.3e} (<= 1e-13 relative), worst "
        f"cycle-to-cycle off-norm growth {RUN_STATS['monotonicity']:.3e} "
        f"(<= 1e-14 relative)",
    )


def test_criterion_8_j_jacobi_convergence():
    rng = default_rng(SEED_JJACOBI)
    orderings = [ENTRY[1 + 6 * k].ordering for k in range(20)]
    j_dense = np.diag(np.array(STANDARD_SIGNS, dtype=float))
    runs = 1_000
    not_converged = 0
    worst_cycles = 0
    worst_spectrum = 0.0
    worst_envelope = 0.0
    for k in range(runs):
        factor = random_spd_factor(rng)
        a = SymMatrix.from_dense(factor.T @ factor)
        result = run_j_jacobi(a, STANDARD_SIGNS, orderings[k % 20], tol=1e-13, max_cycles=40)
        report = result.report
        if not report.converged:
            not_converged += 1
            continue
        worst_cycles = max(worst_cycles, report.cycles_executed)
        lam = result.diagonalized.diagonal()
        got = np.sort(np.array(STANDARD_SIGNS, dtype=float) * lam)
        oracle = np.sort(np.linalg.eigvalsh(factor @ j_dense @ factor.T))
        worst_spectrum = max(
            worst_spectrum, float(np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)))
        )
        worst_envelope = max(worst_envelope, report.angle_envelope[-1])
    ok = (
        not_converged == 0
        and worst_cycles <= 40
        and worst_spectrum <= 1e-9
        and worst_envelope < 1e-8
    )
    _verdict(
        8,
        ok,
        f"{runs} definite pairs over 20 orderings: all converged "
        f"(max {worst_cycles} cycles), spectrum error {worst_spectrum:.3e} "
        f"(<= 1e-9 relative), final-cycle max |tanh| {worst_envelope:.3e} (< 1e-8)",
    )


def test_criterion_9_proof_monitor_cascade():
    rng = default_rng(SEED_MONITOR)
    patterns = [PAR_ANCHOR, ENTRY[105].ordering, PAR_ANCHOR_MIRROR, ENTRY[117].ordering]
    failures = 0
    windows = 0
    for k in range(100):
        factor = random_spd_factor(rng)
        a = SymMatrix.from_dense(factor.T @ factor)
        report = run_j_jacobi(a, STANDARD_SIGNS, patterns[k % 4], tol=1e-13).report
        verdict = monitor_proof_bounds(report, 0.05)
        if not (verdict.attained and verdict.cascade_ok):
            failures += 1
        else:
            windows += verdict.windows_checked - verdict.r0
    _verdict(
        9,
        failures == 0,
        f"100 parallel-pattern runs at epsilon = 0.05: cascade inequalities hold "
        f"from the located start in every run ({windows} windows checked), "
        f"failures {failures}",
    )


def test_criterion_10_eta_recurrence():
    values = (compute_eta(2), compute_eta(3), compute_eta(4))
    expected = (Fraction(0), Fraction(3, 4), Fraction(27, 28))
    _verdict(
        10,
        values == expected,
        f"exact contraction factors for n = 2, 3, 4: {values[0]}, {values[1]}, {values[2]}",
    )
