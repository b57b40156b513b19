import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_jacobi.core import SymMatrix, rotation_for_pivot
from cyclic_jacobi.classification import PAR_ANCHOR, PAR_ANCHOR_MIRROR, catalog
from cyclic_jacobi.driver import default_rng, random_spd_factor, random_symmetric, run_cycles
from cyclic_jacobi.jjacobi import (
    ConvergenceError,
    HyperbolicBreakdownError,
    IllConditionedError,
    MonitorInapplicableError,
    STANDARD_SIGNS,
    cubic_decay_indicator,
    eigen_from_factored,
    solve_factored,
    j_rotation_for_pivot,
    monitor_proof_bounds,
    run_j_jacobi,
    sign_diagonal,
)

ENTRY = {e.index: e.ordering for e in catalog()}
COLUMN = ENTRY[1]
J4 = np.diag([1.0, 1.0, -1.0, -1.0])
SUBNORMAL = 2.0**-1074
TINY_PIVOTS = st.builds(
    lambda x, neg: -x if neg else x,
    st.one_of(st.floats(SUBNORMAL, 2.0**-1022), st.floats(2.0**-1022, 1e-150)),
    st.booleans(),
)


def spd_matrix(rng, max_cond=100.0):
    factor = random_spd_factor(rng, max_cond=max_cond)
    return SymMatrix.from_dense(factor.T @ factor), factor


class TestSignDiagonal:
    def test_accepts_signs(self):
        assert sign_diagonal((1, 1, -1, -1)) == (1, 1, -1, -1)

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            sign_diagonal((1, 0, -1, -1))
        with pytest.raises(ValueError):
            sign_diagonal(())


class TestJRotation:
    def test_zero_pivot_identity(self):
        a = SymMatrix.diag([1.0, 2.0, 3.0, 4.0])
        rot = j_rotation_for_pivot(a, STANDARD_SIGNS, 1, 3)
        assert rot.kind == "hyperbolic"
        assert (rot.c, rot.s, rot.angle) == (1.0, 0.0, 0.0)

    def test_equal_signs_reduce_to_trigonometric(self):
        rng = default_rng(3)
        a, _ = spd_matrix(rng)
        rot = j_rotation_for_pivot(a, STANDARD_SIGNS, 1, 2)
        plain = rotation_for_pivot(a, 1, 2)
        assert rot.kind == "trigonometric"
        assert (rot.c, rot.s, rot.angle) == (plain.c, plain.s, plain.phi)

    def test_two_by_two_hyperbolic_oracle(self):
        # A = [[2, 1], [1, 2]], J = diag(1, -1): tanh(2 theta) = -1/2, and the
        # annihilating tanh solves t^2 + 4 t + 1 = 0, so t = sqrt(3) - 2; the
        # transformed matrix is sqrt(3) * I (the pencil eigenvalues are +-sqrt(3))
        a = SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        rot = j_rotation_for_pivot(a, (1, -1), 1, 2)
        assert rot.kind == "hyperbolic"
        assert rot.tanh == pytest.approx(math.sqrt(3.0) - 2.0, rel=1e-15)
        f = rot.embed(2)
        j2 = np.diag([1.0, -1.0])
        assert np.max(np.abs(f.T @ j2 @ f - j2)) <= 1e-13
        transformed = f.T @ a.to_dense() @ f
        assert abs(transformed[0, 1]) <= 1e-14 * np.linalg.norm(a.to_dense())
        assert transformed[0, 0] == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert transformed[1, 1] == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_embedded_transformations_are_j_orthogonal(self):
        rng = default_rng(4)
        a, _ = spd_matrix(rng)
        for (i, j) in ((1, 3), (2, 4), (1, 4), (2, 3)):
            rot = j_rotation_for_pivot(a, STANDARD_SIGNS, i, j)
            f = rot.embed(4)
            assert np.max(np.abs(f.T @ J4 @ f - J4)) <= 1e-13
            out = f.T @ a.to_dense() @ f
            assert abs(out[i - 1, j - 1]) <= 1e-14 * np.linalg.norm(a.to_dense())

    def test_breakdown_detected_and_not_clamped(self):
        a = SymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])  # indefinite pair
        with pytest.raises(HyperbolicBreakdownError):
            j_rotation_for_pivot(a, (1, -1), 1, 2)


class TestTinyHyperbolicPivots:
    @given(
        pivot=TINY_PIVOTS,
        aii=st.floats(1e-3, 1e3),
        ajj=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_step_annihilates_tiny_and_subnormal_pivots(self, pivot, aii, ajj):
        # |tau| = (aii + ajj) / |2 pivot| is beyond 1e150, so tau^2 overflows.
        # The (2, 4) entry keeps S(A) away from underflow; PAR_ANCHOR pivots
        # (1, 3) first, and every later pivot of the sweep stays exactly 0.
        dense = np.diag([aii, 1.0, ajj, 1.0])
        dense[0, 2] = dense[2, 0] = pivot
        dense[1, 3] = dense[3, 1] = 0.5
        a = SymMatrix.from_dense(dense)
        rot = j_rotation_for_pivot(a, STANDARD_SIGNS, 1, 3)
        assert rot.kind == "hyperbolic"
        assert rot.s == pytest.approx(-pivot / (aii + ajj), rel=1e-15, abs=SUBNORMAL)
        result = run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR, tol=0.0, max_cycles=1)
        step = result.report.steps[0]
        assert step.pivot == (1, 3) and step.value == pivot
        final = result.diagonalized
        if rot.s == 0.0:
            # tanh rounds to 0 only for a pivot below the spacing of the diagonal
            assert abs(pivot) <= SUBNORMAL * (aii + ajj)
        else:
            assert step.tanh > 0.0
            assert final.entry(1, 3) == 0.0
            assert final.to_dense()[np.triu_indices(4, k=1)].tolist() == [0.0] * 6
        assert np.allclose(
            [final.entry(1, 1), final.entry(3, 3)], [aii, ajj],
            rtol=4 * np.finfo(float).eps, atol=0.0,
        )

    def test_tiny_hyperbolic_pivot_converges_without_warnings(self):
        dense = np.eye(4)
        dense[0, 2] = dense[2, 0] = 1e-160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_j_jacobi(SymMatrix.from_dense(dense), STANDARD_SIGNS, COLUMN, tol=0.0)
        report = result.report
        assert report.converged
        assert report.cycle_off_norms[1] == 0.0
        assert report.cycles_executed == 2

    def test_converged_runs_raise_no_warnings(self):
        # seed 5 drives both kernels into overflowing tau; the hyperbolic run
        # must still reach S = 0, and neither may raise a numpy warning
        factor = random_spd_factor(default_rng(5))
        a = SymMatrix.from_dense(factor.T @ factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_j_jacobi(a, STANDARD_SIGNS, COLUMN, tol=0.0)
            _, sweeps = run_cycles(random_symmetric(default_rng(5)), COLUMN, 10)
        assert result.report.converged
        assert result.report.cycle_off_norms[-1] == 0.0
        assert sweeps.cycles_executed < 10  # stopped at the off-norm floor


class TestRunJJacobi:
    def test_diagonal_input_returns_immediately(self):
        a = SymMatrix.diag([3.0, 2.0, 5.0, 7.0])
        result = run_j_jacobi(a, STANDARD_SIGNS, COLUMN)
        assert result.report.cycles_executed == 0
        assert result.diagonalized == a
        assert np.array_equal(result.transform, np.eye(4))

    def test_converges_with_j_orthogonal_transform(self):
        rng = default_rng(21)
        for _ in range(10):
            a, _ = spd_matrix(rng)
            result = run_j_jacobi(a, STANDARD_SIGNS, COLUMN, tol=1e-13)
            report = result.report
            assert report.converged
            assert report.cycles_executed <= 20
            f = result.transform
            assert np.max(np.abs(f.T @ J4 @ f - J4)) <= 1e-12
            recon = f.T @ a.to_dense() @ f
            assert np.allclose(
                recon, result.diagonalized.to_dense(), atol=1e-11 * np.linalg.norm(a.to_dense())
            )

    def test_angle_envelope_vanishes_at_convergence(self):
        rng = default_rng(22)
        a, _ = spd_matrix(rng)
        result = run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR, tol=1e-13)
        envelope = result.report.angle_envelope
        assert result.report.converged
        assert envelope[-1] < 1e-8
        tail = envelope[len(envelope) // 2:]
        assert all(b <= a_ for a_, b in zip(tail, tail[1:]))

    def test_every_step_annihilates_its_pivot(self):
        rng = default_rng(23)
        a, _ = spd_matrix(rng)
        result = run_j_jacobi(a, STANDARD_SIGNS, ENTRY[13], tol=1e-13, max_cycles=3)
        dense = a.to_dense()
        for step in result.report.steps[:6]:
            i0, j0 = step.pivot[0] - 1, step.pivot[1] - 1
            rot = j_rotation_for_pivot(SymMatrix.from_dense(dense), STANDARD_SIGNS, *step.pivot)
            f = rot.embed(4)
            dense = f.T @ dense @ f
            dense = (dense + dense.T) / 2
            assert abs(dense[i0, j0]) <= 1e-14 * np.linalg.norm(dense)
            dense[i0, j0] = dense[j0, i0] = 0.0

    def test_nonstandard_signs_are_flagged(self):
        rng = default_rng(24)
        a, _ = spd_matrix(rng)
        result = run_j_jacobi(a, (1, -1, 1, -1), COLUMN)
        assert not result.report.covered_by_convergence_theory
        standard = run_j_jacobi(a, STANDARD_SIGNS, COLUMN)
        assert standard.report.covered_by_convergence_theory

    def test_trigonometric_off_norm_never_grows(self):
        # all-equal signs reduce to the plain symmetric method
        rng = default_rng(25)
        a, _ = spd_matrix(rng)
        result = run_j_jacobi(a, (1, 1, 1, 1), COLUMN)
        norms = result.report.cycle_off_norms
        assert all(b <= a_ * (1 + 1e-14) for a_, b in zip(norms, norms[1:]))
        assert result.report.covered_by_convergence_theory

    def test_huge_entry_keeps_a_finite_threshold(self):
        # squaring 1e155 overflows, which once made the stopping threshold inf
        dense = np.diag([1e155, 1.0, 2.0, 3.0])
        dense[0, 1] = dense[1, 0] = 1e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_j_jacobi(SymMatrix.from_dense(dense), (1, 1, 1, 1), COLUMN)
        report = result.report
        assert report.initial_norm == pytest.approx(np.linalg.norm(dense / 1e155) * 1e155)
        assert report.converged and report.cycles_executed > 0
        eigenvalues = np.sort(result.diagonalized.diagonal())
        error = np.max(np.abs(eigenvalues - np.linalg.eigvalsh(dense)))
        assert error <= 1e-15 * report.initial_norm


class TestEigenFromFactored:
    def test_identity_factor_gives_sign_eigenvalues(self):
        vals, vecs, _ = solve_factored(np.eye(4), STANDARD_SIGNS, COLUMN)
        assert vals.tolist() == [1.0, 1.0, -1.0, -1.0]
        assert np.allclose(np.abs(vecs), np.eye(4))

    def test_diagonal_factor(self):
        vals, _, _ = solve_factored(np.diag([1.0, 2.0, 3.0, 4.0]), STANDARD_SIGNS, COLUMN)
        assert vals.tolist() == pytest.approx([1.0, 4.0, -9.0, -16.0], rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = default_rng(31)
        for _ in range(10):
            factor = random_spd_factor(rng)
            vals, vecs, _ = solve_factored(factor, STANDARD_SIGNS, COLUMN)
            h = factor @ J4 @ factor.T
            oracle = np.sort(np.linalg.eigvalsh(h))
            scale = np.max(np.abs(oracle))
            assert np.allclose(np.sort(vals), oracle, atol=1e-9 * scale)
            for k in range(4):
                resid = np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k])
                assert resid <= 1e-9 * np.linalg.norm(h)

    def test_eigenvectors_orthonormal(self):
        rng = default_rng(32)
        factor = random_spd_factor(rng)
        _, vecs = eigen_from_factored(factor, STANDARD_SIGNS, COLUMN)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_pair_form_matches_full_form(self):
        rng = default_rng(34)
        factor = random_spd_factor(rng)
        vals, vecs = eigen_from_factored(factor, STANDARD_SIGNS, COLUMN)
        full_vals, full_vecs, result = solve_factored(factor, STANDARD_SIGNS, COLUMN)
        assert np.array_equal(vals, full_vals)
        assert np.array_equal(vecs, full_vecs)
        assert result.report.converged

    def test_rejects_singular_factor(self):
        singular = np.zeros((4, 4))
        with pytest.raises(IllConditionedError):
            eigen_from_factored(singular, STANDARD_SIGNS, COLUMN)

    def test_convergence_error_when_budget_too_small(self):
        rng = default_rng(33)
        factor = random_spd_factor(rng)
        with pytest.raises(ConvergenceError):
            eigen_from_factored(factor, STANDARD_SIGNS, COLUMN, max_cycles=1)


class TestProofMonitor:
    def run_parallel(self, seed, ordering=PAR_ANCHOR):
        rng = default_rng(seed)
        a, _ = spd_matrix(rng)
        return run_j_jacobi(a, STANDARD_SIGNS, ordering, tol=1e-13).report

    def test_cascade_holds_on_converged_run(self):
        report = self.run_parallel(41)
        verdict = monitor_proof_bounds(report, 0.05)
        assert verdict.attained
        assert verdict.cascade_ok, verdict.failures
        assert verdict.r0 is not None

    def test_both_patterns_and_phases(self):
        for ordering, variant in (
            (PAR_ANCHOR, "13-24 first"),
            (PAR_ANCHOR_MIRROR, "14-23 first"),
            (ENTRY[105], "13-24 first"),
            (ENTRY[117], "14-23 first"),
        ):
            report = self.run_parallel(42, ordering)
            verdict = monitor_proof_bounds(report, 0.05)
            assert verdict.variant == variant
            assert verdict.cascade_ok, verdict.failures
        assert monitor_proof_bounds(self.run_parallel(42, ENTRY[105]), 0.05).phase == 0
        assert monitor_proof_bounds(self.run_parallel(42, PAR_ANCHOR), 0.05).phase == 4

    def test_epsilon_window_enforced(self):
        report = self.run_parallel(43)
        with pytest.raises(ValueError, match="epsilon"):
            monitor_proof_bounds(report, 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            monitor_proof_bounds(report, 0.0)

    def test_serial_ordering_rejected(self):
        report = self.run_parallel(44, COLUMN)
        with pytest.raises(MonitorInapplicableError, match="inapplicable"):
            monitor_proof_bounds(report, 0.05)

    def test_diagonal_run_is_vacuous_pass(self):
        a = SymMatrix.diag([1.0, 2.0, 3.0, 4.0])
        report = run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR).report
        verdict = monitor_proof_bounds(report, 0.05)
        assert verdict.attained and verdict.cascade_ok
        assert verdict.r0 == 0 and verdict.windows_checked == 0

    def test_cubic_terminal_decay_on_seeded_fixtures(self):
        for seed in (51, 52, 53, 54):
            report = self.run_parallel(seed)
            ratios = cubic_decay_indicator(report)
            assert ratios, "run never entered the terminal phase"
            assert all(r >= 3.0 for r in ratios), ratios
