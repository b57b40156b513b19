import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_jacobi import jjacobi
from cyclic_jacobi.core import SymMatrix, _rotation_params, off_norm, rotation_for_pivot
from cyclic_jacobi.classification import PAR_ANCHOR, PAR_ANCHOR_MIRROR, catalog
from cyclic_jacobi.driver import (
    default_rng,
    random_spd_factor,
    random_symmetric,
    run_cycles,
    verify_step_identities,
)
from cyclic_jacobi.jjacobi import (
    ConvergenceError,
    HyperbolicBreakdownError,
    IllConditionedError,
    MonitorInapplicableError,
    STANDARD_SIGNS,
    _hyperbolic_params,
    cubic_decay_indicator,
    solve_factored,
    monitor_proof_bounds,
    run_j_jacobi,
    sign_diagonal,
)
from cyclic_jacobi.orderings import make_ordering
from oracles import embed, replayed_transform

ENTRY = {e.index: e.ordering for e in catalog()}
COLUMN = ENTRY[1]
PAIR = make_ordering([(1, 2)])  # the one ordering of n = 2
J4 = np.diag([1.0, 1.0, -1.0, -1.0])
SUBNORMAL = 2.0**-1074
TINY_PIVOTS = st.builds(
    lambda x, neg: -x if neg else x,
    st.one_of(st.floats(SUBNORMAL, 2.0**-1022), st.floats(2.0**-1022, 1e-150)),
    st.booleans(),
)


def run_capped(cycles, a, signs, ordering, tol):
    """``run_j_jacobi`` with ``jjacobi.MAX_CYCLES`` set to ``cycles`` for this call only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jjacobi, "MAX_CYCLES", cycles)
        return run_j_jacobi(a, signs, ordering, tol=tol)


def spd_matrix(rng):
    factor = random_spd_factor(rng)
    return SymMatrix.from_dense(factor.T @ factor), factor


def step_transform(dense, signs, i, j):
    """F of the one J-Jacobi step at the pivot (i, j) of ``dense``, replayed from its record."""
    i0, j0 = i - 1, j - 1
    aii, ajj, aij = (float(dense[p, q]) for p, q in ((i0, i0), (j0, j0), (i0, j0)))
    if signs[i0] != signs[j0]:
        c, s, tangent = _hyperbolic_params(aii, ajj, aij)
        t = s
    else:
        c, s, tangent = _rotation_params(aii, ajj, aij)
        t = -s
    return replayed_transform(len(signs), [((i, j), aij, c, s, t, tangent)])


class TestSignDiagonal:
    def test_accepts_signs(self):
        assert sign_diagonal((1, 1, -1, -1)) == (1, 1, -1, -1)

    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            sign_diagonal((1, 0, -1, -1))
        with pytest.raises(ValueError):
            sign_diagonal(())

    @pytest.mark.parametrize("values", [
        (1.0, 1.0, -1.0, -1.0),
        tuple(np.array([1, 1, -1, -1])),
        ("1", "1", "-1", "-1"),  # the tokens cjacobi jsolve --J passes
    ], ids=["floats", "numpy-ints", "strings"])
    def test_accepts_exact_signs_as_ints(self, values):
        out = sign_diagonal(values)
        assert out == (1, 1, -1, -1) and all(type(v) is int for v in out)

    @pytest.mark.parametrize("values", [
        (1.5, 1, -1, -1), (1.9, -1.9), (1, -0.999), (1, math.nan), (math.inf, -1), ("1.5", "-1"),
    ])
    def test_rejects_signs_that_are_not_exactly_one(self, values):
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            sign_diagonal(values)


class TestJRotation:
    """The J-orthogonal step transformation, read from its owners: ``_hyperbolic_params`` and
    ``_rotation_params``, a run's steps and transform, or a one-record ``replayed_transform``."""

    def test_zero_pivot_identity(self):
        a = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert STANDARD_SIGNS[0] != STANDARD_SIGNS[2]  # (1, 3) is a hyperbolic pivot
        ch, sh, th = _hyperbolic_params(a.entry(1, 1), a.entry(3, 3), a.entry(1, 3))
        assert (ch, sh, math.atanh(th)) == (1.0, 0.0, 0.0)

    def test_equal_signs_reduce_to_trigonometric(self):
        rng = default_rng(3)
        a, _ = spd_matrix(rng)
        report = run_capped(1, a, STANDARD_SIGNS, COLUMN, tol=0.0).report
        plain = rotation_for_pivot(a, 1, 2)
        step = report.steps[0]
        assert step.pivot == (1, 2) and step.kind == "trigonometric"
        assert step.angle == plain.phi
        assert np.array_equal(replayed_transform(4, report._records[:1]), embed(plain, 4))

    def test_two_by_two_hyperbolic_oracle(self):
        # A = [[d, x], [x, d]], J = diag(1, -1): tanh(2 theta) = -x/d, and the
        # annihilating tanh solves x t^2 + 2 d t + x = 0, so t = (r - d) / x with
        # r = sqrt(d^2 - x^2); the transformed matrix is r * I (the pencil
        # eigenvalues are +-r).  d = 2, x = 1 gives t = sqrt(3) - 2.  d = 1,
        # x = 1 - 1e-9 is near breakdown: cosh is about 106, and rounding
        # tau = -1/x alone moves t by 2e-12 and r by 5e-9, relative.
        j2 = np.diag([1.0, -1.0])
        for d, x, tanh_rel, rel in ((2.0, 1.0, 1e-15, 1e-14), (1.0, 1.0 - 1e-9, 1e-11, 1e-7)):
            a = SymMatrix.from_dense([[d, x], [x, d]])
            result = run_capped(1, a, (1, -1), PAIR, tol=0.0)
            step, f = result.report.steps[0], result.transform
            r = math.sqrt((d - x) * (d + x))
            assert step.kind == "hyperbolic"
            assert math.tanh(step.angle) == pytest.approx((r - d) / x, rel=tanh_rel)
            assert result.diagonalized.entry(1, 2) == 0.0
            scale = np.max(np.abs(f)) ** 2
            assert np.max(np.abs(f.T @ j2 @ f - j2)) <= 1e-15 * scale
            transformed = f.T @ a.to_dense() @ f
            assert abs(transformed[0, 1]) <= 1e-14 * np.linalg.norm(a.to_dense()) * scale
            assert result.diagonalized.diagonal() == pytest.approx([r, r], rel=rel)

    def test_embedded_transformations_are_j_orthogonal(self):
        rng = default_rng(4)
        a, _ = spd_matrix(rng)
        for (i, j) in ((1, 3), (2, 4), (1, 4), (2, 3)):
            f = step_transform(a.to_dense(), STANDARD_SIGNS, i, j)
            assert np.max(np.abs(f.T @ J4 @ f - J4)) <= 1e-13
            out = f.T @ a.to_dense() @ f
            assert abs(out[i - 1, j - 1]) <= 1e-14 * np.linalg.norm(a.to_dense())

    def test_breakdown_detected_and_not_clamped(self):
        a = SymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])  # indefinite pair
        with pytest.raises(HyperbolicBreakdownError):
            _hyperbolic_params(a.entry(1, 1), a.entry(2, 2), a.entry(1, 2))
        with pytest.raises(HyperbolicBreakdownError):
            run_j_jacobi(a, (1, -1), PAIR)


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
        _, sh, _ = _hyperbolic_params(a.entry(1, 1), a.entry(3, 3), a.entry(1, 3))
        assert sh == pytest.approx(-pivot / (aii + ajj), rel=1e-15, abs=SUBNORMAL)
        result = run_capped(1, a, STANDARD_SIGNS, PAR_ANCHOR, tol=0.0)
        step = result.report.steps[0]
        assert step.pivot == (1, 3) and step.value == pivot and step.kind == "hyperbolic"
        final = result.diagonalized
        if sh == 0.0:
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
        a = SymMatrix.from_dense(np.diag([3.0, 2.0, 5.0, 7.0]))
        result = run_j_jacobi(a, STANDARD_SIGNS, COLUMN)
        assert result.report.cycles_executed == 0
        assert result.diagonalized == a
        assert np.array_equal(result.transform, np.eye(4))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, -5e-324])
    def test_rejects_tol_outside_zero_to_inf(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            run_j_jacobi(
                SymMatrix.from_dense(np.diag([3.0, 2.0, 5.0, 7.0])), STANDARD_SIGNS, COLUMN, tol=tol
            )

    def test_underflowed_off_norm_is_not_taken_as_converged(self):
        # S^2 underflows to 0.0 while max |a_ij| is 6.3e-201: the diagonal
        # is not the spectrum, so the run refuses rather than reporting it
        factor = random_spd_factor(default_rng(3)) * 1e-100
        a = SymMatrix.from_dense(factor.T @ factor)
        assert off_norm(a) == 0.0 and np.max(np.abs(a.to_dense() - np.diag(a.diagonal()))) > 0.0
        with pytest.raises(ValueError, match="S\\^2 underflows to 0"):
            run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR)
        with pytest.raises(ValueError, match="S\\^2 underflows to 0"):
            solve_factored(factor, STANDARD_SIGNS, PAR_ANCHOR)

    def test_underflowed_off_norm_below_the_threshold_stays_converged(self):
        dense = np.full((4, 4), 1e-170)
        np.fill_diagonal(dense, 1.0)
        a = SymMatrix.from_dense(dense)
        assert off_norm(a) == 0.0
        result = run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR)
        assert result.report.converged and result.report.cycles_executed == 0
        assert result.diagonalized == a and np.array_equal(result.transform, np.eye(4))
        # tol = 0 leaves no room for a nonzero off-diagonal entry
        with pytest.raises(ValueError, match="S\\^2 underflows to 0"):
            run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR, tol=0.0)

    def test_zero_tol_sweeps_to_an_exact_zero_off_norm(self):
        a, _ = spd_matrix(default_rng(21))
        report = run_j_jacobi(a, STANDARD_SIGNS, COLUMN, tol=0.0).report
        assert report.converged and report.cycles_executed > 0
        assert report.cycle_off_norms[-1] == 0.0

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
        result = run_capped(3, a, STANDARD_SIGNS, ENTRY[13], tol=1e-13)
        dense = a.to_dense()
        for step in result.report.steps[:6]:
            i0, j0 = step.pivot[0] - 1, step.pivot[1] - 1
            f = step_transform(dense, STANDARD_SIGNS, *step.pivot)
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

    def test_only_rotations_keep_the_decrement_identity(self):
        """``verify_step_identities`` reads a J-Jacobi report: a rotation-only run passes, and a
        hyperbolic step, which need not lower S^2 by its squared pivot, fails it."""
        a, _ = spd_matrix(default_rng(26))
        assert verify_step_identities(run_j_jacobi(a, (1, 1, 1, 1), COLUMN).report) < 1e-15
        for signs in (STANDARD_SIGNS, (1, -1, 1, -1)):
            with pytest.raises(AssertionError, match="step decrement identity violated"):
                verify_step_identities(run_j_jacobi(a, signs, COLUMN).report)

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
        _, vecs, _ = solve_factored(factor, STANDARD_SIGNS, COLUMN)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_rejects_singular_factor(self):
        singular = np.zeros((4, 4))
        with pytest.raises(IllConditionedError):
            solve_factored(singular, STANDARD_SIGNS, COLUMN)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_factor(self, bad):
        factor = random_spd_factor(default_rng(34))
        factor[1, 2] = bad
        with pytest.raises(ValueError, match="factor entries must be finite") as info:
            solve_factored(factor, STANDARD_SIGNS, COLUMN)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("factor, signs, ordering", [
        (random_spd_factor(default_rng(3)) + np.eye(4, k=1) * 0.5j, STANDARD_SIGNS, COLUMN),
        (np.array([["1", "0"], ["0", "1"]]), (1, -1), PAIR),
        (np.array([["2", 0.0], [0.0, 1.0]], dtype=object), (1, -1), PAIR),
    ], ids=["complex", "text", "object-text"])
    def test_rejects_complex_and_text_factors(self, factor, signs, ordering):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no ComplexWarning on the way
            with pytest.raises(ValueError, match="factor entries must be real numbers"):
                solve_factored(factor, signs, ordering)

    def test_rejects_a_longdouble_factor_beyond_the_float_range(self):
        factor = np.eye(2, dtype=np.longdouble) * np.longdouble("1e400")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(ValueError, match="factor entries must be finite"):
                solve_factored(factor, (1, -1), PAIR)

    def test_rejects_a_factor_whose_square_overflows(self):
        # entries near 1e160: L^T L would overflow, and numpy would warn while forming it
        factor = random_spd_factor(default_rng(3)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="factor too large") as info:
                solve_factored(factor, STANDARD_SIGNS, COLUMN)
            assert type(info.value) is ValueError

    def test_largest_singular_value_limit_is_two_to_the_511(self):
        with pytest.raises(ValueError, match="factor too large"):
            solve_factored(np.eye(4) * 2.0**511, STANDARD_SIGNS, COLUMN)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eigenvalues, _, _ = solve_factored(np.eye(4) * 2.0**510, STANDARD_SIGNS, COLUMN)
        assert eigenvalues.tolist() == [2.0**1020, 2.0**1020, -(2.0**1020), -(2.0**1020)]

    def test_convergence_error_when_budget_too_small(self, monkeypatch):
        rng = default_rng(33)
        factor = random_spd_factor(rng)
        monkeypatch.setattr(jjacobi, "MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError, match="within MAX_CYCLES = 1 cycles") as info:
            solve_factored(factor, STANDARD_SIGNS, COLUMN)
        report = info.value.report  # the run's, for the caller to write out
        expected = run_j_jacobi(SymMatrix.from_dense(factor.T @ factor), STANDARD_SIGNS, COLUMN)
        assert (report.converged, report.cycles_executed) == (False, 1)
        assert report.cycle_off_norms == expected.report.cycle_off_norms

    def test_convergence_error_pickles_with_its_report(self, monkeypatch):
        monkeypatch.setattr(jjacobi, "MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_factored(random_spd_factor(default_rng(33)), STANDARD_SIGNS, COLUMN)
        for copied in (pickle.loads(pickle.dumps(info.value)), copy.copy(info.value)):
            assert type(copied) is ConvergenceError and str(copied) == str(info.value)
            assert copied.report.cycle_off_norms == info.value.report.cycle_off_norms


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
        a = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        report = run_j_jacobi(a, STANDARD_SIGNS, PAR_ANCHOR).report
        verdict = monitor_proof_bounds(report, 0.05)
        assert verdict.attained and verdict.cascade_ok
        assert verdict.r0 == 0 and verdict.windows_checked == 0

    @pytest.mark.parametrize("ordering", [PAR_ANCHOR, ENTRY[105]], ids=["phase 4", "phase 0"])
    def test_windows_are_those_that_fit_in_the_run(self, ordering):
        """Window r is checked when its last conclusion, step phase + 6r + 8, was run."""
        a, _ = spd_matrix(default_rng(45))
        for cycles in range(1, 6):
            report = run_capped(cycles, a, STANDARD_SIGNS, ordering, 0.0).report
            verdict = monitor_proof_bounds(report, 0.05)
            fits = [r for r in range(cycles) if verdict.phase + 6 * r + 8 <= len(report.steps)]
            assert len(report.steps) == 6 * cycles
            assert verdict.windows_checked == len(fits)

    def test_cubic_terminal_decay_on_seeded_fixtures(self):
        for seed in (51, 52, 53, 54):
            report = self.run_parallel(seed)
            ratios = cubic_decay_indicator(report)
            assert ratios, "run never entered the terminal phase"
            assert all(r >= 3.0 for r in ratios), ratios
