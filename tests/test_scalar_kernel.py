"""The scalar packed kernel behind run_cycles, run_j_jacobi and run_parallel_cycle."""

import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest

import cyclic_jacobi.core as coremod
import cyclic_jacobi.driver as drivermod
import cyclic_jacobi.jjacobi as jjacobimod
from cyclic_jacobi.classification import (
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    anchor_variants,
    catalog,
)
from cyclic_jacobi.cli import main
from cyclic_jacobi.core import (
    SymMatrix,
    _off_norm_packed,
    _rotation_params,
    _step_off_norms,
    format_matrix,
    off_norm,
    rotation_for_pivot,
)
from cyclic_jacobi.driver import (
    IDENTITY_RTOL,
    MONOTONICITY_RTOL,
    OFF_NORM_FLOOR,
    StepRecord,
    SweepReport,
    _batch_rotations,
    batch_sweep,
    default_rng,
    random_spd_factor,
    random_symmetric,
    random_symmetric_batch,
    run_cycles,
    run_parallel_cycle,
    verify_cycle_monotonicity,
    verify_step_identities,
)
from cyclic_jacobi.jjacobi import (
    HyperbolicBreakdownError,
    _hyperbolic_params,
    run_j_jacobi,
    solve_factored,
)
from cyclic_jacobi.orderings import enumerate_orderings, make_ordering
from oracles import eager_steps, pin_12_34, replayed_transform

ENTRY = {e.index: e.ordering for e in catalog()}
COLUMN = ENTRY[1]
SUBNORMAL = 2.0**-1074
SIGN_PATTERNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, 1, 1, 1), (1, -1, -1, -1))

# sha256 of every output of run_cycles, run_j_jacobi and solve_factored on the
# inputs of scalar_path_digest(), recorded when both kernels moved to the
# IEEE-only tangent (sqrt, not hypot) and to applying every step, and the
# scalar S^2 to the batch kernel's summation order (n >= 5).
SCALAR_PATH_DIGEST = "263821392b4b36a812854244e609f82bcfb7d64233d87e4658d83fb9b5dde8cd"


def _row_major(n):
    return make_ordering([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def scalar_path_digest():
    """sha256 over the step records, norms and final matrices of the m=1 paths.

    run_cycles: all 720 n=4 orderings on a seeded batch; matrices scaled to
    1e-200, 1e-140 and 1e150; diagonal ties; pinned zero pivots; a subnormal
    pivot; n=3 and n=5 runs (the n=5 off-norm has ten terms, which
    ``np.sum`` would add pairwise).  run_j_jacobi and solve_factored: four
    sign patterns over a spread of orderings, the 1e-160 and subnormal
    hyperbolic pivots, and n=3 and n=5 runs with mixed signs.
    """
    digest = hashlib.sha256()

    def floats(values):
        digest.update(np.asarray(values, dtype=float).tobytes())

    def feed_cycles(dense, ordering, cycles):
        final, report = run_cycles(SymMatrix.from_dense(dense), ordering, cycles)
        for st in report.steps:
            digest.update(repr(st.pivots).encode())
            floats([*st.values, *st.angles, st.s_before, st.s_after])
        floats(report.cycle_off_norms)
        digest.update(repr(report.cycles_executed).encode())
        floats(final.to_dense())

    def feed_j(result):
        report = result.report
        for st in report.steps:
            digest.update(repr((st.pivots[0], st.kind)).encode())
            floats([st.values[0], st.angles[0], st.tanh, st.s_before, st.s_after])
        floats(report.cycle_off_norms)
        floats(report.angle_envelope)
        digest.update(repr((report.converged, report.cycles_executed)).encode())
        floats([report.initial_norm])
        floats(result.transform)
        floats(result.diagonalized.to_dense())

    rng = default_rng(4242)
    orderings = list(enumerate_orderings(4))
    plain = random_symmetric_batch(rng, 120)
    for k, ordering in enumerate(orderings):
        feed_cycles(plain[k % 120], ordering, 6)
    spread = orderings[::45]
    pinned = pin_12_34(random_symmetric_batch(rng, 16))
    tied = random_symmetric_batch(rng, 16)
    tied[:, range(4), range(4)] = 0.5
    subnormal = random_symmetric_batch(rng, 16)
    subnormal[:, 0, 1] = subnormal[:, 1, 0] = SUBNORMAL
    for k, ordering in enumerate(spread):
        for scale in (1e-200, 1e-140, 1e150):
            feed_cycles(plain[k] * scale, ordering, 8)
        feed_cycles(pinned[k], ordering, 8)
        feed_cycles(tied[k], ordering, 8)
        feed_cycles(subnormal[k], ordering, 8)
    for n in (3, 5):
        for dense in random_symmetric_batch(rng, 8, n=n):
            feed_cycles(dense, _row_major(n), 14)

    for signs in SIGN_PATTERNS:
        for ordering in orderings[::30]:
            factor = random_spd_factor(rng)
            a = SymMatrix.from_dense(factor.T @ factor)
            feed_j(run_j_jacobi(a, signs, ordering, tol=1e-13))
            eigenvalues, eigenvectors, result = solve_factored(factor, signs, ordering)
            feed_j(result)
            floats(eigenvalues)
            floats(eigenvectors)
        factor = random_spd_factor(rng)
        feed_j(run_j_jacobi(SymMatrix.from_dense(factor.T @ factor), signs, PAR_ANCHOR, tol=0.0))
    tiny = np.eye(4)
    tiny[0, 2] = tiny[2, 0] = 1e-160
    feed_j(run_j_jacobi(SymMatrix.from_dense(tiny), (1, 1, -1, -1), COLUMN, tol=0.0))
    sub = np.diag([2.0, 1.0, 3.0, 1.0])
    sub[0, 2] = sub[2, 0] = SUBNORMAL
    sub[1, 3] = sub[3, 1] = 0.5
    feed_j(run_j_jacobi(SymMatrix.from_dense(sub), (1, 1, -1, -1), PAR_ANCHOR, tol=0.0))
    for n, signs in ((3, (1, -1, 1)), (5, (1, 1, -1, -1, 1)), (5, (1,) * 5)):
        for _ in range(4):
            factor = random_spd_factor(rng, n=n)
            a = SymMatrix.from_dense(factor.T @ factor)
            feed_j(run_j_jacobi(a, signs, _row_major(n), tol=1e-14))
            eigenvalues, eigenvectors, result = solve_factored(factor, signs, _row_major(n))
            feed_j(result)
            floats(eigenvalues)
            floats(eigenvectors)
    return digest.hexdigest()


def test_outputs_match_recorded_digest():
    assert scalar_path_digest() == SCALAR_PATH_DIGEST


# A pivot of -5e-324 whose tangent a_ij / (a_ii - a_jj) underflows to -0.0,
# met mid-sweep on the seed-4242 batch: both kernels must still apply the
# step and store the pivot as +0.0.
UNDERFLOWING_TANGENT = (1.8541314313513022, -1.4409759882020718, -5e-324)

# (a_ii, a_jj, a_ij) at the edges of the tangent formula.
TANGENT_CASES = [
    (1.0, 2.0, 0.0), (2.0, 1.0, -0.0), (0.5, 0.5, 0.0), (0.5, 0.5, -0.0),  # zero pivots
    (0.5, 0.5, 1.0), (0.5, 0.5, -1.0), (-0.0, 0.0, 0.25), (0.0, -0.0, -0.25),  # diagonal ties
    (5e-324, 0.0, 1.0), (0.0, 5e-324, -1.0),  # tau = +-5e-324 / 2 underflows
    # tau*tau overflows
    (1.0, 0.0, 1e-155), (1e10, 0.0, -1e-150), (1e300, 0.0, 1e-5), (-1.7e308, 0.0, 0.85),
    (1.0, 0.0, 1e-310), (0.0, 1.0, -SUBNORMAL), (2.0, -1.0, SUBNORMAL),  # subnormal pivots
    UNDERFLOWING_TANGENT,
]


class TestTangentSpecification:
    """The batch kernel's c and s are bitwise those of ``core._rotation_params``."""

    def test_batch_rotations_match_rotation_params(self):
        rng = default_rng(5150)
        moderate = rng.uniform(-1.0, 1.0, size=(500, 3))
        spread = moderate * 10.0 ** rng.integers(-320, 300, size=(500, 3))
        cases = np.concatenate([np.array(TANGENT_CASES), moderate, spread])
        rotations, cs = _batch_rotations(len(cases))
        aii, ajj, aij = cases.T.copy()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rotations(aii, ajj, aij)
        for k, case in enumerate(cases.tolist()):
            c, s, _ = _rotation_params(*case)
            assert np.array([c, s, -s]).tobytes() == cs[:, k].tobytes(), case

    @pytest.mark.parametrize("special", [
        None,  # normal columns only: the fix-ups are skipped
        (1.0, 2.0, 0.0),  # zero pivot, tau = -inf
        (0.5, 0.5, 0.0),  # zero pivot on a diagonal tie, tau = 0/0
        (2.0, 1.0, -0.0),  # -0.0 pivot
        (1.0, 0.0, 1e-310),  # subnormal pivot, tau*tau overflows
        (1e300, 0.0, 1e-5),  # |tau| above 1.3e154
    ], ids=["normal", "zero-pivot", "zero-over-zero", "minus-zero-pivot", "subnormal-pivot",
            "huge-tau"])
    def test_fixups_reach_a_lone_special_column(self, special):
        # the fix-ups run for a whole call or not at all, so each edge case
        # sits alone among columns that need none, at every position
        normal = default_rng(5151).uniform(-1.0, 1.0, size=(7, 3))
        rotations, cs = _batch_rotations(len(normal))
        batches = [normal] if special is None else [
            np.concatenate([normal[:k], [special], normal[k + 1:]]) for k in range(len(normal))
        ]
        for k, cases in enumerate(batches):
            aii, ajj, aij = cases.T.copy()
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                rotations(aii, ajj, aij)
            for col, case in enumerate(cases.tolist()):
                c, s, _ = _rotation_params(*case)
                assert np.array([c, s, -s]).tobytes() == cs[:, col].tobytes(), (k, case)


class TestScalarEqualsBatch:
    """``run_cycles`` and ``batch_sweep`` share one tangent formula and one step rule."""

    def test_all_720_orderings_bitwise(self):
        rng = default_rng(4242)
        plain = random_symmetric_batch(rng, 8)
        special = random_symmetric_batch(rng, 6)
        special[0, range(4), range(4)] = 0.5  # diagonal ties
        special[1, 0, 1] = special[1, 1, 0] = special[1, 2, 3] = special[1, 3, 2] = 0.0
        special[2, 0, 1] = special[2, 1, 0] = SUBNORMAL
        special[3, 0, 0], special[3, 3, 3], special[3, 0, 3] = UNDERFLOWING_TANGENT
        special[3, 3, 0] = special[3, 0, 3]
        special[4] *= 1e-150
        special[5] *= 1e150
        mats = np.concatenate([plain, special])
        complete = stopped = 0
        for ordering in enumerate_orderings(4):
            sweep = batch_sweep(mats, ordering, 6)
            for k, dense in enumerate(mats):
                final, report = run_cycles(SymMatrix.from_dense(dense), ordering, 6)
                norms = np.array(report.cycle_off_norms)
                assert norms.tobytes() == sweep.off_norms[:norms.size, k].tobytes(), (ordering, k)
                if report.cycles_executed == 6:
                    complete += 1
                    assert final.to_dense().tobytes() == sweep.finals[k].tobytes(), (ordering, k)
                else:  # stopped once S was 0; the batch kernel sweeps on
                    stopped += 1
        assert complete > 0 and stopped > 0


class TestNonFiniteOffNorm:
    def huge(self):
        rng = default_rng(9)
        return SymMatrix.from_dense(random_symmetric_batch(rng, 1)[0] * 1e200)

    def test_run_cycles_rejects_overflowing_s2(self):
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            run_cycles(self.huge(), COLUMN, 3)

    def test_off_norm_rejects_overflowing_s2(self):
        for m in (self.huge(), self.huge().to_dense()):
            with pytest.raises(ValueError, match="S\\^2 is not finite"):
                off_norm(m)

    def test_run_j_jacobi_rejects_overflowing_s2(self):
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            run_j_jacobi(self.huge(), (1, 1, 1, 1), COLUMN)

    def test_hyperbolic_step_that_overflows_s2_is_rejected(self):
        # S^2 = 5e307 before the first step; the (1, 3) hyperbolic step has
        # cosh + |sinh| ~ 6.7, so a_12 grows to ~3.3e154 and S^2 overflows
        dense = np.eye(4)
        dense[0, 2] = dense[2, 0] = 0.999
        dense[0, 1] = dense[1, 0] = 5e153
        dense[1, 2] = dense[2, 1] = -5e153
        ordering = make_ordering([(1, 3), (2, 4), (1, 4), (2, 3), (1, 2), (3, 4)])
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            run_j_jacobi(SymMatrix.from_dense(dense), (1, 1, -1, -1), ordering, tol=0.0)

    def test_solve_command_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(format_matrix(self.huge()))
        report = tmp_path / "report.json"
        code = main([
            "solve", "--matrix", str(path), "--ordering", str(COLUMN),
            "--cycles", "3", "--report", str(report),
        ])
        assert code == 2
        assert "S^2 is not finite" in capsys.readouterr().err
        assert not report.exists()


def dense_parallel_cycle(dense, ordering):
    """Independent oracle: each commuting pair as one orthogonal Q, applied as Q^T A Q."""
    a = np.array(dense, dtype=float)
    norms = []
    for k in range(0, 6, 2):
        q = np.eye(4)
        for (i, j) in ordering.pairs[k:k + 2]:
            i0, j0 = i - 1, j - 1
            aij = a[i0, j0]
            d = a[i0, i0] - a[j0, j0]
            if aij == 0.0:
                phi = 0.0
            elif d == 0.0:
                phi = math.copysign(math.pi / 4, aij)
            else:
                phi = 0.5 * math.atan(2.0 * aij / d)
            g = np.eye(4)
            g[i0, i0] = g[j0, j0] = math.cos(phi)
            g[i0, j0] = -math.sin(phi)
            g[j0, i0] = math.sin(phi)
            q = q @ g
        a = q.T @ a @ q
        a = (a + a.T) / 2.0
        norms.append(float(np.sqrt(np.sum(a[np.triu_indices(4, k=1)] ** 2))))
    return a, norms


class TestParallelCycleOracle:
    def test_matches_dense_group_oracle_and_sequential_sweep(self):
        mats = random_symmetric_batch(default_rng(6060), 40)
        variants = anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
        assert len(variants) == 16
        for ordering in variants:
            for dense in mats:
                m = SymMatrix.from_dense(dense)
                par, report = run_parallel_cycle(m, ordering)
                oracle, norms = dense_parallel_cycle(dense, ordering)
                scale = np.linalg.norm(dense)
                assert np.linalg.norm(par.to_dense() - oracle) <= 1e-13 * scale
                got = [st.s_after for st in report.steps[1::2]]  # S after each pair
                assert got == pytest.approx(norms, rel=1e-12, abs=1e-14 * scale)
                assert verify_step_identities(report) <= IDENTITY_RTOL
                seq, _ = run_cycles(m, ordering, 1)
                assert np.array_equal(par.to_dense(), seq.to_dense())

    def test_grouped_steps_are_the_sequential_steps_bitwise(self):
        """Each pair of steps of a parallel cycle commutes and is two consecutive steps of one
        run_cycles sweep, bit for bit."""
        rng = default_rng(6061)
        mats = np.concatenate([random_symmetric_batch(rng, 12),
                               pin_12_34(random_symmetric_batch(rng, 4))])
        for ordering in anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR):
            for dense in mats:
                m = SymMatrix.from_dense(dense)
                _, par = run_parallel_cycle(m, ordering)
                _, seq = run_cycles(m, ordering, 1)
                assert len(par.steps) == len(seq.steps) == 6
                for first, second in zip(par.steps[::2], par.steps[1::2]):
                    (p,), (q,) = first.pivots, second.pivots
                    assert not set(p) & set(q)  # disjoint pivots: the rotations commute
                assert list(map(_step_bits, par.steps)) == list(map(_step_bits, seq.steps))
                assert _bits(par.cycle_off_norms) == _bits(seq.cycle_off_norms)

    def test_is_one_run_cycles_sweep_bitwise(self):
        """For all 16 variants, the matrix and the report of ``run_cycles(a, o, 1)``, field for
        field and one step per record, also where S^2 underflows to 0 and no sweep runs."""
        tiny = np.diag([1.0, 2.0, 3.0, 4.0])
        for (i, j), x in (((0, 1), 1e-170), ((0, 2), 2e-170), ((2, 3), 3e-170)):
            tiny[i, j] = tiny[j, i] = x
        mats = list(random_symmetric_batch(default_rng(6062), 8)) + [tiny]
        for ordering in anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR):
            for dense in mats:
                m = SymMatrix.from_dense(dense)
                par, par_report = run_parallel_cycle(m, ordering)
                seq, seq_report = run_cycles(m, ordering, 1)
                assert _bits(par._packed) == _bits(seq._packed)
                assert type(par_report) is type(seq_report) is SweepReport
                assert par_report._matrix is seq_report._matrix is m
                assert (par_report.ordering, par_report.cycles_requested) == (ordering, 1)
                assert (seq_report.ordering, seq_report.cycles_requested) == (ordering, 1)
                assert _bits(par_report.cycle_off_norms) == _bits(seq_report.cycle_off_norms)
                assert par_report.cycles_executed == seq_report.cycles_executed
                assert [r[0] for r in par_report._records] == [r[0] for r in seq_report._records]
                assert _bits([x for r in par_report._records for x in r[1:]]) == _bits(
                    [x for r in seq_report._records for x in r[1:]])
                assert len(par_report.steps) == len(par_report._records)
                assert list(map(_step_bits, par_report.steps)) == list(
                    map(_step_bits, seq_report.steps))
        # the last run is the tiny matrix's: S^2 underflows, and no sweep runs
        assert par == m and par_report.cycle_off_norms == [0.0] and par_report.steps == []


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _step_bits(st):
    """A ``StepRecord``'s pivots and kind, and the bytes of its numbers."""
    return st.pivots, st.kind, _bits([*st.values, *st.angles, st.tanh, st.s_before, st.s_after])


class TestTransformOracle:
    """run_j_jacobi's F has the bits of the column-by-column update replayed from its steps."""

    @staticmethod
    def assert_replays(result, n):
        f = result.transform
        assert f.shape == (n, n) and f.dtype == np.float64
        assert _bits(f) == _bits(replayed_transform(n, result.report._records))

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_four_by_four_over_every_30th_ordering(self, signs):
        rng = default_rng(5150)
        for ordering in list(enumerate_orderings(4))[::30]:
            _, _, result = solve_factored(random_spd_factor(rng), signs, ordering)
            assert result.report.cycles_executed > 0
            self.assert_replays(result, 4)

    @pytest.mark.parametrize("n, signs", [
        (3, (1, -1, 1)), (3, (1, 1, 1)), (5, (1, 1, -1, -1, 1)), (5, (1, -1, 1, -1, -1)),
    ])
    def test_three_and_five(self, n, signs):
        rng = default_rng(5160 + n)
        for _ in range(4):
            factor = random_spd_factor(rng, n=n)
            _, _, result = solve_factored(factor, signs, _row_major(n))
            assert result.report.cycles_executed > 0
            self.assert_replays(result, n)


class _CountingMath:
    """``math`` with its ``tanh`` calls counted."""

    def __init__(self):
        self.tanh_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def tanh(self, x):
        self.tanh_calls += 1
        return math.tanh(x)


class TestLazySteps:
    """Reports build their step objects and angle envelope when first read, and only then."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Count the step objects built through ``driver.StepRecord``, the one step type."""
        counts = {StepRecord: 0}

        def counting(*args):
            counts[StepRecord] += 1
            return StepRecord(*args)

        monkeypatch.setattr(drivermod, "StepRecord", counting)
        return counts

    @pytest.fixture
    def replays(self, monkeypatch):
        """The arguments of every replay, ``core._step_off_norms`` as ``driver`` calls it."""
        calls = []

        def counting_replay(*args):
            calls.append(args)
            return _step_off_norms(*args)

        monkeypatch.setattr(drivermod, "_step_off_norms", counting_replay)
        return calls

    @pytest.mark.parametrize("run", [
        lambda m, f: run_cycles(m, COLUMN, 10)[1],
        lambda m, f: run_parallel_cycle(m, PAR_ANCHOR)[1],
        lambda m, f: solve_factored(f, (1, 1, -1, -1), PAR_ANCHOR)[2].report,
    ], ids=["run_cycles", "run_parallel_cycle", "solve_factored"])
    def test_steps_are_built_once_on_first_read(self, built, run):
        rng = default_rng(71)
        report = run(random_symmetric(rng), random_spd_factor(rng))
        assert set(built.values()) == {0}
        steps = report.steps
        assert len(steps) == 6 * report.cycles_executed > 0
        assert all(type(st) is StepRecord for st in steps)
        assert built[StepRecord] == len(steps)
        assert report.steps is steps
        assert built[StepRecord] == len(steps)

    def test_solvers_that_never_read_steps_build_none(self, built):
        rng = default_rng(72)
        m, factor = random_symmetric(rng), random_spd_factor(rng)
        run_cycles(m, COLUMN, 3)
        solve_factored(factor, (1, 1, -1, -1), PAR_ANCHOR)
        run_j_jacobi(SymMatrix.from_dense(factor.T @ factor), (1, -1, 1, -1), COLUMN)
        assert set(built.values()) == {0}

    def test_s2_checks_build_no_steps(self, built):
        """The S^2 checks replay the records of any single-matrix report, not its step objects."""
        rng = default_rng(74)
        m, factor = random_symmetric(rng), random_spd_factor(rng)
        reports = [run_cycles(m, COLUMN, 3)[1], run_parallel_cycle(m, PAR_ANCHOR)[1],
                   solve_factored(factor, (1, 1, 1, 1), PAR_ANCHOR)[2].report]
        for report in reports:
            assert verify_step_identities(report) <= IDENTITY_RTOL
        assert set(built.values()) == {0}

    @pytest.fixture
    def counting_math(self, monkeypatch):
        """The ``math`` that ``jjacobi`` sees, counting its ``tanh`` calls."""
        counting = _CountingMath()
        monkeypatch.setattr(jjacobimod, "math", counting)
        return counting

    def test_angle_envelope_is_built_once_on_first_read(self, counting_math):
        signs = (1, 1, -1, -1)
        report = solve_factored(random_spd_factor(default_rng(73)), signs, PAR_ANCHOR)[2].report
        assert counting_math.tanh_calls == 0
        envelope = report.angle_envelope
        hyperbolic = sum(signs[i - 1] != signs[j - 1] for (i, j), *_ in report._records)
        assert len(envelope) == report.cycles_executed > 0 and hyperbolic > 0
        assert counting_math.tanh_calls == hyperbolic
        assert report.angle_envelope is envelope
        assert counting_math.tanh_calls == hyperbolic

    def test_jsolve_reads_the_envelope_without_steps_or_a_replay(
        self, built, counting_math, replays, tmp_path
    ):
        ell = random_spd_factor(default_rng(75))
        factor, report = tmp_path / "factor.txt", tmp_path / "report.json"
        factor.write_text("".join(" ".join(map(repr, row)) + "\n" for row in ell.tolist()))
        code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1", "--ordering",
                     str(PAR_ANCHOR), "--report", str(report)])
        assert code == 0
        envelope = json.loads(report.read_text())["angle_envelope"]
        assert len(envelope) > 1 and max(envelope) > 0.0
        assert counting_math.tanh_calls > 0
        assert set(built.values()) == {0} and replays == []

    def test_a_report_replays_at_most_once(self, built, replays):
        """Steps, the S^2 checks and the monitor read one replay, in any order of reading."""
        rng = default_rng(76)
        m, factor = random_symmetric(rng), random_spd_factor(rng)
        for report in (run_cycles(m, COLUMN, 3)[1], run_parallel_cycle(m, PAR_ANCHOR)[1]):
            del replays[:]
            steps = report.steps
            assert verify_step_identities(report) <= IDENTITY_RTOL
            assert report.steps is steps and len(replays) == 1
            assert replays[0][0] is report._matrix and replays[0][1] is report._records
        report = solve_factored(factor, (1, 1, -1, -1), PAR_ANCHOR)[2].report
        del replays[:]
        built[StepRecord] = 0
        drivermod._report_checks(report)  # hyperbolic steps keep neither check; only read
        assert built[StepRecord] == 0
        assert jjacobimod.monitor_proof_bounds(report, 0.05).windows_checked > 0
        assert built[StepRecord] == len(report.steps) > 0 and len(replays) == 1
        assert report._step_norms == [report.cycle_off_norms[0]] + [
            st.s_after for st in report.steps]

    def test_solve_command_replays_once(self, built, replays, tmp_path):
        matrix, report = tmp_path / "a.txt", tmp_path / "report.json"
        matrix.write_text(format_matrix(random_symmetric(default_rng(77))))
        code = main(["solve", "--matrix", str(matrix), "--ordering", str(COLUMN),
                     "--cycles", "3", "--report", str(report)])
        assert code == 0
        assert len(json.loads(report.read_text())["steps"]) == built[StepRecord] == 18
        assert len(replays) == 1

    @pytest.mark.parametrize("source", ["--A", "--L"])
    def test_jsolve_monitor_replays_once(self, built, replays, tmp_path, source):
        ell = random_spd_factor(default_rng(78))
        path, report = tmp_path / "input.txt", tmp_path / "report.json"
        dense = ell.T @ ell if source == "--A" else ell
        path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in dense.tolist()))
        code = main(["jsolve", source, str(path), "--J", "+1 +1 -1 -1", "--ordering",
                     str(PAR_ANCHOR), "--monitor", "0.05", "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["monitor"]["windows_checked"] > 0
        assert built[StepRecord] > 0 and len(replays) == 1

    def test_solvers_never_compute_the_angle_envelope(self, counting_math):
        rng = default_rng(74)
        for signs in SIGN_PATTERNS:
            factor = random_spd_factor(rng)
            solve_factored(factor, signs, PAR_ANCHOR)
            solve_factored(factor, signs, COLUMN)
        assert counting_math.tanh_calls == 0


class TestDimensions:
    """n from 2 to ``core.MAX_DIM`` = 16 through both single-matrix drivers and the batch kernel."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_run_cycles_diagonalizes(self, n):
        dense = random_symmetric_batch(default_rng(800 + n), 1, n=n)[0]
        final, report = run_cycles(SymMatrix.from_dense(dense), _row_major(n), 12)
        scale = np.linalg.norm(dense)
        assert report.cycle_off_norms[-1] <= 1e-14 * scale
        assert np.allclose(
            np.sort(final.diagonal()), np.linalg.eigvalsh(dense), rtol=0.0, atol=1e-13 * scale
        )
        assert verify_step_identities(report) <= IDENTITY_RTOL
        verify_cycle_monotonicity(report)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_run_j_jacobi_with_equal_signs_diagonalizes(self, n):
        a = SymMatrix.from_dense(random_symmetric_batch(default_rng(900 + n), 1, n)[0])
        dense = a.to_dense()
        scale = np.linalg.norm(dense)
        result = run_j_jacobi(a, (1,) * n, _row_major(n), tol=1e-14)
        report = result.report
        assert report.converged
        assert report.angle_envelope == [0.0] * report.cycles_executed
        diag = result.diagonalized.diagonal()
        assert np.allclose(np.sort(diag), np.linalg.eigvalsh(dense), rtol=0.0, atol=1e-13 * scale)
        f = result.transform
        assert np.allclose(f.T @ f, np.eye(n), rtol=0.0, atol=1e-13)
        assert np.allclose(f.T @ dense @ f, np.diag(diag), rtol=0.0, atol=1e-12 * scale)
        assert verify_step_identities(report) <= IDENTITY_RTOL
        verify_cycle_monotonicity(report)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_off_norm_has_the_kernels_bits(self, n):
        # for n >= 5 a pairwise sum (np.sum) differs in the last bits on some of these
        mats = random_symmetric_batch(default_rng(600 + n), 64, n=n)
        ordering = _row_major(n)
        sweep = batch_sweep(mats, ordering, 1)
        for k, dense in enumerate(mats):
            m = SymMatrix.from_dense(dense)
            final, report = run_cycles(m, ordering, 1)
            s0, s1 = report.cycle_off_norms
            got = np.array([off_norm(m), off_norm(dense), off_norm(final)]).tobytes()
            assert got == np.array([s0, s0, s1]).tobytes() == sweep.off_norms[[0, 0, 1], k].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_batch_sweep_diagonalizes_each_matrix_as_alone(self, n):
        mats = random_symmetric_batch(default_rng(700 + n), 4, n=n)
        mats[1] = np.diag(np.arange(1.0, n + 1.0))  # retires before the first sweep
        ordering = _row_major(n)
        sweep = batch_sweep(mats, ordering, 12)
        for k, dense in enumerate(mats):
            scale = np.linalg.norm(dense)
            assert np.allclose(
                np.sort(sweep.finals[k].diagonal()), np.linalg.eigvalsh(dense),
                rtol=0.0, atol=1e-13 * scale,
            )
            alone = batch_sweep(dense[None], ordering, 12)
            assert sweep.off_norms[:, k].tobytes() == alone.off_norms[:, 0].tobytes()
            assert sweep.finals[k].tobytes() == alone.finals[0].tobytes()
            # run_cycles stops once S is 0: its norms are a prefix, its
            # final matrix that of the batch swept as many cycles
            final, report = run_cycles(SymMatrix.from_dense(dense), ordering, 12)
            norms = np.array(report.cycle_off_norms)
            assert norms.tobytes() == sweep.off_norms[:norms.size, k].tobytes()
            short = batch_sweep(mats, ordering, report.cycles_executed)
            assert final.to_dense().tobytes() == short.finals[k].tobytes()
        assert sweep.identity_violation <= IDENTITY_RTOL
        assert sweep.monotonicity_excess <= MONOTONICITY_RTOL


def _assert_steps_match(steps, expected):
    """The ``StepRecord`` steps of a report against ``eager_steps``, one to one, bit for bit."""
    assert len(steps) == len(expected) > 0
    for st, (pair, _, value, angle, before, after) in zip(steps, expected):
        assert st.pivots == (pair,)
        assert _bits([*st.values, *st.angles, st.s_before, st.s_after]) == _bits(
            [value, angle, before, after])


def _boundaries(expected, per_cycle, initial):
    return [initial] + [after for *_, after in expected[per_cycle - 1::per_cycle]]


class TestEagerSweepOracle:
    """Steps rebuilt on read are bitwise those of a sweep that sums S after every step."""

    def test_run_cycles(self):
        rng = default_rng(9090)
        plain = random_symmetric_batch(rng, 30)
        orderings = list(enumerate_orderings(4))[::24]
        stopped = 0
        for k, ordering in enumerate(orderings):
            for dense in (plain[k], plain[k] * 1e-140):  # the scaled runs stop at the floor
                m = SymMatrix.from_dense(dense)
                _, report = run_cycles(m, ordering, 8)
                expected = eager_steps(m, ordering, report.cycles_executed)
                _assert_steps_match(report.steps, expected)
                assert _bits(report.cycle_off_norms) == _bits(
                    _boundaries(expected, 6, off_norm(m)))
                if report.cycles_executed < 8:
                    stopped += 1
                    assert report.cycle_off_norms[-1] < OFF_NORM_FLOOR
        assert stopped >= len(orderings)

    def test_run_parallel_cycle(self):
        mats = random_symmetric_batch(default_rng(9091), 4)
        for ordering in anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR):
            for dense in mats:
                m = SymMatrix.from_dense(dense)
                _, report = run_parallel_cycle(m, ordering)
                expected = eager_steps(m, ordering, 1)
                assert len(report.steps) == 6
                _assert_steps_match(report.steps, expected)
                assert _bits(report.cycle_off_norms) == _bits(
                    _boundaries(expected, 6, off_norm(m)))

    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    def test_run_j_jacobi(self, signs):
        rng = default_rng(9092)
        for ordering in list(enumerate_orderings(4))[::40] + [PAR_ANCHOR]:
            factor = random_spd_factor(rng)
            m = SymMatrix.from_dense(factor.T @ factor)
            report = run_j_jacobi(m, signs, ordering, tol=1e-13).report
            expected = eager_steps(m, ordering, report.cycles_executed, signs)
            assert len(report.steps) == len(expected) > 0
            for st, (pair, hyperbolic, value, angle, before, after) in zip(report.steps, expected):
                assert (st.pivots, st.kind) == (
                    (pair,), "hyperbolic" if hyperbolic else "trigonometric")
                tanh = abs(math.tanh(angle)) if hyperbolic else 0.0
                assert _bits([*st.values, *st.angles, st.tanh, st.s_before, st.s_after]) == _bits(
                    [value, angle, tanh, before, after])
            assert _bits(report.cycle_off_norms) == _bits(_boundaries(expected, 6, off_norm(m)))


class TestSweepGrowthGuard:
    """The sweep sums S once; a bound on its growth decides when the steps are replayed."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """Every call of ``_off_norm_packed`` through ``core``, ``driver`` and ``jjacobi``."""
        calls = []

        def counting(e, n_off):
            calls.append(n_off)
            return _off_norm_packed(e, n_off)

        for module in (coremod, drivermod, jjacobimod):
            monkeypatch.setattr(module, "_off_norm_packed", counting)
        return calls

    def test_one_sum_per_sweep_and_one_for_the_initial_s(self, sums):
        rng = default_rng(9093)
        m, factor = random_symmetric(rng), random_spd_factor(rng)
        a = SymMatrix.from_dense(factor.T @ factor)
        runs = [lambda: run_cycles(m, COLUMN, 10)[1], lambda: run_parallel_cycle(m, PAR_ANCHOR)[1]]
        runs += [lambda signs=signs: run_j_jacobi(a, signs, PAR_ANCHOR).report
                 for signs in SIGN_PATTERNS]
        for run in runs:
            del sums[:]
            report = run()
            assert len(sums) == report.cycles_executed + 1 > 1
            del sums[:]
            steps = report.steps  # the replay sums S once more, and after every step
            assert len(sums) == len(report._records) + 1 >= len(steps) + 1

    @staticmethod
    def near_max(count):
        """Seeded matrices with S^2 within 1e-15 of the float maximum and a tiny a_12.

        The first step of ``COLUMN`` barely lowers S, so its rounding can carry S^2
        past the maximum; the later steps remove large pivots, so S^2 is finite
        again at the end of the sweep.
        """
        rng = default_rng(78)
        for _ in range(count):
            dense = random_symmetric_batch(rng, 1)[0]
            dense[0, 1] = dense[1, 0] = dense[0, 1] * 1e-9
            s2 = sum(dense[i, j] ** 2 for i in range(4) for j in range(i + 1, 4))
            dense *= math.sqrt(sys.float_info.max * (1.0 - rng.uniform(0.0, 1e-15))) / math.sqrt(s2)
            m = SymMatrix.from_dense(dense)
            try:
                off_norm(m)
            except ValueError:  # S^2 rounded past the maximum already
                continue
            yield m

    @staticmethod
    def outcome(run):
        try:
            return run()
        except ValueError as exc:
            return str(exc)

    def test_rotations_near_the_float_maximum_raise_as_the_eager_sweep(self, monkeypatch):
        raised = caught_by_replay = 0
        for m in self.near_max(200):
            got = self.outcome(lambda: run_cycles(m, COLUMN, 2)[1])
            expected = self.outcome(lambda: eager_steps(m, COLUMN, 2))
            if isinstance(expected, str):
                assert got == expected
                raised += 1
                with monkeypatch.context() as patch:  # without the replay, the sweep ends finite
                    patch.setattr(coremod, "SWEEP_GROWTH_LIMIT", math.inf)
                    caught_by_replay += not isinstance(self.outcome(
                        lambda: run_cycles(m, COLUMN, 1)), str)
            else:
                _assert_steps_match(got.steps, expected)
        assert raised > 0 and caught_by_replay > 0

    def test_overflow_before_a_breakdown_is_reported_as_overflow(self, monkeypatch):
        # S = 1e152 is below the limit, but the (2, 3) step is close to breakdown:
        # cosh + |sinh| ~ 200 carries S^2 past the maximum, and the (2, 4) step
        # after it breaks down
        dense = np.eye(4)
        dense[1, 2] = dense[2, 1] = 1.0 - 1e-9
        dense[1, 3] = dense[3, 1] = 1e152
        m, signs = SymMatrix.from_dense(dense), (1, 1, -1, -1)
        ordering = make_ordering([(2, 3), (3, 4), (1, 2), (1, 3), (1, 4), (2, 4)])
        assert off_norm(m) < coremod.SWEEP_GROWTH_LIMIT
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            eager_steps(m, ordering, 1, signs)
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            run_j_jacobi(m, signs, ordering, tol=0.0)
        monkeypatch.setattr(coremod, "SWEEP_GROWTH_LIMIT", math.inf)
        with pytest.raises(HyperbolicBreakdownError):
            run_j_jacobi(m, signs, ordering, tol=0.0)

    @pytest.mark.parametrize("aii, ajj, aij", [
        (1.5e308, -1.5e308, 1.0),  # a_ii - a_jj overflows
        (1.5e308, 1.5e308, 1.0),  # a_ii + a_jj overflows
        (1e300, 0.0, 1e-5),  # tau*tau overflows for the rotation
        (1.0, 1.0, 1e-160),  # tau*tau overflows for the hyperbolic step
    ])
    def test_parameters_of_near_overflow_entries_raise_no_numpy_warning(self, aii, ajj, aij):
        m = SymMatrix.from_dense([[aii, aij], [aij, ajj]])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            rot = rotation_for_pivot(m, 1, 2)
            pairs = [(rot.c, rot.s)]
            # the steps of J-Jacobi at the sign pairs (1, 1) and (1, -1)
            for params in (_rotation_params, _hyperbolic_params):
                try:
                    pairs.append(params(m.entry(1, 1), m.entry(2, 2), m.entry(1, 2))[:2])
                except HyperbolicBreakdownError:
                    pass
        assert len(pairs) >= 2
        assert all(math.isfinite(c) and math.isfinite(s) for c, s in pairs)
