import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_jacobi.core import SymMatrix, annihilate, off_norm
from cyclic_jacobi.classification import (
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    anchor_variants,
    catalog,
    classify,
)
from cyclic_jacobi.driver import (
    FP_SLACK,
    IDENTITY_RTOL,
    NotParallelOrderingError,
    UNIVERSAL_BOUND,
    batch_sweep,
    campaign_cells_for_ordering,
    check_bound,
    default_rng,
    random_spd_factor,
    random_symmetric,
    random_symmetric_batch,
    run_cycles,
    run_parallel_cycle,
    verification_campaign,
    verify_cycle_monotonicity,
    verify_step_identities,
)
from cyclic_jacobi.orderings import TRANSPOSE, enumerate_orderings, make_ordering, relate

ENTRY = {e.index: e.ordering for e in catalog()}
COLUMN = ENTRY[1]

# Frozen fixture: uniform(-1, 1) draw for seed 314159, symmetrized.
SEEDED_MATRIX = [
    [0.8231052238738392, -0.5817670397476726, 0.01153527457661141, 0.6848257993309224],
    [-0.5817670397476726, 0.019673822808932373, 0.05135198062907087, -0.35686870825212513],
    [0.01153527457661141, 0.05135198062907087, 0.4085243390298481, -0.22848895551654502],
    [0.6848257993309224, -0.35686870825212513, -0.22848895551654502, 0.12790407918491264],
]
# Off-norms after each step of one column-template sweep, computed by an
# independent oracle (atan-based angle, dense congruence, no pivot zeroing).
ORACLE_STEP_NORMS = [
    0.9948727708419179,
    0.8070433331772867,
    0.806927957115969,
    0.8053258847739121,
    0.21383033536072812,
    0.21322915610427262,
    0.15713569089298624,
]


# sha256 of every output of batch_sweep on the inputs of batch_sweep_digest(),
# recorded with the dense (m, n, n) kernel that the packed kernel replaced.
BATCH_SWEEP_DIGEST = "f62cc6124214ffd381e1e90441af5d4442245c8409bc3b99e7fb404af1f87e30"

EPS = np.finfo(float).eps
SUBNORMAL = 2.0**-1074


def signed(lo, hi):
    return st.builds(lambda x, neg: -x if neg else x, st.floats(lo, hi), st.booleans())


SUBNORMALS = signed(SUBNORMAL, 2.0**-1022)
MODERATE = signed(1e-3, 1e3)


def batch_sweep_digest():
    """sha256 over off_norms, finals, identity_violation and monotonicity_excess.

    Covers all 720 n=4 orderings on a seeded batch and on one with pinned
    zeros, diagonal ties and diagonal matrices on a spread of orderings,
    and one ordering each for n=3 and n=5 run deep into underflow.
    """
    digest = hashlib.sha256()

    def feed(mats, ordering, cycles):
        sweep = batch_sweep(mats, ordering, cycles)
        stats = np.array([sweep.identity_violation, sweep.monotonicity_excess])
        for arr in (sweep.off_norms, sweep.finals, stats):
            digest.update(np.asarray(arr, dtype=float).tobytes())

    rng = default_rng(2718)
    plain = random_symmetric_batch(rng, 200)
    pinned = random_symmetric_batch(rng, 200, zero_pairs=((1, 2), (3, 4)))
    orderings = list(enumerate_orderings(4))
    for mats in (plain, pinned):
        for ordering in orderings:
            feed(mats, ordering, 4)
    tied = plain.copy()
    tied[:, range(4), range(4)] = 0.5
    tied[:20] = np.eye(4) * np.arange(1.0, 5.0)
    for ordering in orderings[::45]:
        feed(tied, ordering, 12)
    feed(random_symmetric_batch(rng, 200, n=3), make_ordering([(1, 3), (2, 3), (1, 2)]), 12)
    row5 = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    feed(random_symmetric_batch(rng, 200, n=5), make_ordering(row5), 12)
    return digest.hexdigest()


def independent_sweep_oracle(dense, ordering):
    """Textbook sweep: angle from atan of the ratio, applied as G^T A G."""
    a = np.array(dense, dtype=float)
    norms = [float(np.sqrt(np.sum(a[np.triu_indices(4, k=1)] ** 2)))]
    for (i, j) in ordering.pairs:
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
        a = g.T @ a @ g
        norms.append(float(np.sqrt(np.sum(a[np.triu_indices(4, k=1)] ** 2))))
    return a, norms


class TestRunCycles:
    def test_diagonal_is_fixed_point(self):
        m = SymMatrix.diag([1.0, 2.0, 3.0, 4.0])
        out, report = run_cycles(m, COLUMN, 1)
        assert out == m
        assert report.cycle_off_norms == [0.0]
        assert report.cycles_executed == 0  # early stop below the off-norm floor

    def test_n2_single_step_diagonalizes(self):
        m = SymMatrix.from_dense([[0.3, -0.7], [-0.7, 1.9]])
        ordering = make_ordering([(1, 2)])
        out, report = run_cycles(m, ordering, 1)
        assert off_norm(out) == 0.0
        assert report.cycles_executed == 1

    def test_matches_frozen_oracle_values(self):
        m = SymMatrix.from_dense(SEEDED_MATRIX)
        _, report = run_cycles(m, COLUMN, 1)
        got = [report.cycle_off_norms[0]] + [st.s_after for st in report.steps]
        assert got == pytest.approx(ORACLE_STEP_NORMS, rel=1e-12)
        # one serial sweep already contracts S^2 far below 27/28
        assert (got[-1] / got[0]) ** 2 <= 27.0 / 28.0

    def test_matches_live_oracle_on_fresh_seeds(self):
        rng = default_rng(99)
        for _ in range(5):
            dense = random_symmetric_batch(rng, 1)[0]
            _, report = run_cycles(SymMatrix.from_dense(dense), ENTRY[44], 2)
            _, oracle_norms = independent_sweep_oracle(dense, ENTRY[44])
            got = [report.cycle_off_norms[0]] + [st.s_after for st in report.steps[:6]]
            assert got == pytest.approx(oracle_norms, rel=1e-11)

    def test_step_identities_and_monotonicity(self):
        rng = default_rng(1234)
        m = random_symmetric(rng)
        _, report = run_cycles(m, ENTRY[13], 10)
        assert verify_step_identities(report) <= 1e-13
        verify_cycle_monotonicity(report)
        for rec in report.steps:  # per-step, up to fp representation
            assert rec.s_after <= rec.s_before * (1 + 1e-14)

    def test_diagonal_entries_converge(self):
        rng = default_rng(77)
        m = random_symmetric(rng)
        out49, _ = run_cycles(m, COLUMN, 49)
        out50, _ = run_cycles(m, COLUMN, 50)
        assert np.max(np.abs(out50.diagonal() - out49.diagonal())) < 1e-12

    def test_spectrum_preserved_over_long_runs(self):
        rng = default_rng(88)
        m = random_symmetric(rng)
        out, _ = run_cycles(m, ENTRY[105], 50)
        before = np.sort(np.linalg.eigvalsh(m.to_dense()))
        after = np.sort(np.linalg.eigvalsh(out.to_dense()))
        assert np.allclose(before, after, atol=1e-10)

    def test_dimension_mismatch(self):
        m = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            run_cycles(m, COLUMN, 1)


class TestBatchSweep:
    def test_agrees_with_scalar_path(self):
        rng = default_rng(31)
        mats = random_symmetric_batch(rng, 20)
        sweep = batch_sweep(mats, ENTRY[29], 4)
        for k in (0, 7, 19):
            _, report = run_cycles(SymMatrix.from_dense(mats[k]), ENTRY[29], 4)
            assert np.allclose(
                report.cycle_off_norms, sweep.off_norms[:, k], rtol=1e-15, atol=0.0
            )

    def test_identity_and_monotonicity_stats(self):
        rng = default_rng(32)
        mats = random_symmetric_batch(rng, 100)
        sweep = batch_sweep(mats, COLUMN, 3)
        assert sweep.identity_violation <= 1e-13
        assert sweep.monotonicity_excess <= 1e-14

    def test_outputs_match_recorded_digest(self):
        assert batch_sweep_digest() == BATCH_SWEEP_DIGEST

    def test_underflowing_tau_is_a_quarter_turn(self):
        # (a_11 - a_22) / (2 a_12) = 5e-324 / 2 rounds to 0: the step must
        # rotate by pi/4, as the scalar path does, not just zero the pivot
        sweep = batch_sweep(np.array([[[5e-324, 1.0], [1.0, 0.0]]]), make_ordering([(1, 2)]), 1)
        assert sweep.finals[0].diagonal() == pytest.approx([1.0, -1.0], rel=1e-15)
        assert sweep.finals[0, 0, 1] == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, value):
        mats = random_symmetric_batch(default_rng(33), 5)
        mats[3, 1, 2] = mats[3, 2, 1] = value
        with pytest.raises(ValueError, match="finite"):
            batch_sweep(mats, COLUMN, 2)
        with pytest.raises(ValueError, match="finite"):
            campaign_cells_for_ordering(COLUMN, mats, ("classified", "universal"))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="at least one matrix"):
            batch_sweep(np.zeros((0, 4, 4)), COLUMN, 1)

    def test_rejects_entries_whose_squares_overflow(self):
        mats = random_symmetric_batch(default_rng(34), 5) * 1e200
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            batch_sweep(mats, COLUMN, 2)
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            campaign_cells_for_ordering(COLUMN, mats, ("classified", "universal"))

    @given(
        pivot=st.one_of(SUBNORMALS, MODERATE, signed(1e200, 1e300)),
        aii=st.one_of(SUBNORMALS, MODERATE, signed(1e200, 1e300)),
        ajj=st.one_of(SUBNORMALS, MODERATE, signed(1e200, 1e300)),
    )
    @settings(max_examples=200)
    def test_one_step_matches_core_and_annihilates(self, pivot, aii, ajj):
        # n = 2: one cycle is one step, so both kernels apply the same rotation
        dense = [[aii, pivot], [pivot, ajj]]
        if not math.isfinite(pivot * pivot):
            with pytest.raises(ValueError):
                batch_sweep(np.array([dense]), make_ordering([(1, 2)]), 1)
            return
        final = batch_sweep(np.array([dense]), make_ordering([(1, 2)]), 1).finals[0]
        stepped, rot = annihilate(SymMatrix.from_dense(dense), 1, 2)
        assert final[0, 1] == final[1, 0] == 0.0
        scale = max(abs(aii), abs(ajj), abs(pivot))
        assert np.allclose(
            final.diagonal(), stepped.diagonal(), rtol=0.0,
            atol=8 * EPS * scale + 8 * SUBNORMAL * (1 + scale),
        )
        # the rotation is not skipped: the pivot is zeroed unless it sits
        # below the absolute spacing of the diagonal it is rotated against
        if rot.is_identity:
            assert abs(pivot) <= 2 * SUBNORMAL * (1 + abs(aii) + abs(ajj))
        else:
            assert stepped.entry(1, 2) == 0.0

    @given(
        off=st.lists(
            st.one_of(SUBNORMALS, MODERATE, signed(1e100, 1e150), st.just(0.0)),
            min_size=6, max_size=6,
        ),
        diag=st.lists(
            st.one_of(SUBNORMALS, MODERATE, signed(1e200, 1e300)), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_extreme_entries_sweep_cleanly(self, off, diag):
        dense = np.diag(diag)
        dense[np.triu_indices(4, k=1)] = off
        dense = np.triu(dense) + np.triu(dense, k=1).T
        sweep = batch_sweep(dense[None], ENTRY[44], 1)
        final = sweep.finals[0]
        assert np.all(np.isfinite(final))
        last_i, last_j = ENTRY[44].pairs[-1]
        assert final[last_i - 1, last_j - 1] == 0.0
        assert sweep.identity_violation <= IDENTITY_RTOL
        scale = np.max(np.abs(dense))
        before = np.linalg.eigvalsh(dense)
        after = np.linalg.eigvalsh(final)
        assert np.allclose(before, after, rtol=0.0, atol=1e-12 * scale + 1e-300)


class TestParallelCycle:
    def test_diagonal_unchanged(self):
        m = SymMatrix.diag([4.0, 3.0, 2.0, 1.0])
        out, _ = run_parallel_cycle(m, PAR_ANCHOR)
        assert out.allclose(m, rtol=0.0, atol=0.0)

    def test_matches_sequential_for_all_variants(self):
        rng = default_rng(606)
        m = random_symmetric(rng)
        for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR):
            for variant in anchor_variants(anchor):
                par, rep = run_parallel_cycle(m, variant)
                seq, _ = run_cycles(m, variant, 1)
                rel = np.linalg.norm(par.to_dense() - seq.to_dense()) / max(
                    np.linalg.norm(m.to_dense()), 1e-300
                )
                assert rel <= 1e-13
                assert verify_step_identities(rep) <= 1e-13

    def test_rejects_serial_ordering(self):
        m = SymMatrix.identity(4)
        with pytest.raises(NotParallelOrderingError):
            run_parallel_cycle(m, COLUMN)

    def test_accepts_exactly_the_anchor_variants(self):
        m = random_symmetric(default_rng(607))
        accepted = []
        for o in enumerate_orderings(4):
            expected = any(
                relate(o, anchor, {TRANSPOSE}) is not None
                for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR)
            )
            try:
                run_parallel_cycle(m, o)
            except NotParallelOrderingError:
                assert not expected, o
            else:
                assert expected, o
                accepted.append(o)
        assert len(accepted) == 16
        assert set(accepted) == set(
            anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
        )


class TestCheckBound:
    def test_serial_one_sweep_bound(self):
        rng = default_rng(404)
        record = classify(COLUMN)
        for _ in range(20):
            m = random_symmetric(rng)
            result = check_bound(m, record, 5)
            assert result.passed
            assert result.worst_ratio_sq <= 27.0 / 28.0 + FP_SLACK

    def test_parallel_shift_two_from_cycle_zero(self):
        # with the (1,2) and (3,4) entries pinned to zero, the two-sweep
        # contraction holds from the very first cycle
        rng = default_rng(405)
        mats = random_symmetric_batch(rng, 50, zero_pairs=((1, 2), (3, 4)))
        for k in range(50):
            m = SymMatrix.from_dense(mats[k])
            _, report = run_cycles(m, ENTRY[105], 3)
            s = report.cycle_off_norms
            if s[0] > 0.0:
                assert s[3] / s[0] <= (1.0 - 1e-5) + FP_SLACK

    def test_vacuous_on_diagonal(self):
        record = classify(COLUMN)
        result = check_bound(SymMatrix.diag([1.0, 2.0, 3.0, 4.0]), record, 5)
        assert result.passed
        assert result.observed_worst_ratio == 0.0

    def test_requires_enough_cycles(self):
        record = classify(ENTRY[105])
        with pytest.raises(ValueError):
            check_bound(SymMatrix.identity(4), record, 2)


class TestGenerators:
    def test_zero_pairs_pinned(self):
        rng = default_rng(9)
        mats = random_symmetric_batch(rng, 10, zero_pairs=((1, 2), (3, 4)))
        assert np.all(mats[:, 0, 1] == 0.0)
        assert np.all(mats[:, 2, 3] == 0.0)
        assert np.all(mats == mats.transpose(0, 2, 1))

    def test_spd_factor_conditioning(self):
        rng = default_rng(10)
        for _ in range(5):
            factor = random_spd_factor(rng, max_cond=100.0)
            assert np.linalg.cond(factor) <= 100.0

    @pytest.mark.parametrize("max_cond", [0.5, 1.0, -3.0, math.nan, math.inf])
    def test_spd_factor_rejects_unreachable_caps(self, max_cond):
        class NoDraws:
            def uniform(self, *args, **kwargs):
                raise AssertionError("drew a candidate before checking max_cond")

        with pytest.raises(ValueError, match="max_cond"):
            random_spd_factor(NoDraws(), max_cond=max_cond)

    def test_batch_is_reproducible(self):
        a = random_symmetric_batch(default_rng(5), 3)
        b = random_symmetric_batch(default_rng(5), 3)
        assert np.array_equal(a, b)


class TestCampaign:
    def test_small_campaign_is_clean_and_deterministic(self):
        orderings = [COLUMN, ENTRY[21], ENTRY[105]]
        rep1 = verification_campaign(11, 25, orderings)
        rep2 = verification_campaign(11, 25, orderings)
        assert rep1.total_violations == 0
        assert not rep1.falsifications
        assert rep1.identity_violation <= 1e-13
        assert [c.worst_ratio for c in rep1.cells] == [c.worst_ratio for c in rep2.cells]
        modes = {c.mode for c in rep1.cells}
        assert modes == {"classified", "universal"}

    def test_universal_bound_parameters(self):
        assert UNIVERSAL_BOUND.gamma == 1.0 - 1e-5
        assert UNIVERSAL_BOUND.tau == 3
        assert UNIVERSAL_BOUND.t0 == 1

    def test_campaign_matches_check_bound(self):
        ordering = ENTRY[44]
        record = classify(ordering)
        report = verification_campaign(13, 10, [ordering], modes=("classified",))
        cell = report.cells[0]
        rng = default_rng(13)
        mats = random_symmetric_batch(rng, 10)
        cycles = record.bound.t0 + record.bound.tau + 4
        worst = max(
            check_bound(SymMatrix.from_dense(mats[k]), record, cycles).observed_worst_ratio
            for k in range(10)
        )
        assert cell.worst_ratio == pytest.approx(worst, rel=1e-15)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            verification_campaign(1, 0, [COLUMN])
