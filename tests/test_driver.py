import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclic_jacobi.core as coremod
import cyclic_jacobi.driver as drivermod
from cyclic_jacobi.cli import main
from cyclic_jacobi.core import SymMatrix, annihilate, format_matrix, off_norm
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
    UNIVERSAL_BOUND,
    _window_stats,
    batch_sweep,
    campaign_cells_for_ordering,
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
from cyclic_jacobi.orderings import TRANSPOSE, enumerate_orderings, make_ordering, permute, relate
from oracles import pin_12_34, relabeled, spectrum

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
# recorded when both kernels moved to the IEEE-only tangent (sqrt, not hypot).
BATCH_SWEEP_DIGEST = "1452d60263f1623669605696f3a8508015bd4f8fd475fdd57e83287c727d0aa9"

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
    pinned = pin_12_34(random_symmetric_batch(rng, 200))
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
        m = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        out, report = run_cycles(m, COLUMN, 1)
        assert out == m
        assert report.cycle_off_norms == [0.0]
        assert report.cycles_executed == 0  # early stop: no bit would change

    @pytest.mark.parametrize("a12", [1.6e-162, 1.5e-162])
    def test_sweeps_whatever_s_reads(self, a12):
        # a12^2 rounds to the smallest subnormal 2^-1074 at 1.6e-162 and to 0
        # at 1.5e-162; the stop rule reads the entries, so both runs sweep
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        dense[0, 1] = dense[1, 0] = a12
        out, report = run_cycles(SymMatrix.from_dense(dense), COLUMN, 3)
        assert report.cycles_executed == 1  # the sweep settles the bits
        assert (report.cycle_off_norms[0] > 0.0) == (a12 == 1.6e-162)
        assert out.to_dense().tobytes() == np.diag([1.0, 2.0, 3.0, 4.0]).tobytes()

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
        m = SymMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            run_cycles(m, COLUMN, 1)
        with pytest.raises(ValueError, match="does not match ordering n=4"):
            batch_sweep(m.to_dense()[None], COLUMN, 1)
        with pytest.raises(ValueError, match="parallel execution is defined for n=4"):
            run_parallel_cycle(m, make_ordering([(1, 2), (1, 3), (2, 3)]))
        with pytest.raises(ValueError, match="matrix dimension 3 does not match ordering n=4"):
            run_parallel_cycle(m, PAR_ANCHOR)

    @pytest.mark.parametrize("cycles", [2.5, math.nan, -1])
    def test_rejects_a_cycle_count_that_is_not_a_nonnegative_integer(self, cycles):
        m = random_symmetric(default_rng(3))
        with pytest.raises(ValueError, match="cycles must be nonnegative and an integer"):
            run_cycles(m, COLUMN, cycles)
        with pytest.raises(ValueError, match="cycles must be nonnegative and an integer"):
            batch_sweep(m.to_dense()[None], COLUMN, cycles)


def wrap_rotations(monkeypatch, mutate=lambda cs: None):
    """Wrap ``driver._batch_rotations``: count its builds and the steps their rotations run,
    and apply ``mutate(cs)`` to every step's (c, s, -s) before it rotates."""
    counts = {"builds": 0, "steps": 0}
    build = drivermod._batch_rotations

    def wrapped(width):
        counts["builds"] += 1
        rotations, cs = build(width)

        def step(*rows):
            counts["steps"] += 1
            rotations(*rows)
            mutate(cs)

        return step, cs

    monkeypatch.setattr(drivermod, "_batch_rotations", wrapped)
    return counts


MUTATIONS = {
    "flipped-s": lambda cs: np.negative(cs[1:], out=cs[1:]),
    "skipped-rotation": lambda cs: (cs[0].fill(1.0), cs[1:].fill(0.0)),
    "scaled-c": lambda cs: np.multiply(cs[0], 1.0 + 1e-4, out=cs[0]),
}


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

    def test_rejects_complex_entries(self):
        # a cast to float would keep the real parts, whose S is 0, or parse the text
        for mats in (
            np.array([[[1.0, 0.5j], [0.5j, 2.0]]]),
            np.array([[[1.0, 0.5j], [0.5j, 2.0]]], dtype=object),
            np.array([[["1", "0.5"], ["0.5", "2"]]], dtype=object),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no ComplexWarning on the way
                with pytest.raises(ValueError, match="must be real numbers"):
                    batch_sweep(mats, make_ordering([(1, 2)]), 1)

    @pytest.mark.parametrize("mats", [
        np.array([[[1, 10**400], [10**400, 1]]], dtype=object),
        np.array([[[1, 2], [2, 1]]], dtype=np.longdouble) * np.longdouble("1e400"),
    ], ids=["int", "longdouble"])
    def test_rejects_entries_beyond_the_float_range(self, mats):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                batch_sweep(mats, make_ordering([(1, 2)]), 1)

    def test_retired_matrices_keep_the_bits_they_get_alone(self):
        # retirement must only skip work: a diagonal matrix retires at once;
        # a -0.0 on the diagonal must still be swept to +0.0; entries near
        # 1e-200 square to S = 0 yet still rotate
        diagonal = np.diag([1.0, 2.0, 3.0, 4.0])
        negative_zero = np.diag([-0.0, 2.0, 3.0, 4.0])
        tiny = np.diag([1.0, 2.0, 3.0, 4.0])
        tiny[np.triu_indices(4, k=1)] = 1e-200 * np.arange(1.0, 7.0)
        tiny = np.triu(tiny) + np.triu(tiny, k=1).T
        mats = np.concatenate(
            [np.stack([diagonal, negative_zero, tiny]), random_symmetric_batch(default_rng(35), 20)]
        )
        sweep = batch_sweep(mats, COLUMN, 8)
        alone = [batch_sweep(mats[k:k + 1], COLUMN, 8) for k in range(len(mats))]
        for k, single in enumerate(alone):
            assert sweep.off_norms[:, k].tobytes() == single.off_norms[:, 0].tobytes(), k
            assert sweep.finals[k].tobytes() == single.finals[0].tobytes(), k
        assert sweep.identity_violation == max(single.identity_violation for single in alone)
        assert sweep.monotonicity_excess == max(single.monotonicity_excess for single in alone)
        assert sweep.finals[1, 0, 0] == 0.0 and not np.signbit(sweep.finals[1, 0, 0])
        assert sweep.off_norms[0, 2] == 0.0
        assert sweep.finals[2].tobytes() != tiny.tobytes()

    def test_all_diagonal_batch_runs_no_step(self, monkeypatch):
        counts = wrap_rotations(monkeypatch)
        mats = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([0.0, 0.0, 5.0, -1.0])])
        sweep = batch_sweep(mats, COLUMN, 8)
        assert counts == {"builds": 1, "steps": 0}
        assert not sweep.off_norms.any()
        assert sweep.finals.tobytes() == mats.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 200])
    def test_one_sweeper_stops_at_the_last_retirement(self, monkeypatch, m):
        # a random matrix, one that retires after one sweep (its -0.0 turns
        # +0.0), a diagonal one that retires at once, then more random ones
        cycles, steps = 12, len(COLUMN.pairs)
        negative_zero, diagonal = np.diag([-0.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0, 3.0, 4.0])
        rng = default_rng(36)
        pool = np.concatenate([
            random_symmetric_batch(rng, 1), np.stack([negative_zero, diagonal]),
            random_symmetric_batch(rng, 197),
        ])
        mats = pool[:m]
        counts = wrap_rotations(monkeypatch)
        alone, sweeps_alone = [], []
        for k in range(m):
            counts["steps"] = 0
            alone.append(batch_sweep(mats[k:k + 1], COLUMN, cycles))
            sweeps_alone.append(counts["steps"] // steps)
        counts.update(builds=0, steps=0)
        sweep = batch_sweep(mats, COLUMN, cycles)
        assert counts == {"builds": 1, "steps": steps * max(sweeps_alone)}
        assert max(sweeps_alone) < cycles
        assert len(set(sweeps_alone)) >= min(m, 3)
        for k, single in enumerate(alone):
            assert sweep.off_norms[:, k].tobytes() == single.off_norms[:, 0].tobytes(), k
            assert sweep.finals[k].tobytes() == single.finals[0].tobytes(), k
        assert sweep.identity_violation == max(single.identity_violation for single in alone)
        assert sweep.monotonicity_excess == max(single.monotonicity_excess for single in alone)

    def test_rejects_dimension_above_16(self):
        ordering = make_ordering([(r, c) for r in range(1, 18) for c in range(r + 1, 18)])
        with pytest.raises(ValueError, match=r"dimension must be in \[2, 16\], got 17"):
            batch_sweep(np.eye(17)[None], ordering, 1)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3), (1, 2, 4, 4)])
    def test_rejects_a_stack_that_is_not_m_n_n(self, shape):
        with pytest.raises(ValueError, match=r"expected a \(m, n, n\) stack"):
            batch_sweep(np.zeros(shape), COLUMN, 1)

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
        assert final.tobytes() == stepped.to_dense().tobytes()
        assert final[0, 1] == final[1, 0] == 0.0
        scale = max(abs(aii), abs(ajj), abs(pivot))
        assert np.allclose(
            final.diagonal(), stepped.diagonal(), rtol=0.0,
            atol=8 * EPS * scale + 8 * SUBNORMAL * (1 + scale),
        )
        # the rotation is not skipped: the pivot is zeroed unless it sits
        # below the absolute spacing of the diagonal it is rotated against
        if rot.s == 0.0:
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
    # LAPACK's eigvalsh of these inputs lost digits beside their subnormal entries
    @example(
        off=[0, 8.152131911864144e149, 8.426543541939689e148, 2.2250738585072014e-308, 0, 1e-3],
        diag=[2, 7.14071910106098e-309, 7.14071910106098e-309, 2],
    )
    @example(
        off=[0, 2.316864326517534e149, 2.2250738585072014e-308, 0, 0.00390625, 1],
        diag=[71, 71, 1.642276094363543e-308, 5e-324],
    )
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
        assert np.allclose(
            spectrum(dense), spectrum(final), rtol=0.0, atol=1e-12 * scale + 1e-300
        )


class TestKernelMutations:
    """Deliberately wrong rotations in the batch kernel must fail a check."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_scalar_equals_batch_catches_it(self, monkeypatch, mutation):
        mats = random_symmetric_batch(default_rng(37), 8)
        wrap_rotations(monkeypatch, MUTATIONS[mutation])
        sweep = batch_sweep(mats, COLUMN, 3)
        equal = [
            run_cycles(SymMatrix.from_dense(dense), COLUMN, 3)[0].to_dense().tobytes()
            == sweep.finals[k].tobytes()
            for k, dense in enumerate(mats)
        ]
        assert not any(equal)

    def test_scalar_equals_batch_catches_a_misplaced_partner(self, monkeypatch):
        mats = random_symmetric_batch(default_rng(37), 8)
        gather = drivermod._pivot_gather

        def misplaced(n, i, j):
            rows, partner, pivot = gather(n, i, j)
            if (i, j) == COLUMN.pairs[2]:  # in this one step a_k1i meets a_k2j, a_k2i meets a_k1j
                partner = partner[[1, 0, *range(2, 2 * n)]]
            return rows, partner, pivot

        monkeypatch.setattr(drivermod, "_pivot_gather", misplaced)
        sweep = batch_sweep(mats, COLUMN, 3)
        equal = [
            run_cycles(SymMatrix.from_dense(dense), COLUMN, 3)[0].to_dense().tobytes()
            == sweep.finals[k].tobytes()
            for k, dense in enumerate(mats)
        ]
        assert not any(equal)

    def test_verify_exits_numeric_on_a_scaled_cosine(self, monkeypatch, tmp_path, capsys):
        args = [
            "verify", "--seed", "6", "--samples", "4", "--orderings", "serial",
            "--bound", "classified", "--jobs", "1", "--out", str(tmp_path / "out.csv"),
        ]
        assert main(args) == 0
        wrap_rotations(monkeypatch, MUTATIONS["scaled-c"])
        assert main(args) == 3
        assert "S^2 checks failed" in capsys.readouterr().err

    def test_scalar_checks_catch_a_scaled_cosine(self, monkeypatch, tmp_path, capsys):
        # the "scaled-c" mutation, in the rotation of the single-matrix kernel
        rotation = drivermod._rotation_params

        def scaled(aii, ajj, aij):
            c, s, t = rotation(aii, ajj, aij)
            return c * (1.0 + 1e-4), s, t

        matrix = random_symmetric(default_rng(38))
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(matrix))
        args = ["solve", "--matrix", str(path), "--ordering", str(COLUMN), "--cycles", "3",
                "--report", str(tmp_path / "run.json")]
        assert main(args) == 0
        assert "S^2 checks failed" not in capsys.readouterr().err
        monkeypatch.setattr(drivermod, "_rotation_params", scaled)
        _, report = run_cycles(matrix, COLUMN, 3)
        with pytest.raises(AssertionError, match="step decrement identity violated"):
            verify_step_identities(report)
        assert main(args) == 3
        assert "S^2 checks failed" in capsys.readouterr().err

    def test_relabeling_catches_a_wrong_way_pair(self, monkeypatch):
        """The first (a_ki, a_kj) pair of every step of the scalar kernel rotated the other
        way.  Each pair keeps its norm and the pivot is still zeroed, so S^2 still drops by
        the squared pivot; but which pair is first depends on the labels."""
        plane_step = coremod._plane_step

        def wrong_way(e, plan, c, s, t):
            ii, jj, ij, ((p, q), *rest) = plan
            plane_step(e, (ii, jj, ij, tuple(rest)), c, s, t)
            u, v = e[p], e[q]
            e[p] = c * u - s * v
            e[q] = c * v - t * u

        def relabeling_holds(matrix, images=(2, 4, 1, 3)):
            final, report = run_cycles(matrix, COLUMN, 3)
            verify_step_identities(report)
            moved, _ = run_cycles(
                SymMatrix.from_dense(relabeled(matrix.to_dense(), images)),
                permute(COLUMN, images), 3,
            )
            return moved.to_dense().tobytes() == relabeled(final.to_dense(), images).tobytes()

        matrices = [random_symmetric(default_rng(seed)) for seed in range(8)]
        assert all(map(relabeling_holds, matrices))
        monkeypatch.setattr(coremod, "_plane_step", wrong_way)
        assert not any(map(relabeling_holds, matrices))

    @pytest.mark.parametrize("norms, grows", [
        ([1.0, 0.5, 0.5 * (1.0 + 1e-13)], True),
        ([1.0, 1.0 + 4 * EPS], False),  # growth of 8.9e-16, within MONOTONICITY_RTOL
        ([0.0, 2.2e-162], True),  # the smallest nonzero S, from S = 0
        ([0.0, 0.0], False),
    ])
    def test_monotonicity_check_catches_a_growing_s(self, norms, grows):
        _, report = run_cycles(random_symmetric(default_rng(38)), COLUMN, len(norms) - 1)
        verify_cycle_monotonicity(report)
        report.cycle_off_norms[:] = norms
        if grows:
            with pytest.raises(AssertionError, match="off-norm grew across a cycle"):
                verify_cycle_monotonicity(report)
        else:
            verify_cycle_monotonicity(report)


class TestParallelCycle:
    def test_diagonal_unchanged(self):
        m = SymMatrix.from_dense(np.diag([4.0, 3.0, 2.0, 1.0]))
        out, _ = run_parallel_cycle(m, PAR_ANCHOR)
        assert out == m

    def test_matches_sequential_for_all_variants(self):
        rng = default_rng(606)
        m = random_symmetric(rng)
        for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR):
            for variant in anchor_variants(anchor):
                par, rep = run_parallel_cycle(m, variant)
                seq, _ = run_cycles(m, variant, 1)
                assert np.array_equal(par.to_dense(), seq.to_dense())
                assert verify_step_identities(rep) <= 1e-13

    def test_rejects_serial_ordering(self):
        m = SymMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError, match=f"^not a parallel ordering: {COLUMN}$"):
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
            except ValueError as exc:
                assert str(exc) == f"not a parallel ordering: {o}"
                assert not expected, o
            else:
                assert expected, o
                accepted.append(o)
        assert len(accepted) == 16
        assert set(accepted) == set(
            anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
        )


def window_stats(m, ordering, cycles):
    """``_window_stats`` of the classified bound of ``ordering`` over one ``run_cycles`` run."""
    _, report = run_cycles(m, ordering, cycles)
    return _window_stats(np.array(report.cycle_off_norms)[:, None], classify(ordering).bound)


class TestCheckBound:
    """A classification record's contraction bound on the cycle-boundary S of ``run_cycles``,
    every window checked as the campaign checks it."""

    def test_serial_one_sweep_bound(self):
        rng = default_rng(404)
        gamma = classify(COLUMN).bound.gamma
        for _ in range(20):
            worst, _, _ = window_stats(random_symmetric(rng), COLUMN, 5)
            assert worst <= gamma + FP_SLACK
            assert worst * worst <= 27.0 / 28.0 + FP_SLACK

    def test_parallel_shift_two_from_cycle_zero(self):
        # with the (1,2) and (3,4) entries pinned to zero, the two-sweep
        # contraction holds from the very first cycle
        rng = default_rng(405)
        mats = pin_12_34(random_symmetric_batch(rng, 50))
        for k in range(50):
            m = SymMatrix.from_dense(mats[k])
            _, report = run_cycles(m, ENTRY[105], 3)
            s = report.cycle_off_norms
            if s[0] > 0.0:
                assert s[3] / s[0] <= (1.0 - 1e-5) + FP_SLACK

    def test_vacuous_on_diagonal(self):
        diagonal = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        worst, violations, _ = window_stats(diagonal, COLUMN, 5)
        assert violations == 0
        assert worst == 0.0

    def test_rejects_a_parallel_record_for_another_dimension(self):
        with pytest.raises(ValueError, match="does not match ordering n=4"):
            run_cycles(SymMatrix.from_dense(np.eye(5)), classify(PAR_ANCHOR).ordering, 5)


class TestGenerators:
    def test_zero_pairs_pinned(self):
        rng = default_rng(9)
        mats = pin_12_34(random_symmetric_batch(rng, 10))
        assert np.all(mats[:, 0, 1] == 0.0)
        assert np.all(mats[:, 2, 3] == 0.0)
        assert np.all(mats == mats.transpose(0, 2, 1))

    def test_spd_factor_conditioning(self):
        rng = default_rng(10)
        for _ in range(5):
            factor = random_spd_factor(rng)
            assert np.linalg.cond(factor) <= 100.0

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

    def test_campaign_matches_run_cycles_windows(self):
        ordering = ENTRY[44]
        bound = classify(ordering).bound
        report = verification_campaign(13, 10, [ordering], modes=("classified",))
        cell = report.cells[0]
        rng = default_rng(13)
        mats = random_symmetric_batch(rng, 10)
        cycles = bound.t0 + bound.tau + 4
        ratios = [0.0]  # a window from S = 0 scores 0
        for k in range(10):
            _, run = run_cycles(SymMatrix.from_dense(mats[k]), ordering, cycles)
            s = run.cycle_off_norms
            ratios += [s[t + bound.tau] / s[t] for t in range(bound.t0, len(s) - bound.tau) if s[t]]
        assert cell.worst_ratio == pytest.approx(max(ratios), rel=1e-15)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            verification_campaign(1, 0, [COLUMN])

    def test_rejects_empty_ordering_list(self):
        with pytest.raises(ValueError, match="at least one ordering"):
            verification_campaign(1, 5, [])

    @pytest.mark.parametrize("modes, named", [
        (("classified", "univrsal"), "univrsal"),
        ((), r"\(\)"),
        (("classfied",), "classfied"),
    ], ids=["one misspelt", "none", "only misspelt"])
    def test_rejects_bad_modes_naming_them(self, modes, named):
        # a misspelt mode must fail, not leave a good one beside it to run alone
        mats = random_symmetric_batch(default_rng(1), 3)
        with pytest.raises(ValueError, match=f"modes must be .*got .*{named}"):
            campaign_cells_for_ordering(COLUMN, mats, modes)
        with pytest.raises(ValueError, match=f"modes must be .*got .*{named}"):
            verification_campaign(1, 3, [COLUMN, ENTRY[105]], modes)
