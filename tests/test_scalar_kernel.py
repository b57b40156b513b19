"""The scalar packed kernel behind run_cycles, run_j_jacobi and run_parallel_cycle."""

import hashlib
import math

import numpy as np
import pytest

from cyclic_jacobi.classification import PAR_ANCHOR, PAR_ANCHOR_MIRROR, anchor_variants, catalog
from cyclic_jacobi.cli import main
from cyclic_jacobi.core import SymMatrix, format_matrix
from cyclic_jacobi.driver import (
    IDENTITY_RTOL,
    MONOTONICITY_RTOL,
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
from cyclic_jacobi.jjacobi import run_j_jacobi, solve_factored
from cyclic_jacobi.orderings import enumerate_orderings, make_ordering

ENTRY = {e.index: e.ordering for e in catalog()}
COLUMN = ENTRY[1]
SUBNORMAL = 2.0**-1074
SIGN_PATTERNS = ((1, 1, -1, -1), (1, -1, 1, -1), (1, 1, 1, 1), (1, -1, -1, -1))

# sha256 of every output of run_cycles, run_j_jacobi and solve_factored on the
# inputs of scalar_path_digest(), recorded with the dense numpy step that the
# scalar packed kernel replaced.
SCALAR_PATH_DIGEST = "2c22eeeb958a9ce2dc0b7319d828e8c6bb8d4a6e0434310e23039a507fb14c10"


def _row_major(n):
    return make_ordering([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def scalar_path_digest():
    """sha256 over the step records, norms and final matrices of the m=1 paths.

    run_cycles: all 720 n=4 orderings on a seeded batch; matrices scaled to
    1e-200, 1e-140 and 1e150; diagonal ties; pinned zero pivots; a subnormal
    pivot; n=3 and n=5 runs (the n=5 off-norm has ten terms, so numpy sums
    it pairwise).  run_j_jacobi and solve_factored: four sign patterns over
    a spread of orderings, the 1e-160 and subnormal hyperbolic pivots, and
    n=3 and n=5 runs with mixed signs.
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
            digest.update(repr((st.pivot, st.kind)).encode())
            floats([st.value, st.angle, st.tanh, st.s_before, st.s_after])
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
    pinned = random_symmetric_batch(rng, 16, zero_pairs=((1, 2), (3, 4)))
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


class TestNonFiniteOffNorm:
    def huge(self):
        rng = default_rng(9)
        return SymMatrix.from_dense(random_symmetric_batch(rng, 1)[0] * 1e200)

    def test_run_cycles_rejects_overflowing_s2(self):
        with pytest.raises(ValueError, match="S\\^2 is not finite"):
            run_cycles(self.huge(), COLUMN, 3)

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
    """Independent oracle: each group as one orthogonal Q, applied as Q^T A Q."""
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
                got = [st.s_after for st in report.steps]
                assert got == pytest.approx(norms, rel=1e-12, abs=1e-14 * scale)
                assert verify_step_identities(report) <= IDENTITY_RTOL
                seq, _ = run_cycles(m, ordering, 1)
                assert np.array_equal(par.to_dense(), seq.to_dense())


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
        a = random_symmetric(default_rng(900 + n), n=n)
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
        for st in report.steps:
            expected = st.s_before**2 - st.value**2
            gap = abs(st.s_after**2 - expected) / max(st.s_before**2, 1e-300)
            assert gap <= IDENTITY_RTOL
        verify_cycle_monotonicity(report)

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
        assert sweep.identity_violation <= IDENTITY_RTOL
        assert sweep.monotonicity_excess <= MONOTONICITY_RTOL
