"""Symmetry relations of the sweep entry points, checked bitwise.

A cyclic Jacobi sweep commutes with two exact symmetries of its input, so each
relation compares the program with itself and needs no oracle:

* a sign similarity D A D, D = diag(+-1).  Every step's (c, s) becomes (c, d_i d_j s)
  and every entry changes sign exactly, so the run on D A D gives D F D for the
  final F (and the transform of a J-Jacobi run), and bitwise the same S at every
  cycle boundary.  Entries are compared up to the sign of zero: each kernel stores
  its pivot as +0.0, which D F D turns into -0.0 where d_i d_j = -1.  So the signs
  of zeros differ between the two runs, and at a tie between diagonal zeros
  a_ii - a_jj can be -0.0 in one run and +0.0 in the other; ``_rotation_params``
  and ``batch_sweep`` add +0.0 to it, so every tie turns by copysign(1, a_ij) and
  the relation holds there too (the pinned ``TIES``).
* a relabeling P A P^T, run under ``permute(o, q)`` with J relabeled too.  A pivot
  whose indices swap order gets (c, -s), so the finals are bitwise P F P^T, signed
  zeros included.  S is not bitwise: it adds the squares in packed order, which
  the relabeling permutes, so it is held to the bound of that reordering.  A run
  with a quarter turn (|t| = 1) is left out.  At an exact diagonal tie a_ii = a_jj
  both quarter turns annihilate the pivot, and ``_rotation_params`` takes
  copysign(1, +0.0) whichever index comes first, so a relabeling that swaps the
  pivot's indices turns the other way there (found on 0/1 matrices, e.g. a_22 =
  a_33 under q = (1, 3, 2, 4)).  Through ``solve_factored`` the relabeling moves
  the columns of L, which leaves H = L J L^T as it is: the eigenvalues move with
  the labels, bitwise, but the eigenvectors L F Lambda^(-1/2) sum over the moved
  index in another order, so they are held to the bound of that reordering.

``batch_sweep`` is checked matrix by matrix of a stack, under the same relations, and
``cjacobi solve`` from matrix files of repr floats to its JSON report and check line.

The scaling relation 2^k A is left out: it fails where entries are subnormal.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclic_jacobi.cli import main
from cyclic_jacobi.core import SymMatrix
from cyclic_jacobi.classification import PAR_ANCHOR, PAR_ANCHOR_MIRROR, anchor_variants
from cyclic_jacobi.driver import (
    batch_sweep,
    default_rng,
    random_spd_factor,
    run_cycles,
    run_parallel_cycle,
)
from cyclic_jacobi.jjacobi import run_j_jacobi, solve_factored
from cyclic_jacobi.orderings import all_pairs, invert, make_ordering, parse_ordering, permute
from oracles import eager_steps, relabeled, sign_similar

EPS = np.finfo(float).eps
N_OFF = 6  # strictly upper entries of a 4x4, the squares S^2 adds
N = 4  # terms of an entry of L F, each a product

MATRICES = st.builds(
    lambda a, k: np.ldexp(np.triu(a) + np.triu(a, 1).T, k),
    arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
    st.integers(-600, 500),
)
FACTORS = st.builds(
    lambda seed, k: np.ldexp(random_spd_factor(default_rng(seed)), k),
    st.integers(0, 2**32 - 1), st.integers(-100, 100),
)
STACKS = st.lists(MATRICES, min_size=1, max_size=4).map(np.array)
ORDERINGS = st.permutations(all_pairs(4)).map(make_ordering)
PARALLEL = st.sampled_from(anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR))
SIGNS = st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4)
RELABELINGS = st.permutations([1, 2, 3, 4])


def zeros_but(i, j, x):
    """The 4x4 matrix of -0.0 entries but a_ij = a_ji = x (1-based)."""
    dense = np.full((4, 4), -0.0)
    dense[i - 1, j - 1] = dense[j - 1, i - 1] = x
    return dense


# Ties between diagonal zeros, each with an ordering and d, on which D A D once turned the
# other way: a_ii - a_jj was +0.0 in one run and -0.0 in the other.  Both with 1 cycle.
TIES = (
    (zeros_but(1, 4, 4.63650769e-69), PAR_ANCHOR, [1, 1, 1, -1]),
    (zeros_but(1, 3, 2.12897992e-109), parse_ordering("1 2, 1 4, 2 3, 1 3, 2 4, 3 4"),
     [1, 1, 1, -1]),
)


def unsigned(dense) -> bytes:
    """The bytes of ``dense`` with every -0.0 made +0.0 (x + 0.0 is x for every other x)."""
    return (np.asarray(dense) + 0.0).tobytes()


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def reordered_sum_close(s, t) -> bool:
    """Whether two S that add the same N_OFF squares in different orders agree within that
    reordering's bound: each sum is within (N_OFF - 1) units of roundoff of the exact one,
    relative, and N_OFF squares below the normal range lose at most 2**-1074 each."""
    return math.isclose(s, t, rel_tol=N_OFF * EPS, abs_tol=math.sqrt(2 * N_OFF) * 2.0**-537)


def reordered_products_close(got, expected, magnitudes, divisors) -> bool:
    """Whether sums of N products, each divided by its column's divisor, agree elementwise
    after summing in two orders: each sum is within gamma_N = N u / (1 - N u) of the exact
    one, relative to the sum of the products' magnitudes, and each correctly rounded
    quotient moves it by u more, u = EPS / 2.  Entries stay far from the subnormal range."""
    u = EPS / 2
    gamma = N * u / (1 - N * u)
    bound = (2 * gamma + 2 * u * (1 + gamma)) * magnitudes / divisors
    return bool(np.all(np.abs(np.asarray(got) - expected) <= bound))


def quarter_turn(report) -> bool:
    """Whether a step of the run took |t| = 1: a diagonal tie, or |tau| below 2**-53."""
    return any(abs(tangent) == 1.0 for *_, tangent in report._records)


def without_quarter_turns(mats, ordering, cycles):
    """The matrices of the stack ``mats`` on which ``cycles`` sweeps take no step with |t| = 1.

    Read from the scalar steps of ``eager_steps``, which, as ``batch_sweep``, sweep on where
    S^2 has underflowed to 0 and ``run_cycles`` stops.  |atan(t)| is pi/4 at |t| = 1 and at
    no other tangent that ``_rotation_params`` gives: the next below 1 is 1 - 2**-52.
    """
    return mats[[
        all(abs(angle) != math.pi / 4
            for _, _, _, angle, _, _ in eager_steps(SymMatrix.from_dense(m), ordering, cycles))
        for m in mats
    ]]


def relabeled_signs(signs, q) -> list[int]:
    """J relabeled with A: the sign of index r moves to q(r)."""
    return [signs[r - 1] for r in invert(q)]


class TestSignSimilarity:
    @settings(max_examples=60, deadline=None)
    @given(MATRICES, ORDERINGS, SIGNS, st.integers(0, 4))
    @example(*TIES[0], 1)
    @example(*TIES[1], 1)
    def test_run_cycles(self, dense, ordering, d, cycles):
        final, report = run_cycles(SymMatrix.from_dense(dense), ordering, cycles)
        similar, similar_report = run_cycles(
            SymMatrix.from_dense(sign_similar(dense, d)), ordering, cycles
        )
        assert unsigned(similar.to_dense()) == unsigned(sign_similar(final.to_dense(), d))
        assert similar_report.cycles_executed == report.cycles_executed
        assert bits(similar_report.cycle_off_norms) == bits(report.cycle_off_norms)

    @settings(max_examples=40, deadline=None)
    @given(MATRICES, PARALLEL, SIGNS)
    @example(*TIES[0])
    def test_run_parallel_cycle(self, dense, ordering, d):
        final, report = run_parallel_cycle(SymMatrix.from_dense(dense), ordering)
        similar, similar_report = run_parallel_cycle(
            SymMatrix.from_dense(sign_similar(dense, d)), ordering
        )
        assert unsigned(similar.to_dense()) == unsigned(sign_similar(final.to_dense(), d))
        assert bits(similar_report.cycle_off_norms) == bits(report.cycle_off_norms)

    @settings(max_examples=40, deadline=None)
    @given(FACTORS, ORDERINGS, SIGNS, SIGNS)
    def test_run_j_jacobi(self, factor, ordering, signs, d):
        a = factor.T @ factor
        result = run_j_jacobi(SymMatrix.from_dense(a), signs, ordering)
        similar = run_j_jacobi(SymMatrix.from_dense(sign_similar(a, d)), signs, ordering)
        assert unsigned(similar.diagonalized.to_dense()) == unsigned(
            sign_similar(result.diagonalized.to_dense(), d))
        assert unsigned(similar.transform) == unsigned(sign_similar(result.transform, d))
        assert similar.report.cycles_executed == result.report.cycles_executed
        assert bits(similar.report.cycle_off_norms) == bits(result.report.cycle_off_norms)

    @settings(max_examples=40, deadline=None)
    @given(FACTORS, ORDERINGS, SIGNS)
    def test_solve_factored(self, factor, ordering, d):
        """The factor L D gives A' = D A D and the same H = L J L^T, so the same eigenvalues
        and the eigenvectors with their columns' signs changed by D."""
        signs = (1, 1, -1, -1)
        eigenvalues, eigenvectors, result = solve_factored(factor, signs, ordering)
        similar_values, similar_vectors, similar = solve_factored(
            factor * np.array(d, dtype=float), signs, ordering
        )
        assert bits(similar_values) == bits(eigenvalues)
        assert unsigned(similar_vectors) == unsigned(eigenvectors * np.array(d, dtype=float))
        assert bits(similar.report.cycle_off_norms) == bits(result.report.cycle_off_norms)


class TestRelabeling:
    @settings(max_examples=60, deadline=None)
    @given(MATRICES, ORDERINGS, RELABELINGS, st.integers(0, 4))
    def test_run_cycles(self, dense, ordering, q, cycles):
        final, report = run_cycles(SymMatrix.from_dense(dense), ordering, cycles)
        assume(not quarter_turn(report))
        moved, moved_report = run_cycles(
            SymMatrix.from_dense(relabeled(dense, q)), permute(ordering, q), cycles
        )
        assert moved.to_dense().tobytes() == relabeled(final.to_dense(), q).tobytes()
        assert moved_report.cycles_executed == report.cycles_executed
        assert all(map(reordered_sum_close, moved_report.cycle_off_norms, report.cycle_off_norms))

    @settings(max_examples=40, deadline=None)
    @given(FACTORS, ORDERINGS, SIGNS, RELABELINGS)
    def test_run_j_jacobi(self, factor, ordering, signs, q):
        a = factor.T @ factor
        result = run_j_jacobi(SymMatrix.from_dense(a), signs, ordering)
        assume(not quarter_turn(result.report))  # a hyperbolic step has |tanh| < 1
        moved = run_j_jacobi(
            SymMatrix.from_dense(relabeled(a, q)), relabeled_signs(signs, q), permute(ordering, q)
        )
        assert moved.report.cycles_executed == result.report.cycles_executed
        assert moved.diagonalized.to_dense().tobytes() == relabeled(
            result.diagonalized.to_dense(), q).tobytes()
        assert moved.transform.tobytes() == relabeled(result.transform, q).tobytes()
        assert all(map(reordered_sum_close, moved.report.cycle_off_norms,
                       result.report.cycle_off_norms))

    @settings(max_examples=40, deadline=None)
    @given(FACTORS, ORDERINGS, SIGNS, RELABELINGS)
    def test_solve_factored(self, factor, ordering, signs, q):
        """L with its column r moved to q(r) gives A' = P A P^T and, with J relabeled, the
        same H = L J L^T: the eigenvalues move with the labels, bitwise."""
        eigenvalues, eigenvectors, result = solve_factored(factor, signs, ordering)
        assume(not quarter_turn(result.report))
        inv = np.array(invert(q)) - 1
        moved_values, moved_vectors, moved = solve_factored(
            factor[:, inv], relabeled_signs(signs, q), permute(ordering, q)
        )
        assert moved.report.cycles_executed == result.report.cycles_executed
        assert bits(moved_values) == bits(eigenvalues[inv])
        # column c of L F sums l_rk f_kc over k, which the relabeling visits in another order
        magnitudes = np.abs(factor) @ np.abs(result.transform)
        divisors = np.sqrt(np.abs(eigenvalues))
        assert reordered_products_close(
            moved_vectors, eigenvectors[:, inv], magnitudes[:, inv], divisors[inv]
        )


class TestBatchSweep:
    """The relations through ``batch_sweep``, for each matrix of a stack.

    Matrices with a quarter turn are left out of the relabeling, as in the scalar tests; the
    sign similarity holds on every matrix.  The relabeled finals are compared up to the sign
    of zero too: unlike
    ``run_cycles``, the kernel sweeps on where S is 0 but an entry is -0.0, and a step at a
    -0.0 pivot between -0.0 diagonal entries leaves a_ii at -0.0 and makes a_jj +0.0, so the
    order of the pivot's indices decides which zero keeps its sign.
    """

    @settings(max_examples=40, deadline=None)
    @given(STACKS, ORDERINGS, SIGNS, st.integers(0, 4))
    @example(TIES[0][0][None], *TIES[0][1:], 1)
    @example(np.array([TIES[1][0], TIES[0][0]]), *TIES[1][1:], 1)
    def test_sign_similarity(self, mats, ordering, d, cycles):
        sweep = batch_sweep(mats, ordering, cycles)
        similar = batch_sweep(np.array([sign_similar(m, d) for m in mats]), ordering, cycles)
        assert similar.off_norms.tobytes() == sweep.off_norms.tobytes()
        assert unsigned(similar.finals) == unsigned([sign_similar(f, d) for f in sweep.finals])

    @settings(max_examples=40, deadline=None)
    @given(STACKS, ORDERINGS, RELABELINGS, st.integers(0, 4))
    def test_relabeling(self, mats, ordering, q, cycles):
        mats = without_quarter_turns(mats, ordering, cycles)
        assume(len(mats) > 0)
        sweep = batch_sweep(mats, ordering, cycles)
        moved = batch_sweep(np.array([relabeled(m, q) for m in mats]), permute(ordering, q), cycles)
        assert unsigned(moved.finals) == unsigned([relabeled(f, q) for f in sweep.finals])
        assert all(map(reordered_sum_close, moved.off_norms.flat, sweep.off_norms.flat))


def solve_file(dense, ordering, cycles):
    """``cjacobi solve`` on ``dense``, written as a matrix file of repr floats: its exit code,
    JSON report, final matrix and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        matrix, report = Path(tmp) / "a.txt", Path(tmp) / "report.json"
        matrix.write_text("".join(" ".join(map(repr, row)) + "\n" for row in dense.tolist()))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["solve", "--matrix", str(matrix), "--ordering", str(ordering),
                         "--cycles", str(cycles), "--report", str(report)])
        payload = json.loads(report.read_text())
    final = np.array([[float(x) for x in row.split()] for row in payload["final_matrix"]])
    return code, payload, final, stderr.getvalue()


class TestSolveCommand:
    """The relations through ``cjacobi solve``, from matrix file to JSON report."""

    @settings(max_examples=40, deadline=None)
    @given(MATRICES, ORDERINGS, SIGNS, st.integers(0, 4))
    @example(*TIES[0], 1)
    @example(*TIES[1], 1)
    def test_sign_similarity(self, dense, ordering, d, cycles):
        code, report, final, checks = solve_file(dense, ordering, cycles)
        similar_code, similar, similar_final, similar_checks = solve_file(
            sign_similar(dense, d), ordering, cycles)
        assert (similar_code, similar_checks) == (code, checks)
        assert bits(similar["cycle_off_norms"]) == bits(report["cycle_off_norms"])
        assert len(similar["steps"]) == len(report["steps"])
        for step, similar_step in zip(report["steps"], similar["steps"]):
            [(i, j)] = similar_step["pivots"]
            assert similar_step["pivots"] == step["pivots"]
            sign = d[i - 1] * d[j - 1]
            assert similar_step["values"] == [sign * v for v in step["values"]]
            assert similar_step["angles"] == [sign * v for v in step["angles"]]
            assert bits([similar_step["off_norm_before"], similar_step["off_norm_after"]]) == bits(
                [step["off_norm_before"], step["off_norm_after"]])
        assert unsigned(similar_final) == unsigned(sign_similar(final, d))
        assert unsigned(similar["final_diagonal"]) == unsigned(report["final_diagonal"])

    @settings(max_examples=40, deadline=None)
    @given(MATRICES, ORDERINGS, RELABELINGS, st.integers(0, 4))
    def test_relabeling(self, dense, ordering, q, cycles):
        code, report, final, _ = solve_file(dense, ordering, cycles)
        assume(all(abs(a) != math.pi / 4 for step in report["steps"] for a in step["angles"]))
        moved_code, moved, moved_final, _ = solve_file(
            relabeled(dense, q), permute(ordering, q), cycles)
        assert moved_code == code
        assert moved_final.tobytes() == relabeled(final, q).tobytes()
        assert moved["cycles_executed"] == report["cycles_executed"]
        assert all(map(reordered_sum_close, moved["cycle_off_norms"], report["cycle_off_norms"]))
        assert len(moved["steps"]) == len(report["steps"])
        for step, moved_step in zip(report["steps"], moved["steps"]):
            [(i, j)] = step["pivots"]
            assert moved_step["pivots"] == [sorted([q[i - 1], q[j - 1]])]
            assert moved_step["values"] == step["values"]
            # swapping the pivot's indices swaps a_ii and a_jj, and turns the other way
            sign = 1 if q[i - 1] < q[j - 1] else -1
            assert moved_step["angles"] == [sign * a for a in step["angles"]]
