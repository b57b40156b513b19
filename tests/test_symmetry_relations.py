"""Symmetry relations of the single-matrix entry points, checked bitwise.

A cyclic Jacobi sweep commutes with two exact symmetries of its input, so each
relation compares the program with itself and needs no oracle:

* a sign similarity D A D, D = diag(+-1).  Every step's (c, s) becomes (c, d_i d_j s)
  and every entry changes sign exactly, so the run on D A D gives D F D for the
  final F (and the transform of a J-Jacobi run), and bitwise the same S at every
  cycle boundary.  Entries are compared up to the sign of zero: each kernel stores
  its pivot as +0.0, which D F D turns into -0.0 where d_i d_j = -1.
* a relabeling P A P^T, run under ``permute(o, q)`` with J relabeled too.  A pivot
  whose indices swap order gets (c, -s), so the finals are bitwise P F P^T, signed
  zeros included.  S is not bitwise: it adds the squares in packed order, which
  the relabeling permutes, so it is held to the bound of that reordering.  A run
  with a quarter turn (|t| = 1) is left out.  At an exact diagonal tie a_ii = a_jj
  both quarter turns annihilate the pivot, and ``_rotation_params`` takes
  copysign(1, +0.0) whichever index comes first, so a relabeling that swaps the
  pivot's indices turns the other way there (found on 0/1 matrices, e.g. a_22 =
  a_33 under q = (1, 3, 2, 4)).

The scaling relation 2^k A is left out: it fails where entries are subnormal.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclic_jacobi.core import SymMatrix
from cyclic_jacobi.classification import PAR_ANCHOR, PAR_ANCHOR_MIRROR, anchor_variants
from cyclic_jacobi.driver import (
    default_rng,
    random_spd_factor,
    run_cycles,
    run_parallel_cycle,
)
from cyclic_jacobi.jjacobi import run_j_jacobi, solve_factored
from cyclic_jacobi.orderings import all_pairs, invert, make_ordering, permute
from oracles import relabeled, sign_similar

EPS = np.finfo(float).eps
N_OFF = 6  # strictly upper entries of a 4x4, the squares S^2 adds

MATRICES = st.builds(
    lambda a, k: np.ldexp(np.triu(a) + np.triu(a, 1).T, k),
    arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
    st.integers(-600, 500),
)
FACTORS = st.builds(
    lambda seed, k: np.ldexp(random_spd_factor(default_rng(seed)), k),
    st.integers(0, 2**32 - 1), st.integers(-100, 100),
)
ORDERINGS = st.permutations(all_pairs(4)).map(make_ordering)
PARALLEL = st.sampled_from(anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR))
SIGNS = st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4)
RELABELINGS = st.permutations([1, 2, 3, 4])


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


def quarter_turn(report) -> bool:
    """Whether a step of the run took |t| = 1: a diagonal tie, or |tau| below 2**-53."""
    return any(abs(tangent) == 1.0 for *_, tangent in report._records)


def relabeled_signs(signs, q) -> list[int]:
    """J relabeled with A: the sign of index r moves to q(r)."""
    return [signs[r - 1] for r in invert(q)]


class TestSignSimilarity:
    @settings(max_examples=60, deadline=None)
    @given(MATRICES, ORDERINGS, SIGNS, st.integers(0, 4))
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
