"""The single-matrix paths against exact or replaced expressions, bit for bit.

``core._dot`` and ``core._norm`` own every dot product and 2-norm that a report
writes (``solve_factored``, ``cjacobi jsolve``); they are
checked against exact ``fractions.Fraction`` sums over inputs at scales 2**-600 ...
2**600 and subnormal scales.  ``SymMatrix.to_dense`` reshapes one flat row-order
tuple, and the kernels build their results without the conversions of the public
``SymMatrix`` constructor; ``oracles.validated`` keeps the replaced expression.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclic_jacobi.core import SymMatrix, _dot, _norm, annihilate
from cyclic_jacobi.driver import default_rng, random_spd_factor, run_cycles
from cyclic_jacobi.jjacobi import run_j_jacobi
from cyclic_jacobi.orderings import all_pairs, make_ordering
from oracles import exact_dot, same_matrix, validated

# every entry in [-1, 1], subnormals and signed zeros included, before the scale
UNIT_ENTRIES = st.floats(-1.0, 1.0)
# the power of two a draw is scaled by: 2**-600 ... 2**600, or one that leaves it subnormal
EXPONENTS = st.one_of(st.integers(-600, 600), st.integers(-1074, -1022))


@st.composite
def scaled_vectors(draw, size=None):
    """A list of ``size`` floats (1 to 64 if None) in [-1, 1], times 2**k, k from ``EXPONENTS``."""
    sizes = dict(min_size=1, max_size=64) if size is None else dict(min_size=size, max_size=size)
    unit = draw(st.lists(UNIT_ENTRIES, **sizes))
    k = draw(EXPONENTS)
    return [math.ldexp(x, k) for x in unit]


@st.composite
def scaled_symmetric(draw, dims=st.integers(2, 16), exponents=st.integers(-600, 600)):
    """A symmetric array: the upper triangle of a [-1, 1] draw, mirrored, times 2**k."""
    n = draw(dims)
    a = draw(arrays(np.float64, (n, n), elements=UNIT_ENTRIES))
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    return np.ldexp(a, draw(exponents))


@st.composite
def orderings(draw, n):
    return make_ordering(draw(st.permutations(all_pairs(n))))


class TestNorms:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_dot_is_exactly_rounded(self, data):
        u = data.draw(scaled_vectors())
        v = data.draw(scaled_vectors(len(u)))
        products = [x * y for x, y in zip(u, v)]
        # finite products whose exact sum a float can hold: below 64 * 2**1000
        assume(max(map(abs, products)) < 2.0**1000)
        assert _dot(u, v).hex() == exact_dot(u, v).hex()

    @settings(max_examples=300, deadline=None)
    @given(scaled_vectors())
    def test_norm_within_one_and_a_half_ulp_of_exact(self, x):
        """Each square and their sum round once (relative error 2u, u = 2**-53, in the
        sum, so u in its root) and the root rounds by half an ulp: 1.5 ulp in all, a
        bound that 20,000 seeded draws approach to 1.05 ulp."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _norm(x)
        exact_sq = sum(Fraction(v) ** 2 for v in x)
        slack = Fraction(3, 2) * Fraction(math.ulp(norm))
        low = max(Fraction(norm) - slack, Fraction(0))
        assert low**2 <= exact_sq <= (Fraction(norm) + slack) ** 2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_norm_ignores_order(self, data):
        x = data.draw(scaled_vectors())
        assert _norm(data.draw(st.permutations(x))).hex() == _norm(x).hex()

    @settings(max_examples=200, deadline=None)
    @given(scaled_symmetric(exponents=EXPONENTS))
    def test_frobenius_is_norm_of_dense_entries(self, dense):
        m = SymMatrix.from_dense(dense)
        written = m.to_dense()  # the one dense writer gives back the input, row order and bits
        assert written.shape == dense.shape and written.tobytes() == dense.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _norm(m._dense_entries()).hex() == _norm(dense.ravel().tolist()).hex()


class TestKernelResults:
    """Every result equals, in type, dimension and bits, its rebuild by ``SymMatrix(n, list)``."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_run_cycles(self, data):
        dense = data.draw(scaled_symmetric(st.integers(2, 6), st.integers(-600, 500)))
        a = SymMatrix.from_dense(dense)
        final, _ = run_cycles(a, data.draw(orderings(a.n)), data.draw(st.integers(0, 3)))
        assert same_matrix(final, validated(final))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_annihilate(self, data):
        a = SymMatrix.from_dense(data.draw(scaled_symmetric()))
        i, j = data.draw(st.sampled_from(all_pairs(a.n)))
        stepped, _ = annihilate(a, i, j)
        assert same_matrix(stepped, validated(stepped))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_run_j_jacobi(self, data):
        n = data.draw(st.integers(2, 5))
        factor = random_spd_factor(default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
        a = SymMatrix.from_dense(np.ldexp(factor.T @ factor, data.draw(st.integers(-200, 200))))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        result = run_j_jacobi(a, signs, data.draw(orderings(n)))
        assert same_matrix(result.diagonalized, validated(result.diagonalized))
