"""The trimmed single-matrix paths against the expressions they replace, bit for bit.

``core._scaled_norm`` and ``SymMatrix.frobenius`` compute numpy's 2-norm without
``np.linalg.norm``, ``SymMatrix.to_dense`` reshapes one flat row-order tuple, and the
kernels build their results without the conversions of the public ``SymMatrix``
constructor.  ``oracles.numpy_scaled_norm`` and ``oracles.validated`` keep the replaced
expressions; these tests draw inputs across scales 2**-600 ... 2**600 and layouts and
require equal bits.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclic_jacobi.core import SymMatrix, _scaled_norm, annihilate
from cyclic_jacobi.driver import default_rng, random_spd_factor, run_cycles
from cyclic_jacobi.jjacobi import run_j_jacobi
from cyclic_jacobi.orderings import all_pairs, make_ordering
from oracles import numpy_scaled_norm, same_matrix, validated

# every entry in [-1, 1], subnormals and signed zeros included, before the scale
UNIT_ENTRIES = st.floats(-1.0, 1.0)

# the views a norm can be handed: each changes the order in which memory holds the entries
LAYOUTS = {
    "contiguous": lambda x: x,
    "transposed": lambda x: x.T,
    "fortran": np.asfortranarray,
    "strided": lambda x: x[::2, ::-1],
    "reversed-transposed": lambda x: x[::-1].T,
    "column": lambda x: x[:, 0],
    "vector": np.ravel,
}


@st.composite
def scaled_arrays(draw, shape):
    """An array of ``shape`` with entries in [-1, 1] times 2**k, k in [-600, 600]."""
    unit = draw(arrays(np.float64, shape, elements=UNIT_ENTRIES))
    return np.ldexp(unit, draw(st.integers(-600, 600)))


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
    @given(st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(scaled_arrays),
           st.sampled_from(sorted(LAYOUTS)))
    def test_scaled_norm_is_numpys(self, x, layout):
        view = LAYOUTS[layout](x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _scaled_norm(view).hex() == numpy_scaled_norm(view).hex()

    @settings(max_examples=200, deadline=None)
    @given(scaled_symmetric())
    def test_frobenius_is_numpys(self, dense):
        m = SymMatrix.from_dense(dense)
        written = m.to_dense()  # the one dense writer gives back the input, row order and bits
        assert written.shape == dense.shape and written.tobytes() == dense.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.frobenius().hex() == numpy_scaled_norm(dense).hex()


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
