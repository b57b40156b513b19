import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclic_jacobi.core import (
    PlaneRotation,
    SymMatrix,
    _norm,
    _packed_entries,
    _packed_layout,
    annihilate,
    format_matrix,
    off_norm,
    parse_matrix,
    rotation_for_pivot,
)
from oracles import embed, numpy_from_dense, numpy_to_dense, same_matrix, spectrum, two_sided


EPS = np.finfo(float).eps
SUBNORMAL = 2.0**-1074


def frobenius(m: SymMatrix) -> float:
    """The Frobenius norm of ``m``: ``core._norm`` of its dense entries, row by row."""
    return _norm(m._dense_entries())


def signed(lo, hi):
    return st.builds(lambda x, neg: -x if neg else x, st.floats(lo, hi), st.booleans())


# symmetric, with every entry a small multiple of the subnormal spacing
ALL_SUBNORMAL = SUBNORMAL * np.array([
    [3.0, -7.0, 11.0, 2.0],
    [-7.0, 5.0, -1.0, 13.0],
    [11.0, -1.0, -9.0, 4.0],
    [2.0, 13.0, 4.0, 6.0],
])
# every entry 1.70965869e-203 but a_22 = 0: the squares underflow to 0
TINY_UNIFORM = np.full((4, 4), 1.70965869e-203)
TINY_UNIFORM[1, 1] = 0.0
# one pivot of 1.5 among entries whose squares are subnormal: LAPACK's eigvalsh
# returns +-sqrt(2) for it instead of +-1.5
PIVOT_AMONG_TINY = np.full((4, 4), 2.1506629e-162)
PIVOT_AMONG_TINY[0, 1] = PIVOT_AMONG_TINY[1, 0] = 1.5


# subnormal, moderate and huge magnitudes, each in either sign
EXTREMES = st.one_of(signed(SUBNORMAL, 2.0**-1022), signed(1e-3, 1e3), signed(1e200, 1e300))


# entries for the dense conversions: signed zeros, subnormals, moderate values and
# +-1.7e308, whose asymmetric pairs overflow a_ij - a_ji
CONVERSION_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]), signed(SUBNORMAL, 2.0**-1022), signed(1e-3, 1e3),
)


@st.composite
def dense_inputs(draw):
    """A square array of ``CONVERSION_ENTRIES``, mirrored but for up to two drawn lower
    entries (each redrawn or one ulp from its mirror) and perhaps one non-finite entry."""
    n = draw(st.integers(2, 16))
    a = draw(arrays(np.float64, (n, n), elements=CONVERSION_ENTRIES))
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    index = st.integers(0, n - 1)
    for r, c in draw(st.lists(st.tuples(index, index), max_size=2)):
        a[r, c] = draw(st.one_of(CONVERSION_ENTRIES, st.just(np.nextafter(a[c, r], np.inf))))
    bad = draw(st.sampled_from([None, None, None, np.inf, -np.inf, np.nan]))
    if bad is not None:
        a[draw(index), draw(index)] = bad
    return a


def rotated_pivot_bound(aii, ajj, aij, rot):
    """Rounding bound on c*(c*aij + s*ajj) - s*(c*aii + s*aij), the rotated pivot.

    Relative error in the products, plus the absolute subnormal spacing
    carried through the diagonal when the sine itself is subnormal.
    """
    diag = abs(aii) + abs(ajj)
    return 8 * EPS * (abs(aij) + abs(rot.c * rot.s) * diag) + 8 * SUBNORMAL * (1.0 + diag)


def symmetric_matrices(n=4, magnitude=10.0):
    return arrays(
        np.float64,
        (n, n),
        elements=st.floats(min_value=-magnitude, max_value=magnitude, allow_nan=False),
    ).map(lambda a: SymMatrix.from_dense((a + a.T) / 2.0))


class TestSymMatrix:
    def test_from_dense_roundtrip(self):
        dense = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)
        assert m.entry(1, 2) == 2.0
        assert m.entry(2, 1) == 2.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix.from_dense([[1.0, 2.0], [2.0 + 1e-6, 3.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix.from_dense([[np.nan, 0.0], [0.0, 1.0]])

    def test_dimension_limits(self):
        cached = _packed_layout.cache_info().currsize
        with pytest.raises(ValueError):
            SymMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError):
            SymMatrix.from_dense(np.eye(17))
        assert _packed_layout.cache_info().currsize == cached  # rejected before a layout is built
        with pytest.raises(ValueError, match="dimension"):
            SymMatrix.from_dense(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="dimension"):
            off_norm(np.zeros((0, 0)))

    def test_entry_out_of_range(self):
        m = SymMatrix.from_dense(np.eye(3))
        with pytest.raises(IndexError):
            m.entry(0, 1)
        with pytest.raises(IndexError):
            m.entry(1, 4)

    @pytest.mark.parametrize("packed", [np.ones((10, 1)), [1.0] * 9, [1.0] * 11, np.ones(9)])
    def test_packed_storage_length(self, packed):
        with pytest.raises(ValueError, match="packed storage must have length 10"):
            SymMatrix(4, packed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int-beyond-float"])
    def test_packed_storage_must_be_finite(self, bad):
        packed = [1.0] * 10
        packed[3] = bad
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(4, packed)
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(4, np.array(packed))

    @pytest.mark.parametrize("packed", ["123", ["1", "2", "3"], [1.0, 2j, 3.0]],
                             ids=["text", "text-entries", "complex"])
    def test_packed_storage_must_be_real_numbers(self, packed):
        with pytest.raises(ValueError, match="packed storage must have length 3, all real numbers"):
            SymMatrix(2, packed)

    @pytest.mark.parametrize("dense", [
        [[1.0, 0.5j], [0.5j, 2.0]], np.eye(2, dtype=complex), [["1", "2"], ["2", "3"]],
        np.array([["1", "0.5"], ["0.5", "1"]], dtype=object),
        np.array([[1.0, 0.5j], [0.5j, 2.0]], dtype=object),
    ], ids=["complex", "complex-real-valued", "text", "object-text", "object-complex"])
    def test_from_dense_rejects_complex_and_text(self, dense):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no ComplexWarning on the way
            with pytest.raises(ValueError, match="must be real numbers"):
                SymMatrix.from_dense(dense)

    @settings(max_examples=100, deadline=None)
    @given(dense_inputs())
    @example(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))
    @example(np.array([[-0.0, 1.7e308], [np.nextafter(1.7e308, 0.0), SUBNORMAL]]))
    @example(np.array([[-0.0, -0.0, 1.0], [-0.0, 2.0, -SUBNORMAL], [1.0, -SUBNORMAL, -0.0]]))
    def test_conversion_matches_numpy_oracle(self, dense):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packed, message = numpy_from_dense(dense)
            if message is not None:
                with pytest.raises(ValueError) as info:
                    SymMatrix.from_dense(dense)
                assert str(info.value) == message
                return
            m = SymMatrix.from_dense(dense)
            scattered = numpy_to_dense(m.n, packed)
            assert np.array(_packed_entries(m)).tobytes() == packed.tobytes()
            assert same_matrix(m, SymMatrix(m.n, packed))  # as the validating constructor builds it
            assert m.to_dense().tobytes() == scattered.tobytes()
            rows = scattered.tolist()
            assert format_matrix(m) == "".join(" ".join(map(repr, row)) + "\n" for row in rows)
            assert repr(m) == f"SymMatrix({m.n}, " + ", ".join(
                "[" + " ".join(f"{v:.6g}" for v in row) + "]" for row in rows) + ")"

    @pytest.mark.parametrize("dense", [
        [[1, 10**400], [10**400, 1]],
        np.array([[1, 2], [2, 1]], dtype=np.longdouble) * np.longdouble("1e400"),
    ], ids=["int", "longdouble"])
    def test_from_dense_rejects_entries_beyond_the_float_range(self, dense):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "overflow encountered in cast"
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                SymMatrix.from_dense(dense)

    def test_from_dense_rejects_infinite_before_asymmetry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SymMatrix.from_dense([[np.inf, 1.0], [2.0, 1.0]])

    def test_huge_asymmetry_is_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                SymMatrix.from_dense([[1.0, 1.7e308], [-1.7e308, 1.0]])

    def test_readers_return_fresh_copies(self):
        m = SymMatrix.from_dense([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        for read in (m.to_dense, m.diagonal, lambda: _packed_entries(m)):
            read()[0] = 99.0
        assert m.entry(1, 1) == 1.0 and m.entry(1, 2) == 2.0
        assert np.array_equal(m.to_dense()[0], [1.0, 2.0, 3.0])
        assert np.array_equal(m.diagonal(), [1.0, 4.0, 6.0])
        assert _packed_entries(m) == [2.0, 3.0, 5.0, 1.0, 4.0, 6.0]

    def test_negative_zero_keeps_its_sign_but_compares_equal(self):
        neg = SymMatrix(2, [-0.0, 1.0, 2.0])
        pos = SymMatrix(2, [0.0, 1.0, 2.0])
        assert math.copysign(1.0, neg.to_dense()[0, 1]) == -1.0
        assert math.copysign(1.0, neg.to_dense()[1, 0]) == -1.0
        assert neg == pos
        with pytest.raises(TypeError):
            hash(neg)

    @pytest.mark.parametrize("scale, bits", [
        (1e-160, "0x1.3b1fef5a3fff3p-529"),
        (2.0**-511, "0x1.c0491e9ab92bfp-509"),
        (2.0**499, "0x1.c0491e9ab92bfp+501"),
        (2.0**500, "0x1.c0491e9ab92bfp+502"),
        (1e300, "0x1.4eb1e6f39a12bp+999"),
    ])
    def test_frobenius_bits_across_scales(self, scale, bits):
        base = np.array([
            [3.0, -1.0, 0.5, 2.0],
            [-1.0, -2.5, 1.25, 0.75],
            [0.5, 1.25, 1.0, -3.0],
            [2.0, 0.75, -3.0, 0.25],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius(SymMatrix.from_dense(base * scale)).hex() == bits


class TestOffNorm:
    def test_diagonal_is_zero(self):
        assert off_norm(SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))) == 0.0

    def test_all_ones_off_diagonal(self):
        dense = np.ones((4, 4))
        assert off_norm(SymMatrix.from_dense(dense)) == pytest.approx(math.sqrt(6), abs=0)

    def test_two_by_two(self):
        assert off_norm(SymMatrix.from_dense([[1.0, 2.0], [2.0, 3.0]])) == 2.0

    def test_dense_argument_must_be_square_and_symmetric(self):
        for bad in (np.ones((2, 3)), [[1.0, 2.0], [5.0, 1.0]], np.ones(4)):
            with pytest.raises(ValueError):
                off_norm(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dense_argument_must_be_finite(self, bad):
        dense = np.eye(3)
        dense[0, 2] = dense[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected, not warned about
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                off_norm(dense)

    @given(symmetric_matrices())
    def test_zero_iff_diagonal(self, m):
        dense = m.to_dense()
        largest_off = np.max(np.abs(dense - np.diag(np.diag(dense))))
        if largest_off == 0.0:
            assert off_norm(m) == 0.0
        if off_norm(m) == 0.0:
            # entries this small square-underflow to zero; anything larger
            # must make the off-norm positive
            assert largest_off <= 2.3e-162


class TestRotationForPivot:
    def test_zero_pivot_gives_identity(self):
        m = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        rot = rotation_for_pivot(m, 1, 3)
        assert (rot.c, rot.s, rot.phi) == (1.0, 0.0, 0.0)

    def test_diagonal_tie_gives_quarter_pi(self):
        m = SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        rot = rotation_for_pivot(m, 1, 2)
        assert rot.phi == pytest.approx(math.pi / 4, abs=0)
        m = SymMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        assert rotation_for_pivot(m, 1, 2).phi == pytest.approx(-math.pi / 4, abs=0)

    def test_textbook_angle(self):
        # tan(2*phi) = 2*1 / (3 - 1) = 1, so phi = pi/8
        m = SymMatrix.from_dense([[3.0, 1.0], [1.0, 1.0]])
        rot = rotation_for_pivot(m, 1, 2)
        assert rot.phi == pytest.approx(math.pi / 8, rel=1e-15)

    def test_index_out_of_range(self):
        m = SymMatrix.from_dense(np.eye(3))
        with pytest.raises(IndexError):
            rotation_for_pivot(m, 2, 5)
        with pytest.raises(IndexError):
            rotation_for_pivot(m, 3, 2)

    @given(symmetric_matrices())
    def test_angle_interval_and_unit_circle(self, m):
        for (i, j) in ((1, 2), (1, 4), (2, 3), (3, 4)):
            rot = rotation_for_pivot(m, i, j)
            assert abs(rot.phi) <= math.pi / 4
            assert abs(rot.c**2 + rot.s**2 - 1.0) <= 1e-15

    @given(symmetric_matrices())
    def test_angle_satisfies_defining_equation(self, m):
        rot = rotation_for_pivot(m, 1, 2)
        aij = m.entry(1, 2)
        diff = m.entry(1, 1) - m.entry(2, 2)
        # tan(2*phi) is ill-conditioned near pi/2, so only compare where the
        # target tangent is moderate; annihilation itself is checked elsewhere
        if aij != 0.0 and diff != 0.0 and abs(2 * aij / diff) < 1e6:
            assert math.tan(2 * rot.phi) == pytest.approx(2 * aij / diff, rel=1e-9)


class TestExtremePivots:
    def test_subnormal_pivot_is_rotated_away(self):
        # tau = 1 / 2e-310 overflows; the rotation must not collapse to the identity
        m = SymMatrix.from_dense([[1.0, 1e-310], [1e-310, 0.0]])
        rot = rotation_for_pivot(m, 1, 2)
        assert rot.s == 1e-310
        assert two_sided(m, rot).entry(1, 2) == 0.0

    def test_underflowing_tau_is_a_quarter_turn(self):
        # tau = 5e-324 / 2 rounds to 0: the diagonals tie to working precision
        m = SymMatrix.from_dense([[5e-324, 1.0], [1.0, 0.0]])
        rot = rotation_for_pivot(m, 1, 2)
        assert rot.phi == pytest.approx(math.pi / 4, abs=0)
        assert annihilate(m, 1, 2)[0].diagonal() == pytest.approx([1.0, -1.0], rel=1e-15)

    @given(pivot=EXTREMES, aii=EXTREMES, ajj=EXTREMES)
    @settings(max_examples=300)
    def test_pivot_annihilated_at_any_magnitude(self, pivot, aii, ajj):
        dense = np.array(
            [[0.5, 0.25, -0.75, 0.125],
             [0.25, aii, 0.625, pivot],
             [-0.75, 0.625, -0.5, 0.375],
             [0.125, pivot, 0.375, ajj]]
        )
        m = SymMatrix.from_dense(dense)
        rot = rotation_for_pivot(m, 2, 4)
        out = two_sided(m, rot)
        assert abs(out.entry(2, 4)) <= rotated_pivot_bound(aii, ajj, pivot, rot)
        assert np.all(np.isfinite(out.to_dense()))


class TestApplyTwoSided:
    """The two-sided update R^T M R of ``core._plane_step``: at any angle through
    ``oracles.two_sided``, which keeps the rotated pivot, and at the annihilating angle
    through ``annihilate``."""

    def test_identity_rotation_is_noop(self):
        m = SymMatrix.from_dense([[1.0, 2.0], [2.0, 3.0]])
        rot = PlaneRotation(1, 2, 1.0, 0.0, 0.0)
        assert two_sided(m, rot) == m

    def test_embedded_sign_convention(self):
        rot = PlaneRotation(1, 3, math.cos(0.3), math.sin(0.3), 0.3)
        embedded = embed(rot, 4)
        assert embedded[0, 2] == -rot.s
        assert embedded[2, 0] == rot.s

    @given(symmetric_matrices())
    @settings(max_examples=50)
    @example(SymMatrix.from_dense(TINY_UNIFORM))  # rotated pivot -7.08e-220, rounding level
    def test_pivot_annihilated(self, m):
        rot = rotation_for_pivot(m, 2, 4)
        out = two_sided(m, rot)
        assert abs(out.entry(2, 4)) <= 1e-15 * max(frobenius(m), 1e-300)

    @given(symmetric_matrices(), st.floats(min_value=-math.pi / 4, max_value=math.pi / 4))
    @settings(max_examples=50)
    @example(SymMatrix.from_dense(ALL_SUBNORMAL), 0.3)
    def test_frobenius_preserved(self, m, phi):
        rot = PlaneRotation(1, 3, math.cos(phi), math.sin(phi), phi)
        out = two_sided(m, rot)
        # a rotated entry is rounded to the subnormal spacing, where it can lose every bit
        assert frobenius(out) == pytest.approx(frobenius(m), rel=1e-13, abs=8 * SUBNORMAL)

    @given(symmetric_matrices())
    @settings(max_examples=50)
    def test_matches_dense_congruence(self, m):
        out, rot = annihilate(m, 1, 4)
        g = embed(rot, 4)
        expected = g.T @ m.to_dense() @ g
        assert np.allclose(out.to_dense(), expected, atol=1e-14 * max(1.0, frobenius(m)))

    @given(symmetric_matrices())
    @settings(max_examples=50)
    @example(SymMatrix.from_dense(PIVOT_AMONG_TINY))
    def test_spectrum_preserved(self, m):
        out, _ = annihilate(m, 1, 2)
        before = spectrum(m.to_dense())
        after = spectrum(out.to_dense())
        assert np.allclose(before, after, atol=1e-10 * max(1.0, frobenius(m)))


class TestAnnihilate:
    def test_diagonal_is_fixed_point(self):
        m = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        out, rot = annihilate(m, 1, 2)
        assert out == m
        assert rot.s == 0.0

    def test_two_by_two_eigenvalues(self):
        m = SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        out, _ = annihilate(m, 1, 2)
        assert off_norm(out) == 0.0
        assert sorted(out.diagonal().tolist()) == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_decrement_identity_seeded(self):
        rng = np.random.default_rng(2718)
        raw = rng.uniform(-1, 1, (4, 4))
        m = SymMatrix.from_dense((raw + raw.T) / 2)
        out, _ = annihilate(m, 1, 3)
        drop = off_norm(m) ** 2 - off_norm(out) ** 2
        assert drop == pytest.approx(m.entry(1, 3) ** 2, rel=1e-13, abs=1e-300)

    @given(symmetric_matrices())
    @settings(max_examples=50)
    def test_decrement_identity_and_monotonicity(self, m):
        for (i, j) in ((1, 2), (2, 4), (3, 4)):
            out, _ = annihilate(m, i, j)
            expected = off_norm(m) ** 2 - m.entry(i, j) ** 2
            scale = max(off_norm(m) ** 2, 1e-300)
            assert abs(off_norm(out) ** 2 - expected) <= 1e-13 * scale
            assert off_norm(out) <= off_norm(m) * (1 + 1e-14)


class TestMatrixText:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-1, 1, (4, 4))
        m = SymMatrix.from_dense((raw + raw.T) / 2)
        assert parse_matrix(format_matrix(m)) == m

    def test_rejects_asymmetric_text(self):
        with pytest.raises(ValueError, match="not symmetric"):
            parse_matrix("1 2\n2.000001 3\n")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="n\\*n"):
            parse_matrix("1 2 3 4 5")
