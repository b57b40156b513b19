"""Symmetric-matrix primitives: off-norm, plane rotations, annihilation steps.

Matrix indices in the public API are 1-based, matching the (r, s) pivot-pair
convention used throughout the package.  Dense arrays returned by
``SymMatrix.to_dense`` are ordinary 0-based numpy arrays.

``_rotation_params`` specifies the rotation every kernel applies, in IEEE
operations only.  The packed layout (``_packed_layout``: the strictly upper
entries row by row, then the diagonal), in which ``SymMatrix`` stores its
entries, the per-pivot positions (``_pivot_plan``), the one plane step
(``_plane_step``), the scalar sweep (``_sweep``) of ``run_cycles``,
``run_parallel_cycle`` and ``run_j_jacobi``, and the one scalar sum of S^2
(``_off_norm_packed``), behind ``off_norm`` and the sweep, live here too; the
vectorized batch kernel is ``driver.batch_sweep``.

``SymMatrix`` holds the packed layout as a tuple of Python floats, which
``from_dense`` fills from the rows of ``_read_dense`` and
``SymMatrix._dense_entries`` writes out, row by row.  The single-matrix paths
(``annihilate``, ``off_norm`` and the scalar sweep) copy it into a working list
with ``_packed_entries`` and build their result from that list with
``SymMatrix._of_floats``, with no numpy round trip; ``SymMatrix(n, packed)`` is
the constructor that validates.

The scalar sweep does only the rotation work: it records each step's
(c, s, t) and tangent and sums S once, at the end of the sweep.
``_step_off_norms`` rebuilds the S before and after every step by replaying
the recorded steps on the input's entries; ``driver`` describes when a
report runs that replay.

Everything here is a pure function over immutable values; no locking is
needed for concurrent use.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SymMatrix",
    "PlaneRotation",
    "off_norm",
    "rotation_for_pivot",
    "annihilate",
    "parse_matrix",
    "format_matrix",
    "read_matrix_file",
]

MIN_DIM = 2
MAX_DIM = 16
SYMMETRY_RTOL = 1e-12
SWEEP_GROWTH_LIMIT = 2.0**510  # below this, S times a sweep's growth bound keeps every S^2 finite


# --- packed layout -------------------------------------------------------------

@lru_cache(maxsize=None)
def _packed_layout(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The (r, c) of every packed entry, and the packed position of every (r, c).

    The strictly upper entries come first, row by row (the order S^2 sums
    them in), then the diagonal.  Positions are symmetric: pos[r][c] ==
    pos[c][r].
    """
    entries = [(r, c) for r in range(n) for c in range(r + 1, n)] + [(r, r) for r in range(n)]
    pos = [[0] * n for _ in range(n)]
    for k, (r, c) in enumerate(entries):
        pos[r][c] = pos[c][r] = k
    return tuple(entries), tuple(map(tuple, pos))


@lru_cache(maxsize=None)
def _dense_order(n: int) -> operator.itemgetter:
    """Reads the n^2 entries of a packed tuple row by row, as one tuple (n >= 2,
    so ``itemgetter`` always gets several positions and returns a tuple)."""
    return operator.itemgetter(*(k for row in _packed_layout(n)[1] for k in row))


@lru_cache(maxsize=None)
def _pivot_plan(n: int, i: int, j: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """Packed positions of a_ii, a_jj and a_ij for the 1-based pivot (i, j),
    and the (a_ki, a_kj) position pairs for every other k, in order of k."""
    _, pos = _packed_layout(n)
    i0, j0 = i - 1, j - 1
    others = tuple((pos[k][i0], pos[k][j0]) for k in range(n) if k not in (i0, j0))
    return pos[i0][i0], pos[j0][j0], pos[i0][j0], others


def _scaled_norm(x: np.ndarray) -> float:
    """2-norm (Frobenius for a matrix) with numpy's bits: ``_rescaled_norm`` of the
    entries of ``x`` read in memory order, and the largest |entry|.

    ``np.linalg.norm(x)`` computes sqrt(v.dot(v)) with v = ``x.ravel(order="K")``,
    and so does the common branch of ``_rescaled_norm``, so the two results are
    equal.  Order "K" matters: for a non-contiguous ``x`` (a transpose, a strided
    view) a plain ``ravel()`` lists the entries in another order, and the dot
    product sums their squares in that order.
    """
    return _rescaled_norm(x.ravel(order="K"), float(np.abs(x).max()))


def _rescaled_norm(flat: np.ndarray, scale: float) -> float:
    """sqrt(flat . flat), rescaled by ``scale``, the largest |entry| of ``flat``, when
    the squares of finite entries overflow, or when that entry is below 2^-511, so
    its square can underflow.  Only when the sum of squares could overflow does the
    dot product run under ``np.errstate``."""
    if 0.0 < scale < 2.0**-511:
        return scale * _norm_of(flat / scale)
    if scale * scale * flat.size < 2.0**1023:
        return _norm_of(flat)
    with np.errstate(over="ignore"):
        norm = _norm_of(flat)
    if math.isinf(norm) and math.isfinite(scale):
        norm = scale * _norm_of(flat / scale)
    return norm


def _norm_of(flat: np.ndarray) -> float:
    """The 2-norm of a 1-D array as ``np.linalg.norm`` computes it, without its wrapper."""
    return math.sqrt(flat.dot(flat))


def _real_array(arr, what: str) -> np.ndarray:
    """``arr`` as a float array; ``ValueError`` naming ``what`` for entries that are not real
    numbers (complex, text, or an object array holding either), which the cast would
    truncate to their real part or parse, and for a Python int beyond the float range.
    A wider float beyond the float64 range becomes inf without a warning, for the
    caller's finiteness check to reject."""
    a = np.asarray(arr)
    kind = a.dtype.kind
    if kind not in "biufO" or kind == "O" and not all(isinstance(x, numbers.Real) for x in a.flat):
        raise ValueError(f"{what} entries must be real numbers, got dtype {a.dtype}")
    if kind == "f" and a.dtype.itemsize > 8:
        with np.errstate(over="ignore"):
            return a.astype(float)
    try:
        return a.astype(float, copy=False)
    except OverflowError:  # an object array holding an int that no float can hold
        raise ValueError(f"{what} entries must be finite") from None


def _check_dimension(n: int) -> None:
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}], got {n}")


def _read_dense(arr, what: str) -> tuple[np.ndarray, list[list[float]]]:
    """The one reader of dense input: ``arr`` as a float array and as rows of Python floats;
    ``ValueError`` naming ``what`` unless it is real, square, of a legal dimension and finite."""
    a = _real_array(arr, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square {what}, got shape {a.shape}")
    _check_dimension(a.shape[0])
    rows = a.tolist()
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise ValueError(f"{what} entries must be finite")
    return a, rows


class SymMatrix:
    """Dense real symmetric matrix with a single stored copy of each entry.

    Only the upper triangle (including the diagonal) is stored, in the
    packed layout of ``_packed_layout``, as a tuple of Python floats: the
    values the scalar kernels read and write, so symmetry holds by
    construction.  Instances are treated as immutable values.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed):
        _check_dimension(n)
        size = n * (n + 1) // 2
        try:
            # Python numbers, or rows if an array is not 1-D
            values = list(packed.tolist() if isinstance(packed, np.ndarray) else packed)
            finite = all(map(math.isfinite, values))  # unlike float(), rejects text and complex
        except TypeError:  # not a flat sequence of real numbers
            values, finite = [], True
        except OverflowError:  # an int that no float can hold
            finite = False
        if len(values) != size:
            raise ValueError(f"packed storage must have length {size}, all real numbers")
        if not finite:
            raise ValueError("matrix entries must be finite")
        self.n = n
        self._packed = tuple(map(float, values))

    @classmethod
    def _of_floats(cls, n: int, values: list[float]) -> "SymMatrix":
        """A matrix of Python floats that the package built, ``values`` in the packed
        layout of dimension ``n``: the finiteness check of ``__init__`` without its
        conversions and length and dimension checks, which such values pass."""
        if not all(map(math.isfinite, values)):
            raise ValueError("matrix entries must be finite")
        m = object.__new__(cls)
        m.n = n
        m._packed = tuple(values)
        return m

    @classmethod
    def from_dense(cls, arr) -> "SymMatrix":
        """Build from a full square array, rejecting asymmetry beyond ``SYMMETRY_RTOL``."""
        _, rows = _read_dense(arr, "matrix")
        n = len(rows)
        entries = _packed_layout(n)[0]
        scale = max(map(abs, itertools.chain.from_iterable(rows)))
        # Python floats: an overflowing a_ij - a_ji is inf, with no warning
        gap = max(abs(rows[r][c] - rows[c][r]) for r, c in entries[:n * (n - 1) // 2])
        if gap > SYMMETRY_RTOL * max(scale, 1e-300):
            raise ValueError(
                f"matrix is not symmetric: max |a_ij - a_ji| = {gap:.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} relative"
            )
        return cls._of_floats(n, [rows[r][c] for r, c in entries])

    def entry(self, r: int, s: int) -> float:
        """Entry at 1-based position (r, s); symmetric lookup."""
        if not (1 <= r <= self.n and 1 <= s <= self.n):
            raise IndexError(f"index ({r}, {s}) out of range for n={self.n}")
        return self._packed[_packed_layout(self.n)[1][r - 1][s - 1]]

    def _dense_entries(self) -> tuple[float, ...]:
        """The one writer of dense output: the n^2 stored floats, row by row."""
        return _dense_order(self.n)(self._packed)

    def _rows(self) -> list[tuple[float, ...]]:
        flat, n = self._dense_entries(), self.n
        return [flat[k:k + n] for k in range(0, n * n, n)]

    def to_dense(self) -> np.ndarray:
        return np.array(self._dense_entries()).reshape(self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return np.array(self._diagonal_floats())

    def _diagonal_floats(self) -> tuple[float, ...]:
        """The diagonal as the stored Python floats, for checks that need no array."""
        return self._packed[self.n * (self.n - 1) // 2:]

    def frobenius(self) -> float:
        """Frobenius norm with the bits of ``_scaled_norm(self.to_dense())``, taking the
        largest |entry| from the stored floats rather than through numpy."""
        return _rescaled_norm(np.array(self._dense_entries()), max(map(abs, self._packed)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and self._packed == other._packed

    def __repr__(self) -> str:
        rows = ", ".join("[" + " ".join(f"{v:.6g}" for v in row) + "]" for row in self._rows())
        return f"SymMatrix({self.n}, {rows})"


@dataclass(frozen=True)
class PlaneRotation:
    """Rotation in the (i, j) plane whose embedded (i, j) element equals -s.

    Angles are restricted to [-pi/4, pi/4]; ``c`` and ``s`` are the cosine
    and sine of ``phi``.
    """

    i: int
    j: int
    c: float
    s: float
    phi: float

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got ({self.i}, {self.j})")
        if abs(self.c * self.c + self.s * self.s - 1.0) > 1e-15:
            raise ValueError("c^2 + s^2 must equal 1 within 1e-15")
        if abs(self.phi) > math.pi / 4:
            raise ValueError("rotation angle must lie in [-pi/4, pi/4]")


def _rotation_params(aii: float, ajj: float, aij: float) -> tuple[float, float, float]:
    """Stable (c, s, t) annihilating the (i, j) entry, t = tan(phi) with |phi| <= pi/4.

    The specification both sweep kernels follow, in IEEE operations only.
    Solves tan(2*phi) = 2*aij / (aii - ajj) via t = tan(phi),
    t = copysign(1, tau) / (|tau| + sqrt(1 + tau*tau)) with
    tau = (aii - ajj) / (2*aij), then c = 1/h and s = t/h with
    h = sqrt(1 + t*t).  A zero pivot gives the identity; a diagonal tie
    gives t = copysign(1, aij), a quarter turn: the + 0.0 turns the -0.0
    of -0.0 - +0.0 into +0.0, as in every other tie.  Where tau*tau overflows (a
    subnormal pivot, or |tau| above about 1.3e154) t rounds to 0 and would
    leave the pivot in place; t = aij / (aii - ajj), its limit, is used
    instead.  The inputs are Python floats (``SymMatrix.entry`` and the
    sweep's list give them), so these overflows raise no numpy warnings.
    The angle phi = atan(t) is taken only where it is read.
    """
    if aij == 0.0:
        return 1.0, 0.0, 0.0
    diff = aii - ajj + 0.0
    tau = diff / (2.0 * aij)
    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    if t == 0.0:
        t = aij / diff
    h = math.sqrt(1.0 + t * t)
    return 1.0 / h, t / h, t


def _packed_entries(a: SymMatrix) -> list[float]:
    """A fresh list of the entries of ``a`` in the packed layout."""
    return list(a._packed)


def _plane_step(
    e: list[float], plan: tuple[int, int, int, tuple[tuple[int, int], ...]],
    c: float, s: float, t: float,
) -> None:
    """e <- F^T e F in place for the plane transformation F = [[c, t], [s, c]] at ``plan``.

    A rotation has t = -s, a hyperbolic transformation s = t = sinh.  Each
    pair (a_ki, a_kj) becomes (c*a_ki + s*a_kj, c*a_kj + t*a_ki); a_ii and
    a_jj are the second (column) stage of the dense row-then-column update,
    taken from the row-updated a_ii, a_ij, a_ji and a_jj; the pivot is
    stored as +0.0.  With t = -s, t*u is -(s*u) exactly, and IEEE addition
    commutes, so these are the dense update's bits.
    """
    ii, jj, ij, others = plan
    for p, q in others:
        u = e[p]
        v = e[q]
        e[p] = c * u + s * v
        e[q] = c * v + t * u
    aii = e[ii]
    ajj = e[jj]
    aij = e[ij]
    row_ii = c * aii + s * aij
    row_ij = c * aij + s * ajj
    row_ji = c * aij + t * aii
    row_jj = c * ajj + t * aij
    e[ii] = c * row_ii + s * row_ij
    e[jj] = c * row_jj + t * row_ji
    e[ij] = 0.0


def _off_norm_packed(e: list[float], n_off: int) -> float:
    """S of the packed entries ``e``, adding the squares of the first ``n_off``
    (the strictly upper entries) one by one, in the order in which
    ``driver.batch_sweep`` reduces its rows.  Squares are ``x * x`` over
    Python floats.  Raises ``ValueError`` when S^2 is not finite.
    """
    total = 0.0
    for x in e[:n_off]:
        total += x * x
    if not math.isfinite(total):
        raise ValueError("S^2 is not finite: entries too large for float64 squares")
    return math.sqrt(total)


def _step_off_norms(a: SymMatrix, records: list[tuple]) -> list[float]:
    """S of ``a``, then S after each step of ``records``, replayed on a's packed entries.

    Each record's (c, s, t) is applied with ``_plane_step`` at ``_pivot_plan``
    (a transform that the run kept beside A is left out), and S is summed
    after each step: the sweep's operations on the same entries, so the
    sweep's bits.  Raises ``ValueError`` at the first S^2 that is not finite.
    """
    n = a.n
    n_off = n * (n - 1) // 2
    e = _packed_entries(a)
    norms = [_off_norm_packed(e, n_off)]
    for (i, j), _, c, s, t, _ in records:
        _plane_step(e, _pivot_plan(n, i, j), c, s, t)
        norms.append(_off_norm_packed(e, n_off))
    return norms


def _sweep(a: SymMatrix, e: list[float], plan: list, s: float, records: list[tuple]) -> float:
    """One sweep over the packed entries ``e`` in place, from off-norm ``s``; returns S after it.

    ``e`` holds the run on ``a`` whose steps so far are ``records``.
    ``plan`` holds per step its pivot pair, its ``_pivot_plan``, a function
    of (a_ii, a_jj, a_ij) giving (c, s, tangent), and the sign that makes
    t = -s (a rotation) or t = s (a hyperbolic step) in F = [[c, t], [s, c]].
    Every step is applied and its pivot stored as +0.0, even when s = +-0,
    as in ``driver.batch_sweep``, and appended to ``records`` as
    (pair, a_ij before, c, s, t, tangent).  S is summed once, after the
    last step; ``_step_off_norms`` rebuilds the S around every step.

    Raises ``ValueError`` when S^2 is not finite after any step.  A step
    maps each (a_ki, a_kj) by a matrix of 2-norm at most c + |s| and zeroes
    the pivot, so it raises S by at most that factor.  While S times the
    product of those factors stays below ``SWEEP_GROWTH_LIMIT``, no S^2 of
    the sweep can overflow; otherwise, and when a step raises
    ``ArithmeticError`` (a hyperbolic breakdown), the run is replayed by
    ``_step_off_norms``, which raises at the first S^2 that is not finite.
    """
    growth = 1.0
    try:
        for pair, pivot, params, t_sign in plan:
            ii, jj, ij, _ = pivot
            piv = e[ij]
            c, sn, tangent = params(e[ii], e[jj], piv)
            t = t_sign * sn
            _plane_step(e, pivot, c, sn, t)
            growth *= c + abs(sn)
            records.append((pair, piv, c, sn, t, tangent))
    except ArithmeticError:  # a hyperbolic breakdown, which an earlier overflow takes precedence over
        if not s * growth < SWEEP_GROWTH_LIMIT:
            _step_off_norms(a, records)
        raise
    if not s * growth < SWEEP_GROWTH_LIMIT:  # also when the product is inf or NaN
        _step_off_norms(a, records)
    return _off_norm_packed(e, a.n * (a.n - 1) // 2)


def _check_pivot(n: int, i: int, j: int) -> None:
    if not (1 <= i < j <= n):
        raise IndexError(f"pivot ({i}, {j}) out of range for n={n}")


def _check_cycles(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer >= 0 (``operator.index``)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{name} must be nonnegative and an integer, got {value!r}")
    return count


def off_norm(m) -> float:
    """Square root of the sum of squares of the strictly upper entries.

    Takes a ``SymMatrix`` or a dense array, which ``SymMatrix.from_dense``
    reads (so it must be square, symmetric and finite), and gives the bits
    the sweep kernels report.  Raises ``ValueError`` when S^2 is not finite.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix.from_dense(m)
    return _off_norm_packed(_packed_entries(m), m.n * (m.n - 1) // 2)


def rotation_for_pivot(m: SymMatrix, i: int, j: int) -> PlaneRotation:
    """Rotation that zeroes the (i, j) entry of ``m`` (1-based, i < j)."""
    _check_pivot(m.n, i, j)
    c, s, t = _rotation_params(m.entry(i, i), m.entry(j, j), m.entry(i, j))
    return PlaneRotation(i, j, c, s, math.atan(t))


def annihilate(m: SymMatrix, i: int, j: int) -> tuple[SymMatrix, PlaneRotation]:
    """One Jacobi step: rotate so the (i, j) entry becomes zero.

    The pivot entry is stored as +0.0 (it is at rounding level after the
    update anyway), so S^2 drops by exactly the squared pivot value up to
    roundoff in the remaining entries.  Every step is applied, even when
    s = +-0, as both sweep kernels apply it.
    """
    rot = rotation_for_pivot(m, i, j)
    e = _packed_entries(m)
    _plane_step(e, _pivot_plan(m.n, i, j), rot.c, rot.s, -rot.s)
    return SymMatrix._of_floats(m.n, e), rot


def _parse_square(text: str) -> np.ndarray:
    """The n-by-n array of a whitespace-separated row-major matrix text."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty matrix text")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"bad matrix literal: {exc}") from None
    n = math.isqrt(len(values))
    if n * n != len(values):
        raise ValueError(f"expected n*n values, got {len(values)}")
    return np.array(values).reshape(n, n)


def parse_matrix(text: str) -> SymMatrix:
    """Parse a whitespace-separated row-major full symmetric matrix."""
    return SymMatrix.from_dense(_parse_square(text))


def format_matrix(m: SymMatrix) -> str:
    return "".join(" ".join(map(repr, row)) + "\n" for row in m._rows())


def read_matrix_file(path) -> SymMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())
