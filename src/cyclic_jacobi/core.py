"""Symmetric-matrix primitives: off-norm, plane rotations, annihilation steps.

Matrix indices in the public API are 1-based, matching the (r, s) pivot-pair
convention used throughout the package.  Dense arrays returned by
``SymMatrix.to_dense`` are ordinary 0-based numpy arrays.

Everything here is a pure function over immutable values; no locking is
needed for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SymMatrix",
    "PlaneRotation",
    "off_norm",
    "rotation_for_pivot",
    "apply_two_sided",
    "annihilate",
    "parse_matrix",
    "format_matrix",
    "read_matrix_file",
]

MIN_DIM = 2
MAX_DIM = 16
SYMMETRY_RTOL = 1e-12


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=32)
def _triu_indices(n: int, k: int, /) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, built once per (n, k) and read-only."""
    rows, cols = np.triu_indices(n, k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _packed_index(n: int, r: int, s: int) -> int:
    # 1-based (r, s) with r <= s into row-major upper-triangle storage.
    r0 = r - 1
    s0 = s - 1
    return r0 * n - r0 * (r0 - 1) // 2 + (s0 - r0)


class SymMatrix:
    """Dense real symmetric matrix with a single stored copy of each entry.

    Only the upper triangle (including the diagonal) is stored, so symmetry
    holds by construction.  Instances are treated as immutable values.
    """

    __slots__ = ("n", "_packed")

    def __init__(self, n: int, packed: np.ndarray):
        if not MIN_DIM <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}], got {n}")
        packed = np.asarray(packed, dtype=float)
        if packed.shape != (_packed_size(n),):
            raise ValueError(f"packed storage must have length {_packed_size(n)}")
        if not np.all(np.isfinite(packed)):
            raise ValueError("matrix entries must be finite")
        self.n = n
        self._packed = packed.copy()
        self._packed.setflags(write=False)

    @classmethod
    def from_dense(cls, arr, rtol: float = SYMMETRY_RTOL) -> "SymMatrix":
        """Build from a full square array, rejecting asymmetry beyond ``rtol``."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if gap > rtol * max(scale, 1e-300):
            raise ValueError(
                f"matrix is not symmetric: max |a_ij - a_ji| = {gap:.3e} "
                f"exceeds {rtol:.0e} relative"
            )
        return cls(n, a[_triu_indices(n, 0)])

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        values = np.asarray(values, dtype=float)
        return cls.from_dense(np.diag(values))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_dense(np.eye(n))

    def entry(self, r: int, s: int) -> float:
        """Entry at 1-based position (r, s); symmetric lookup."""
        if not (1 <= r <= self.n and 1 <= s <= self.n):
            raise IndexError(f"index ({r}, {s}) out of range for n={self.n}")
        if r > s:
            r, s = s, r
        return float(self._packed[_packed_index(self.n, r, s)])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu = _triu_indices(self.n, 0)
        out[iu] = self._packed
        out.T[iu] = self._packed
        return out

    def diagonal(self) -> np.ndarray:
        return np.array([self.entry(i, i) for i in range(1, self.n + 1)])

    def frobenius(self) -> float:
        """Frobenius norm, rescaled by the largest |a_ij| when the squares overflow."""
        dense = self.to_dense()
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(dense))
        if math.isinf(norm):  # the entries are finite, so only the squares overflowed
            scale = float(np.abs(dense).max())
            norm = scale * float(np.linalg.norm(dense / scale))
        return norm

    def allclose(self, other: "SymMatrix", rtol: float = 1e-13, atol: float = 0.0) -> bool:
        return self.n == other.n and np.allclose(
            self._packed, other._packed, rtol=rtol, atol=atol
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._packed, other._packed))

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + " ".join(f"{self.entry(r, s):.6g}" for s in range(1, self.n + 1)) + "]"
            for r in range(1, self.n + 1)
        )
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

    @property
    def is_identity(self) -> bool:
        return self.s == 0.0

    def embed(self, n: int) -> np.ndarray:
        """Dense n-by-n rotation matrix."""
        if self.j > n:
            raise IndexError(f"rotation plane ({self.i}, {self.j}) exceeds n={n}")
        out = np.eye(n)
        i0, j0 = self.i - 1, self.j - 1
        out[i0, i0] = self.c
        out[j0, j0] = self.c
        out[i0, j0] = -self.s
        out[j0, i0] = self.s
        return out


def _rotation_params(aii: float, ajj: float, aij: float) -> tuple[float, float, float]:
    """Stable (c, s, phi) annihilating the (i, j) entry, with |phi| <= pi/4.

    Solves tan(2*phi) = 2*aij / (aii - ajj) via t = tan(phi),
    t = sign(tau) / (|tau| + sqrt(1 + tau^2)) with tau = (aii - ajj) / (2*aij).
    A zero pivot gives the identity; an exact diagonal tie gives
    phi = sign(aij) * pi/4.  Where tau overflows (a subnormal pivot, or
    |tau| near the top of the range) the formula rounds t to 0 and would
    leave the pivot in place; t = aij / (aii - ajj), its limit, is used
    instead.  The inputs are taken as Python floats, so these overflows
    raise no numpy warnings.
    """
    aii, ajj, aij = float(aii), float(ajj), float(aij)
    if aij == 0.0:
        return 1.0, 0.0, 0.0
    diff = aii - ajj
    if diff == 0.0:
        t = 1.0 if aij > 0.0 else -1.0
    else:
        tau = diff / (2.0 * aij)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        if t == 0.0:
            t = aij / diff
    h = math.hypot(1.0, t)
    return 1.0 / h, t / h, math.atan(t)


def _apply_rotation(a: np.ndarray, i0: int, j0: int, c: float, s: float) -> None:
    """Two-sided update a <- R^T a R in place (0-based plane indices)."""
    ri = a[i0, :].copy()
    rj = a[j0, :].copy()
    a[i0, :] = c * ri + s * rj
    a[j0, :] = c * rj - s * ri
    ci = a[:, i0].copy()
    cj = a[:, j0].copy()
    a[:, i0] = c * ci + s * cj
    a[:, j0] = c * cj - s * ci


def _check_pivot(n: int, i: int, j: int) -> None:
    if not (1 <= i < j <= n):
        raise IndexError(f"pivot ({i}, {j}) out of range for n={n}")


def off_norm(m) -> float:
    """Square root of the sum of squares of the strictly upper entries.

    Takes a ``SymMatrix`` or a dense square array; the sweep drivers call it
    on their working arrays after every step.
    """
    if isinstance(m, SymMatrix):
        dense = m.to_dense()
    else:
        dense = np.asarray(m, dtype=float)
    iu = _triu_indices(dense.shape[0], 1)
    return float(np.sqrt(np.sum(dense[iu] ** 2)))


def rotation_for_pivot(m: SymMatrix, i: int, j: int) -> PlaneRotation:
    """Rotation that zeroes the (i, j) entry of ``m`` (1-based, i < j)."""
    _check_pivot(m.n, i, j)
    c, s, phi = _rotation_params(m.entry(i, i), m.entry(j, j), m.entry(i, j))
    return PlaneRotation(i, j, c, s, phi)


def apply_two_sided(m: SymMatrix, rot: PlaneRotation) -> SymMatrix:
    """Return R^T M R.  Symmetry and the Frobenius norm are preserved."""
    _check_pivot(m.n, rot.i, rot.j)
    dense = m.to_dense()
    _apply_rotation(dense, rot.i - 1, rot.j - 1, rot.c, rot.s)
    return SymMatrix(m.n, dense[_triu_indices(m.n, 0)])


def annihilate(m: SymMatrix, i: int, j: int) -> tuple[SymMatrix, PlaneRotation]:
    """One Jacobi step: rotate so the (i, j) entry becomes zero.

    The pivot entry is stored as an exact zero (it is at rounding level after
    the update anyway), so S^2 drops by exactly the squared pivot value up to
    roundoff in the remaining entries.
    """
    _check_pivot(m.n, i, j)
    rot = rotation_for_pivot(m, i, j)
    dense = m.to_dense()
    if not rot.is_identity:
        _apply_rotation(dense, i - 1, j - 1, rot.c, rot.s)
        dense[i - 1, j - 1] = 0.0
        dense[j - 1, i - 1] = 0.0
    return SymMatrix(m.n, dense[_triu_indices(m.n, 0)]), rot


def parse_matrix(text: str, rtol: float = SYMMETRY_RTOL) -> SymMatrix:
    """Parse a whitespace-separated row-major full symmetric matrix."""
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
    return SymMatrix.from_dense(np.array(values).reshape(n, n), rtol=rtol)


def format_matrix(m: SymMatrix) -> str:
    dense = m.to_dense()
    lines = [" ".join(repr(v) for v in row) for row in dense.tolist()]
    return "\n".join(lines) + "\n"


def read_matrix_file(path) -> SymMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())
