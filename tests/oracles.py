"""Reference computations shared by the test modules."""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from cyclic_jacobi.classification import (
    _ANCHOR_TARGETS,
    SERIAL_GAMMA,
    SERIAL_GAMMA_SQ,
    UNIVERSAL_BOUND,
    Bound,
    GeneralizedSerial,
    Parallel,
    SerialPerm,
    _relabeled_serial_index,
)
from cyclic_jacobi.core import (
    SYMMETRY_RTOL,
    SymMatrix,
    _off_norm_packed,
    _packed_entries,
    _pivot_plan,
    _plane_step,
    _rotation_params,
)
from cyclic_jacobi.jjacobi import _hyperbolic_params
from cyclic_jacobi.orderings import (
    SHIFT,
    TRANSPOSE,
    Shift,
    Transpose,
    _nearest,
    _relabel,
    _weak_search,
    identity_permutation,
    invert,
)


def spectrum(dense):
    """Sorted eigenvalues of a symmetric matrix, taken at an exact power-of-two scale.

    The matrix is scaled by a power of two so that its largest |entry| lies in
    [0.5, 1), scaled entries below 2**-400 are set to 0, and the ``eigvalsh``
    values are scaled back.  LAPACK's symmetric eigensolvers can lose digits
    on a matrix holding entries whose squares fall below the normal range.
    By Weyl's inequality the zeroed entries move each eigenvalue by at most
    n * 2**-400 of the scale.
    """
    dense = np.asarray(dense, dtype=float)
    exp = np.frexp(np.max(np.abs(dense)))[1]
    scaled = np.ldexp(dense, -exp)
    scaled[np.abs(scaled) < 2.0**-400] = 0.0
    return np.ldexp(np.sort(np.linalg.eigvalsh(scaled)), exp)


def embed(rot, n):
    """The dense n-by-n matrix of the plane rotation ``rot``: the identity with c at
    (i, i) and (j, j), -s at (i, j) and s at (j, i)."""
    out = np.eye(n)
    i0, j0 = rot.i - 1, rot.j - 1
    out[i0, i0] = out[j0, j0] = rot.c
    out[i0, j0] = -rot.s
    out[j0, i0] = rot.s
    return out


def layout_indices(n):
    """The rows and the columns of the packed layout (strictly upper entries row by row,
    then the diagonal), from numpy's triangle indices."""
    upper_rows, upper_cols = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    return np.concatenate([upper_rows, diagonal]), np.concatenate([upper_cols, diagonal])


def numpy_from_dense(a):
    """(packed entries, None) for a finite square float array within ``SYMMETRY_RTOL`` of
    symmetric, gathered as ``a[rows, cols]``; else (None, the ``ValueError`` message of
    ``SymMatrix.from_dense``).  The checks are numpy's, over the whole array."""
    if not np.isfinite(a).all():
        return None, "matrix entries must be finite"
    scale = float(np.abs(a).max())
    with np.errstate(over="ignore"):
        gap = float(np.abs(a - a.T).max())
    if gap > SYMMETRY_RTOL * max(scale, 1e-300):
        return None, (f"matrix is not symmetric: max |a_ij - a_ji| = {gap:.3e} "
                      f"exceeds {SYMMETRY_RTOL:.0e} relative")
    return a[layout_indices(len(a))], None


def numpy_to_dense(n, packed):
    """The dense n-by-n array of ``packed``, scattered as ``out[rows, cols] = p`` and
    ``out[cols, rows] = p``."""
    rows, cols = layout_indices(n)
    out = np.zeros((n, n))
    out[rows, cols] = packed
    out[cols, rows] = packed
    return out


def exact_dot(u, v):
    """The float nearest the exact sum of the rounded products u_k * v_k, summed as
    ``fractions.Fraction``: the bits ``core._dot`` must give."""
    return float(sum(Fraction(x * y) for x, y in zip(u, v)))


def gram(factor):
    """L^T L of the square array ``factor``, every entry one ``math.fsum`` of exact-rounded
    products: exactly symmetric, independent of any BLAS kernel, and the matrix that
    ``solve_factored`` sweeps for that factor."""
    columns = np.asarray(factor, dtype=float).T.tolist()
    return np.array([[math.fsum(x * y for x, y in zip(u, v)) for v in columns] for u in columns])


def validated(m):
    """``m`` rebuilt by the public constructor ``SymMatrix(n, list)``, which checks the
    dimension, the length and finiteness and converts every entry with ``float``."""
    return SymMatrix(m.n, list(m._packed))


def same_matrix(m, ref):
    """Whether ``m`` and ``ref`` are both ``SymMatrix`` of one dimension whose entries are
    Python floats with equal bits (``==`` would equate -0.0 and +0.0)."""
    return (
        type(m) is type(ref) is SymMatrix and m.n == ref.n
        and all(type(v) is float for v in m._packed + ref._packed)
        and [v.hex() for v in m._packed] == [v.hex() for v in ref._packed]
    )


def relabeled(dense, q):
    """P A P^T for the relabeling ``q`` of ``orderings.permute``: entry (r, s) of the
    square array ``dense`` moves to (q(r), q(s))."""
    inv = np.array(invert(q)) - 1
    return np.asarray(dense)[np.ix_(inv, inv)]


def sign_similar(dense, d):
    """D A D for D = diag(``d``), d = +-1: entry (r, s) of the square array ``dense`` times
    d_r d_s, an exact change of sign (which turns +0.0 into -0.0)."""
    d = np.asarray(d, dtype=float)
    return d[:, None] * np.asarray(dense) * d[None, :]


def pin_12_34(mats):
    """The (m, n, n) stack ``mats`` with a_12 and a_34 (and their mirrors) set to 0, in place."""
    mats[:, 0, 1] = mats[:, 1, 0] = 0.0
    mats[:, 2, 3] = mats[:, 3, 2] = 0.0
    return mats


def two_sided(m, rot):
    """R^T M R for the plane rotation ``rot`` of any angle, with the dense update's bits.

    ``core._plane_step`` with t = -s, except at the pivot, which the plane
    step stores as +0.0: here it is c*(c*a_ij + s*a_jj) - s*(c*a_ii + s*a_ij),
    as the dense update rounds it, so a rotation that annihilates leaves it
    at rounding level.
    """
    c, s = rot.c, rot.s
    plan = _pivot_plan(m.n, rot.i, rot.j)
    e = _packed_entries(m)
    aii, ajj, aij = e[plan[0]], e[plan[1]], e[plan[2]]
    _plane_step(e, plan, c, s, -s)
    e[plan[2]] = c * (c * aij + s * ajj) - s * (c * aii + s * aij)
    return SymMatrix(m.n, e)


def replayed_transform(n, records):
    """F of a J-Jacobi run, replayed column by column from its step records.

    Each record of ``report._records`` carries the step's c, s and t_sign, so
    t = t_sign * s; F starts as the identity and each step sets
    F <- F [[c, t], [s, c]] on its pivot columns i and j: column i becomes
    c*f_i + s*f_j and column j c*f_j + t*f_i.
    """
    columns = [[float(r == k) for r in range(n)] for k in range(n)]
    for (i, j), _, c, s, t_sign, *_ in records:
        t = t_sign * s
        fi, fj = columns[i - 1], columns[j - 1]
        columns[i - 1] = [c * x + s * y for x, y in zip(fi, fj)]
        columns[j - 1] = [c * y + t * x for x, y in zip(fi, fj)]
    return np.array(columns).T


def eager_steps(a, ordering, sweeps, signs=None):
    """The steps of ``sweeps`` sweeps of ``ordering`` on ``a``, with S summed after every step.

    The scalar sweep as it ran before it summed S once per sweep: each step
    takes its parameters from the current entries, applies them with
    ``core._plane_step`` and sums S^2 afresh, and its angle is taken at once.
    A pivot across the blocks of ``signs`` (J-Jacobi) gets a hyperbolic step,
    angle atanh(th); every other pivot a rotation, angle atan(t).  Returns
    per step (pair, hyperbolic, a_ij before, angle, S before, S after);
    raises ``ValueError`` at the first S^2 that is not finite.
    """
    n = a.n
    n_off = n * (n - 1) // 2
    e = _packed_entries(a)
    s = _off_norm_packed(e, n_off)
    steps = []
    for _ in range(sweeps):
        for i, j in ordering.pairs:
            plan = _pivot_plan(n, i, j)
            ii, jj, ij, _ = plan
            piv = e[ij]
            hyperbolic = signs is not None and signs[i - 1] != signs[j - 1]
            if hyperbolic:
                c, sn, th = _hyperbolic_params(e[ii], e[jj], piv)
                t, angle = sn, math.atanh(th)
            else:
                c, sn, tangent = _rotation_params(e[ii], e[jj], piv)
                t, angle = -sn, math.atan(tangent)
            _plane_step(e, plan, c, sn, t)
            s_new = _off_norm_packed(e, n_off)
            steps.append(((i, j), hyperbolic, piv, angle, s, s_new))
            s = s_new
    return steps


def signature_family(o):
    """The serial family read off the pair signature, independently of the templates.

    Column-wise: (1, 2), then two pivots in column 3, then three in column 4.
    Row-wise: (3, 4), then two pivots in row 2, then three in row 1.
    """
    for prefix, pairs in (("", o.pairs), ("reverse-", o.pairs[::-1])):
        if [s for _, s in pairs] == [2, 3, 3, 4, 4, 4]:
            return prefix + "column"
        if [r for r, _ in pairs] == [3, 2, 2, 1, 1, 1]:
            return prefix + "row"
    return None


def forward_label(o):
    """(label, bound) of an n = 4 ordering from one forward search out of it.

    The per-ordering classifier: a serial template is ``SerialPerm``, its
    family read off the pair signature (``signature_family``), not the
    class table; otherwise ``_weak_search`` runs from ``o`` and
    ``_nearest`` picks the chain with the fewest shifts to a relabeled
    serial template, giving ``GeneralizedSerial(d)``, or else to an
    anchor, giving ``Parallel`` with the length of the chain's one shift
    (0 if it has none).  Returns None for an ordering that reaches neither, or an anchor only
    through more than one shift.
    """
    variant = signature_family(o)
    if variant is not None:
        return SerialPerm(variant), Bound(SERIAL_GAMMA, 1, 0, SERIAL_GAMMA_SQ)
    dist, parent = _weak_search(o, frozenset((TRANSPOSE, SHIFT)))
    hit = _nearest(o, dist, parent, _relabeled_serial_index())
    if hit is not None:
        d = hit[0]
        return GeneralizedSerial(d), Bound(SERIAL_GAMMA, d + 1, 0, SERIAL_GAMMA_SQ)
    hit = _nearest(o, dist, parent, _ANCHOR_TARGETS)
    if hit is None or hit[0] > 1:
        return None
    _, (_, _, anchor), steps = hit
    shift_length = next((s.length for s in steps if isinstance(s, Shift)), 0)
    return Parallel(anchor, shift_length), UNIVERSAL_BOUND


def reference_weak_search_from(starts, moves):
    """The 0-1 search of ``orderings._weak_search_from`` that expands every pop fully.

    Each node taken off the deque expands all its admissible transposes
    (pushed at the front) and then all N - 1 shifts (pushed at the back),
    whether or not a member of its rotation class was expanded before.
    Returns the (dist, parent) maps, in insertion order.
    """
    dist = dict.fromkeys(starts, 0)
    nn = len(next(iter(dist)))
    transposes = [Transpose(pos) for pos in range(nn - 1)] if TRANSPOSE in moves else []
    shifts = [Shift(length) for length in range(1, nn)] if SHIFT in moves else []
    parent = {}
    queue = deque(dist)
    while queue:
        pairs = queue.popleft()
        d = dist[pairs]
        for step in transposes:
            pos = step.pos
            a, b = pairs[pos], pairs[pos + 1]
            if a[0] not in b and a[1] not in b:
                nxt = pairs[:pos] + (b, a) + pairs[pos + 2:]
                old = dist.get(nxt)
                if old is None or d < old:
                    dist[nxt] = d
                    parent[nxt] = (pairs, step)
                    queue.appendleft(nxt)
        for step in shifts:
            length = step.length
            nxt = pairs[length:] + pairs[:length]
            old = dist.get(nxt)
            if old is None or d + 1 < old:
                dist[nxt] = d + 1
                parent[nxt] = (pairs, step)
                queue.append(nxt)
    return dist, parent


def reference_relabeled_targets(orderings, relabel):
    """``orderings._relabeled_targets`` with every ordering relabeled pair by pair."""
    n = orderings[0].n
    relabelings = itertools.permutations(range(1, n + 1)) if relabel else [identity_permutation(n)]
    targets = {}
    for k, q in enumerate(relabelings):
        q_inv = invert(q)
        for o in orderings:
            targets.setdefault(_relabel(o.pairs, q_inv), (k, q, o))
    return targets
