"""Cyclic Jacobi sweeps, parallel-step execution, and bound verification.

``run_cycles`` applies full sweeps of a pivot ordering to one matrix and
returns a step-by-step report.  ``batch_sweep`` runs the same arithmetic
vectorized across a batch of matrices and is what the seeded verification
campaigns use.  ``check_bound`` evaluates the contraction ratio
S(A^[t+tau]) / S(A^[t]) promised by a classification record, and
``verification_campaign`` sweeps that check across orderings and random
matrices.  ``cjacobi verify`` is that function plus an executor: its
``--jobs`` must be at least 1, and above 1 it passes a process pool's ``map``.

Both kernels keep the n(n+1)/2 upper-triangle entries packed in one layout
(``_packed_layout``): the strictly upper entries row by row, then the
diagonal.  ``batch_sweep`` holds them entry-major as numpy arrays, one row
per entry; the single-matrix paths (``run_cycles``, ``run_parallel_cycle``
and ``jjacobi.run_j_jacobi``) hold them as a list of Python floats and
update them with ``_plane_step``, so a step makes no numpy call.  Every
step performs the IEEE operations of the dense row-then-column update, in
its order, so both give the bits the dense update gave.

A single run is inherently sequential; distinct runs and campaign cells are
independent and may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import SymMatrix, _rotation_params
from .orderings import Pair, PivotOrdering
# Unused here, but kept bound: perfbench/tracing.py wraps ``driver.relate`` by
# name, and its traced runs fail without it.
from .orderings import relate  # noqa: F401
from .classification import (
    Bound,
    ClassificationRecord,
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    Parallel,
    anchor_variants,
    classify,
    label_text,
)

__all__ = [
    "StepRecord",
    "SweepReport",
    "BoundCheck",
    "BatchSweep",
    "CampaignCell",
    "CampaignReport",
    "NotParallelOrderingError",
    "FP_SLACK",
    "IDENTITY_RTOL",
    "MONOTONICITY_RTOL",
    "UNIVERSAL_BOUND",
    "RNG_ALGORITHM",
    "run_cycles",
    "run_parallel_cycle",
    "check_bound",
    "batch_sweep",
    "verification_campaign",
    "default_rng",
    "random_symmetric",
    "random_symmetric_batch",
    "random_spd_factor",
    "verify_step_identities",
    "verify_cycle_monotonicity",
]

FP_SLACK = 1e-12          # absolute slack on bound ratios
IDENTITY_RTOL = 1e-13     # S^2 decrement identity, relative to S^2 before the step
MONOTONICITY_RTOL = 1e-14  # growth of S across a cycle, relative
OFF_NORM_FLOOR = 1e-300   # stop sweeping below this off-norm (denormal churn)
RNG_ALGORITHM = "numpy-PCG64"

UNIVERSAL_BOUND = Bound(1.0 - 1e-5, 3, 1)


class NotParallelOrderingError(ValueError):
    """The ordering is not a transposition-variant of a parallel anchor."""


@dataclass(frozen=True)
class StepRecord:
    """One annihilation step, or one group of commuting steps.

    ``s_before``/``s_after`` bracket the whole group, so
    s_before^2 - s_after^2 equals the sum of the squared pivot values up to
    roundoff.
    """

    pivots: tuple[tuple[int, int], ...]
    values: tuple[float, ...]
    angles: tuple[float, ...]
    s_before: float
    s_after: float


@dataclass
class SweepReport:
    ordering: PivotOrdering
    cycles_requested: int
    cycles_executed: int
    steps: list[StepRecord]
    cycle_off_norms: list[float]  # S at every cycle boundary, starting at t=0
    final: SymMatrix


def verify_step_identities(report: SweepReport, rtol: float = IDENTITY_RTOL) -> float:
    """Largest relative violation of S^2 drop == sum of squared pivots."""
    worst = 0.0
    for rec in report.steps:
        expected = rec.s_before**2 - sum(v * v for v in rec.values)
        scale = max(rec.s_before**2, OFF_NORM_FLOOR)
        worst = max(worst, abs(rec.s_after**2 - expected) / scale)
    if worst > rtol:
        raise AssertionError(f"step decrement identity violated: {worst:.3e} > {rtol:.0e}")
    return worst


def verify_cycle_monotonicity(report: SweepReport, rtol: float = MONOTONICITY_RTOL) -> None:
    norms = report.cycle_off_norms
    for t in range(len(norms) - 1):
        if norms[t + 1] > norms[t] * (1.0 + rtol):
            raise AssertionError(
                f"off-norm grew across cycle {t}: {norms[t]:.17g} -> {norms[t + 1]:.17g}"
            )


# --- scalar kernel ------------------------------------------------------------

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
def _triu_positions(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Packed positions in ``SymMatrix`` order (row-major upper triangle), and back."""
    _, pos = _packed_layout(n)
    to_sym = tuple(pos[r][c] for r in range(n) for c in range(r, n))
    from_sym = [0] * len(to_sym)
    for k, q in enumerate(to_sym):
        from_sym[q] = k
    return to_sym, tuple(from_sym)


@lru_cache(maxsize=None)
def _pivot_plan(n: int, i: int, j: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """Packed positions of a_ii, a_jj and a_ij for the 1-based pivot (i, j),
    and the (a_ki, a_kj) position pairs for every other k, in order of k."""
    _, pos = _packed_layout(n)
    i0, j0 = i - 1, j - 1
    others = tuple((pos[k][i0], pos[k][j0]) for k in range(n) if k not in (i0, j0))
    return pos[i0][i0], pos[j0][j0], pos[i0][j0], others


def _packed_entries(a: SymMatrix) -> list[float]:
    """The entries of ``a`` as Python floats in the packed layout."""
    stored = a._packed.tolist()
    return [stored[k] for k in _triu_positions(a.n)[1]]


def _sym_from_packed(n: int, e: list[float]) -> SymMatrix:
    """The ``SymMatrix`` whose packed-layout entries are ``e``."""
    return SymMatrix(n, [e[k] for k in _triu_positions(n)[0]])


def _off_norm_packed(e: list[float], n_off: int) -> float:
    """S of the packed entries, with the bits of ``core.off_norm``.

    ``np.sum`` adds fewer than eight terms one by one, and up to 128 (n <= 16
    gives at most 120) in eight interleaved partial sums that it combines
    pairwise before it adds the tail; this follows the same order.  Squares
    are ``x * x``: float ``**`` raises where numpy gave inf.  Raises
    ``ValueError`` when S^2 is not finite.
    """
    if n_off < 8:
        total = 0.0
        for x in e[:n_off]:
            total += x * x
    else:
        sq = [x * x for x in e[:n_off]]
        r = sq[:8]
        whole = n_off - n_off % 8
        for k in range(8, whole, 8):
            for m in range(8):
                r[m] += sq[k + m]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in sq[whole:]:
            total += x
    if not math.isfinite(total):
        raise ValueError("S^2 is not finite: entries too large for float64 squares")
    return math.sqrt(total)


def _plane_step(
    e: list[float], plan: tuple[int, int, int, tuple[tuple[int, int], ...]],
    c: float, s: float, t: float,
) -> None:
    """e <- F^T e F in place for the plane transformation F = [[c, t], [s, c]] at ``plan``.

    A rotation has t = -s, a hyperbolic transformation s = t = sinh.  Each
    pair (a_ki, a_kj) becomes (c*a_ki + s*a_kj, c*a_kj + t*a_ki); a_ii and
    a_jj are the second (column) stage of the dense row-then-column update,
    taken from the row-updated a_ii, a_ij, a_ji and a_jj; the pivot is
    stored as an exact zero.  With t = -s, t*u is -(s*u) exactly, and IEEE
    addition commutes, so these are the dense update's bits.
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


def run_cycles(a: SymMatrix, ordering: PivotOrdering, cycles: int) -> tuple[SymMatrix, SweepReport]:
    """Apply ``cycles`` full sweeps of ``ordering`` to ``a``.

    Stops early (reporting the executed count) once the off-norm falls below
    ``OFF_NORM_FLOOR``.  Raises ``ValueError`` when S^2 is not finite, before
    or after any step (entries beyond about 1e154 overflow it).
    """
    if a.n != ordering.n:
        raise ValueError(f"matrix dimension {a.n} does not match ordering n={ordering.n}")
    if cycles < 0:
        raise ValueError("cycle count must be nonnegative")
    n = a.n
    n_off = n * (n - 1) // 2
    e = _packed_entries(a)
    plan = [(pair, _pivot_plan(n, *pair)) for pair in ordering.pairs]
    s = _off_norm_packed(e, n_off)
    steps: list[StepRecord] = []
    cycle_norms = [s]
    executed = 0
    for _ in range(cycles):
        if s < OFF_NORM_FLOOR:
            break
        for pair, pivot in plan:
            ii, jj, ij, _ = pivot
            piv = e[ij]
            c, sn, phi = _rotation_params(e[ii], e[jj], piv)
            if sn != 0.0:
                _plane_step(e, pivot, c, sn, -sn)
            s_new = _off_norm_packed(e, n_off)
            steps.append(StepRecord((pair,), (piv,), (phi,), s, s_new))
            s = s_new
        executed += 1
        cycle_norms.append(s)
    final = _sym_from_packed(n, e)
    return final, SweepReport(ordering, cycles, executed, steps, cycle_norms, final)


def _commuting_groups(ordering: PivotOrdering) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pairs = ordering.pairs
    groups = []
    for k in range(0, len(pairs), 2):
        a, b = pairs[k], pairs[k + 1]
        if set(a) & set(b):
            raise NotParallelOrderingError(f"pairs {a} and {b} do not commute")
        groups.append((a, b))
    return groups


@lru_cache(maxsize=1)
def _parallel_variant_pairs() -> frozenset[tuple[Pair, ...]]:
    """Pair tuples of the 16 transposition-variants of the two parallel anchors.

    Transpositions are self-inverse, so an ordering reaches an anchor by
    transpositions exactly when it is one of the anchor's variants.
    """
    return frozenset(
        o.pairs for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR) for o in anchor_variants(anchor)
    )


def run_parallel_cycle(a: SymMatrix, ordering: PivotOrdering) -> tuple[SymMatrix, SweepReport]:
    """One sweep executed as three simultaneous-rotation steps.

    The ordering must be a transposition-variant of one of the two parallel
    anchors.  Both rotations of a group are computed from the same iterate,
    then applied one after the other; their pivots are disjoint, so neither
    touches an entry the other reads, and the final matrix is bitwise the
    one sweep of ``run_cycles``.  S is measured once per group; ``ValueError``
    when S^2 is not finite.
    """
    if a.n != ordering.n or ordering.n != 4:
        raise ValueError("parallel execution is defined for n=4")
    if ordering.pairs not in _parallel_variant_pairs():
        raise NotParallelOrderingError(f"not a parallel ordering: {ordering}")
    e = _packed_entries(a)
    s = _off_norm_packed(e, 6)
    steps: list[StepRecord] = []
    cycle_norms = [s]
    for group in _commuting_groups(ordering):
        pivots = [_pivot_plan(4, *pair) for pair in group]
        values = tuple(e[ij] for _, _, ij, _ in pivots)
        params = [_rotation_params(e[ii], e[jj], e[ij]) for ii, jj, ij, _ in pivots]
        for pivot, (c, sn, _) in zip(pivots, params):
            if sn != 0.0:
                _plane_step(e, pivot, c, sn, -sn)
        s_new = _off_norm_packed(e, 6)
        steps.append(StepRecord(group, values, tuple(phi for _, _, phi in params), s, s_new))
        s = s_new
    cycle_norms.append(s)
    final = _sym_from_packed(4, e)
    return final, SweepReport(ordering, 1, 1, steps, cycle_norms, final)


# --- batch kernel -------------------------------------------------------------

@dataclass
class BatchSweep:
    """Vectorized sweep result for a batch of matrices.

    ``off_norms`` has shape (cycles + 1, m): S at every cycle boundary for
    every matrix.  ``identity_violation`` is the largest relative deviation
    of the per-step S^2 decrement from the squared pivot values;
    ``monotonicity_excess`` the largest relative cycle-to-cycle growth of S
    (nonpositive when S never grows).
    """

    off_norms: np.ndarray
    identity_violation: float
    monotonicity_excess: float
    finals: np.ndarray


def _step_plan(
    pos: tuple[tuple[int, ...], ...], ordering: PivotOrdering
) -> list[tuple[np.ndarray, int]]:
    """Per pivot (i, j): the 2n packed positions a step gathers, and the pivot's own.

    The first n are column i as (a_ki for k != i, j; a_ii, a_ij), the last n
    column j in mirror order (a_jj, a_ij; a_kj for k != i, j reversed), so
    every entry sits opposite the entry it is rotated with.
    """
    n = len(pos)
    plan = []
    for (i, j) in ordering.pairs:
        i0, j0 = i - 1, j - 1
        rest = [k for k in range(n) if k not in (i0, j0)]
        col_i = [pos[k][i0] for k in rest] + [pos[i0][i0], pos[i0][j0]]
        col_j = [pos[k][j0] for k in rest] + [pos[i0][j0], pos[j0][j0]]
        plan.append((np.array(col_i + col_j[::-1]), pos[i0][j0]))
    return plan


def batch_sweep(mats: np.ndarray, ordering: PivotOrdering, cycles: int) -> BatchSweep:
    """Run ``cycles`` sweeps of ``ordering`` on a stack of symmetric matrices.

    ``mats`` has shape (m, n, n); only its upper triangle is read.  The
    kernel keeps the n(n+1)/2 upper entries packed entry-major, as a (p, m)
    array with the strictly upper entries first and the diagonal last, so
    one array operation updates one entry of all m matrices.  A step
    gathers column i with (a_ii, a_ij) as U and column j with (a_ij, a_jj)
    as V, rotates them to c*U + s*V and c*V - s*U, and finishes a_ii and
    a_jj from those with the same second rotation that the dense two-sided
    update R^T A R (rows first, then columns) applies; the pivot is stored
    as an exact zero.  S^2 is summed afresh from the entries after every
    step, never derived from the decrement identity, which is checked
    against those sums, with the cycle-to-cycle growth of S, once a cycle.

    Raises ``ValueError`` for non-finite entries, and when S^2 after some
    step is not finite (entries beyond about 1e154 overflow it).
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (m, n, n) stack, got shape {a.shape}")
    n = a.shape[1]
    if n != ordering.n:
        raise ValueError(f"matrix dimension {n} does not match ordering n={ordering.n}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    m = a.shape[0]
    if m == 0:
        raise ValueError("need at least one matrix")
    entries, pos = _packed_layout(n)
    rows, cols = np.array(entries).T
    plan = _step_plan(pos, ordering)
    n_off = n * (n - 1) // 2
    steps = len(plan)

    e = np.ascontiguousarray(a[:, rows, cols].T)  # the packed entries, (p, m)
    pivots = np.empty((steps, m))
    s2 = np.empty((steps + 1, m))  # S^2 before the cycle and after each step
    sq = np.empty((n_off, m))
    # 1, t and -t over h = hypot(1, t) give c, s and -s in one division.
    tangents = np.ones((3, m))
    cs = np.empty((3, m))
    c = cs[0]
    sgn_s = cs[1:, None, :]  # s for column i, -s for column j
    mixed = np.empty((2, n, m))
    diag = np.empty((2, m))
    off = np.empty((cycles + 1, m))
    identity_violation = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.add.reduce(np.square(e[:n_off]), axis=0, out=s2[0])
        _check_finite_s2(s2[:1], 0)
        off[0] = np.sqrt(s2[0])
        for t in range(cycles):
            for k, (gather, pij) in enumerate(plan):
                w = e[gather]
                aij = w[n - 1]
                pivots[k] = aij
                diff = w[n - 2] - w[n]
                tau = diff / (aij + aij)  # aij + aij is 2*aij exactly
                tt = np.divide(
                    np.sign(tau), np.abs(tau) + np.hypot(1.0, tau), out=tangents[1]
                )
                # a zero pivot, a diagonal tie, or tau out of range
                if np.count_nonzero(tt) < m or np.count_nonzero(aij) < m:
                    _fix_tangents(tt, tau, aij, diff)
                np.negative(tt, out=tangents[2])
                np.divide(tangents, np.hypot(1.0, tt), out=cs)
                # c*U + s*V and c*V - s*U at once: row r of w meets row 2n-1-r.
                w2 = w.reshape(2, n, m)
                r = c * w2
                r += np.multiply(w2[::-1, ::-1], sgn_s, out=mixed)
                r = r.reshape(2 * n, m)
                # a_ii = c*U'_ii + s*U'_ij from rows n-2, n-1;
                # a_jj = c*V'_jj - s*V'_ij from rows n, n+1
                np.multiply(r[n - 2:n + 1:2], c, out=diag)
                np.add(diag, np.multiply(r[n - 1:n + 2:2], cs[1:]), out=r[n - 2:n + 1:2])
                e[gather] = r
                e[pij] = 0.0
                np.add.reduce(np.square(e[:n_off], out=sq), axis=0, out=s2[k + 1])
            _check_finite_s2(s2, t + 1)
            dev = np.abs(s2[1:] - (s2[:-1] - np.square(pivots))) / np.maximum(
                s2[:-1], OFF_NORM_FLOOR
            )
            identity_violation = max(identity_violation, float(dev.max()))
            off[t + 1] = np.sqrt(s2[steps])
            s2[0] = s2[steps]
    growth = (off[1:] - off[:-1]) / np.maximum(off[:-1], OFF_NORM_FLOOR)
    monotonicity_excess = float(growth.max()) if cycles else -np.inf
    finals = np.empty((m, n, n))
    finals[:, rows, cols] = e.T
    finals[:, cols, rows] = e.T
    return BatchSweep(off, identity_violation, monotonicity_excess, finals)


def _check_finite_s2(s2: np.ndarray, cycle: int) -> None:
    if not np.isfinite(s2).all():
        raise ValueError(
            f"S^2 is not finite by cycle {cycle}: entries too large for float64 squares"
        )


def _fix_tangents(tt: np.ndarray, tau: np.ndarray, aij: np.ndarray, diff: np.ndarray) -> None:
    """Set tan(phi) in place where the closed form gave 0 or NaN, as ``_rotation_params`` does.

    A zero pivot gives 0 and a diagonal tie sign(a_ij).  Where tau
    underflowed to 0, t is sign(tau), a quarter turn.  Where it overflowed
    (a subnormal pivot, or |tau| near the top of the range), t is
    a_ij / (a_ii - a_jj).  Runs under the caller's ``np.errstate``.
    """
    zero = aij == 0.0
    tt[zero] = 0.0
    if np.count_nonzero(tt) + np.count_nonzero(zero) < tt.size:  # a tie, or tau out of range
        limit = np.where(np.abs(tau) > 1.0, aij / diff, np.copysign(1.0, tau))
        fixed = np.where(tt == 0.0, limit, tt)
        fixed = np.where(diff == 0.0, np.sign(aij), fixed)
        tt[:] = np.where(zero, 0.0, fixed)


# --- bound checks -------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """Worst observed ratio S(A^[t+tau]) / S(A^[t]) against a bound.

    ``passed`` means worst_ratio <= gamma + FP_SLACK; windows with
    S(A^[t]) = 0 are vacuous and score a ratio of 0.  ``worst_ratio_sq`` is
    the same statistic for S^2, recorded alongside the primary S-form.
    """

    gamma: float
    tau: int
    t0: int
    observed_worst_ratio: float
    worst_ratio_sq: float
    passed: bool
    margin: float


def _ratios_from_norms(norms: Sequence[float], bound: Bound) -> tuple[float, float]:
    worst = 0.0
    worst_sq = 0.0
    last_start = len(norms) - 1 - bound.tau
    for t in range(bound.t0, last_start + 1):
        if norms[t] <= 0.0:
            continue  # vacuous window
        ratio = norms[t + bound.tau] / norms[t]
        worst = max(worst, ratio)
        worst_sq = max(worst_sq, ratio * ratio)
    return worst, worst_sq


def check_bound(a: SymMatrix, record: ClassificationRecord, cycles: int) -> BoundCheck:
    """Run the record's ordering on ``a`` and test its contraction bound."""
    bound = record.bound
    if isinstance(record.label, Parallel) and a.n != 4:
        raise ValueError("parallel bounds are defined for n=4 only")
    if cycles < bound.t0 + bound.tau:
        raise ValueError(f"need at least {bound.t0 + bound.tau} cycles for this bound")
    _, report = run_cycles(a, record.ordering, cycles)
    worst, worst_sq = _ratios_from_norms(report.cycle_off_norms, bound)
    passed = worst <= bound.gamma + FP_SLACK
    return BoundCheck(
        bound.gamma, bound.tau, bound.t0, worst, worst_sq, passed, bound.gamma + FP_SLACK - worst
    )


# --- seeded generators ----------------------------------------------------------

def default_rng(seed: int) -> np.random.Generator:
    """The campaign RNG; its algorithm is recorded in reports."""
    return np.random.default_rng(seed)


def random_symmetric_batch(
    rng: np.random.Generator,
    count: int,
    n: int = 4,
    zero_pairs: Iterable[tuple[int, int]] = (),
) -> np.ndarray:
    """I.i.d. uniform [-1, 1] entries, symmetrized; optional pinned zeros."""
    raw = rng.uniform(-1.0, 1.0, size=(count, n, n))
    out = (raw + raw.transpose(0, 2, 1)) / 2.0
    for (r, s) in zero_pairs:
        out[:, r - 1, s - 1] = 0.0
        out[:, s - 1, r - 1] = 0.0
    return out


def random_symmetric(rng: np.random.Generator, n: int = 4) -> SymMatrix:
    return SymMatrix.from_dense(random_symmetric_batch(rng, 1, n)[0])


def random_spd_factor(
    rng: np.random.Generator, n: int = 4, max_cond: float = 100.0
) -> np.ndarray:
    """Random nonsingular factor L with cond(L) <= max_cond (redrawn until so).

    The conditioning cap keeps A = L^T L comfortably definite, so hyperbolic
    angles at convergence sit far below the reporting thresholds.  Raises
    ``ValueError`` unless 1 < max_cond < inf: cond(L) >= 1 always, with
    equality only for scaled orthogonal L, which a uniform draw never gives,
    so a smaller cap would redraw forever.
    """
    if not (math.isfinite(max_cond) and max_cond > 1.0):
        raise ValueError(f"max_cond must be finite and above 1, got {max_cond!r}")
    while True:
        cand = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(cand) <= max_cond:
            return cand


# --- campaigns ---------------------------------------------------------------

@dataclass(frozen=True)
class CampaignCell:
    ordering: PivotOrdering
    label: str
    mode: str  # "classified" or "universal"
    gamma: float
    tau: int
    t0: int
    worst_ratio: float
    worst_ratio_sq: float
    violations: int
    vacuous_windows: int


@dataclass
class CampaignReport:
    seed: int
    samples: int
    rng_algorithm: str
    cells: list[CampaignCell]
    identity_violation: float
    monotonicity_excess: float
    falsifications: list[str] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.cells)


def _cell_from_offs(
    ordering: PivotOrdering,
    label: str,
    mode: str,
    bound: Bound,
    offs: np.ndarray,
) -> CampaignCell:
    worst = 0.0
    worst_sq = 0.0
    violations = 0
    vacuous = 0
    last_start = offs.shape[0] - 1 - bound.tau
    for t in range(bound.t0, last_start + 1):
        start = offs[t]
        live = start > 0.0
        vacuous += int(np.sum(~live))
        if not np.any(live):
            continue
        ratios = offs[t + bound.tau][live] / start[live]
        worst = max(worst, float(ratios.max()))
        worst_sq = max(worst_sq, float((ratios**2).max()))
        violations += int(np.sum(ratios > bound.gamma + FP_SLACK))
    return CampaignCell(
        ordering, label, mode, bound.gamma, bound.tau, bound.t0,
        worst, worst_sq, violations, vacuous,
    )


def campaign_cells_for_ordering(
    ordering: PivotOrdering, mats: np.ndarray, modes: tuple[str, ...]
) -> tuple[list[CampaignCell], float, float]:
    """Evaluate the selected bound modes for one ordering over a matrix batch."""
    record = classify(ordering)
    label = label_text(record.label)
    bounds = []
    if "classified" in modes:
        bounds.append(("classified", record.bound))
    if "universal" in modes:
        bounds.append(("universal", UNIVERSAL_BOUND))
    cycles = max(b.t0 + b.tau + 4 for _, b in bounds)
    sweep = batch_sweep(mats, ordering, cycles)
    cells = [
        _cell_from_offs(ordering, label, mode, bound, sweep.off_norms)
        for mode, bound in bounds
    ]
    return cells, sweep.identity_violation, sweep.monotonicity_excess


def verification_campaign(
    seed: int,
    samples: int,
    orderings: Sequence[PivotOrdering],
    modes: tuple[str, ...] = ("classified", "universal"),
    zero_pairs: Iterable[tuple[int, int]] = (),
    map_fn: Callable = map,
) -> CampaignReport:
    """Check contraction bounds for every ordering over a seeded matrix batch.

    ``map_fn`` applies one ordering's campaign to each ordering and must
    yield the results in input order, as the builtin ``map`` and an
    executor's ``map`` do.  Any ratio beyond gamma + FP_SLACK is counted as
    a violation and flagged as a falsification event in the report.
    """
    if samples < 1:
        raise ValueError("need at least one sample matrix")
    rng = default_rng(seed)
    mats = random_symmetric_batch(rng, samples, n=4, zero_pairs=zero_pairs)
    cells: list[CampaignCell] = []
    identity_violation = 0.0
    monotonicity_excess = -np.inf
    per_ordering = partial(campaign_cells_for_ordering, mats=mats, modes=modes)
    for new_cells, ident, mono in map_fn(per_ordering, orderings):
        cells.extend(new_cells)
        identity_violation = max(identity_violation, ident)
        monotonicity_excess = max(monotonicity_excess, mono)
    report = CampaignReport(
        seed, samples, f"{RNG_ALGORITHM}({seed})", cells,
        identity_violation, monotonicity_excess,
    )
    for cell in cells:
        if cell.violations:
            report.falsifications.append(
                f"{cell.mode} bound violated {cell.violations}x for {cell.ordering}"
                f" (worst ratio {cell.worst_ratio:.17g} > {cell.gamma + FP_SLACK:.17g})"
            )
    return report
