"""Cyclic Jacobi sweeps, parallel-step execution, and bound verification.

``run_cycles`` applies full sweeps of a pivot ordering to one matrix and
returns a step-by-step report.  ``batch_sweep`` runs the same arithmetic
vectorized across a batch of matrices and is what the seeded verification
campaigns use.  ``verification_campaign`` checks the contraction ratio
S(A^[t+tau]) / S(A^[t]) that each ordering's classification record promises
over a seeded batch of random matrices, every window of every matrix
(``_window_stats``).  ``cjacobi verify`` is that function plus an executor:
its ``--jobs`` must be at least 1, and above 1 it passes a process pool's
``map``.

Both kernels keep the upper-triangle entries in the packed layout of
``core._packed_layout``.  ``batch_sweep`` holds them entry-major as numpy
arrays, one row per entry; the single-matrix paths (``run_cycles`` and
``jjacobi.run_j_jacobi``) hold them as a list of Python floats and share
one sweep routine, ``core._sweep``, which steps them with
``core._plane_step`` and sums S^2 with ``core._off_norm_packed`` once per
sweep, so a step makes no numpy call.  Both take the rotation of
``core._rotation_params``, apply every step (storing the pivot as +0.0 even
when s = +-0), perform the IEEE operations of the dense row-then-column
update in its order, and sum S^2 in one order, so ``run_cycles``,
``batch_sweep`` and ``core.off_norm`` give the same bits.  Both stop a
matrix where its bits settle (``core._settled``), never on S.

Every single-matrix run (``run_cycles``; ``run_parallel_cycle``, which is
``run_cycles(a, o, 1)``; ``jjacobi.run_j_jacobi`` and ``solve_factored``) is
reported by a ``SweepReport`` (``jjacobi.JJacobiReport`` subclasses it):
its input, the raw per-step records of ``core._sweep`` (pair, pivot value,
c, s, t_sign, tangent) and the S at every cycle boundary.  A record owns its
step's kind: hyperbolic where t_sign > 0, as the run's plan set it.  A report
replays its run at most once, when first asked: ``_step_norms``
(``core._step_off_norms``) is the S around every step, which ``steps`` (one
``StepRecord`` per record, its angle atan of the tangent, atanh for a
hyperbolic step), the S^2 checks (``_report_checks``, building no steps) and
``monitor_proof_bounds`` read.
Callers that want only the matrix or the cycle-boundary S never replay.

A single run is inherently sequential; distinct runs and campaign cells are
independent and may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .core import (
    SymMatrix,
    _check_cycles,
    _check_dimension,
    _off_norm_packed,
    _packed_entries,
    _packed_layout,
    _pivot_plan,
    _real_array,
    _rotation_params,
    _settled,
    _step_off_norms,
    _sweep,
)
from .orderings import PivotOrdering
# Unused here, but kept bound: perfbench/tracing.py wraps ``driver.relate`` by
# name, and its traced runs fail without it.
from .orderings import relate  # noqa: F401
from .classification import (
    Bound,
    UNIVERSAL_BOUND,
    Parallel,
    classify,
    label_text,
)

__all__ = [
    "StepRecord",
    "SweepReport",
    "BatchSweep",
    "CampaignCell",
    "CampaignReport",
    "FP_SLACK",
    "IDENTITY_RTOL",
    "MONOTONICITY_RTOL",
    "UNIVERSAL_BOUND",
    "RNG_ALGORITHM",
    "run_cycles",
    "run_parallel_cycle",
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
OFF_NORM_FLOOR = 1e-300   # divisor floor of the relative S^2 identity and growth checks
SPD_FACTOR_MAX_COND = 100.0  # cond(L) cap of random_spd_factor
RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class StepRecord:
    """One annihilation step.

    ``pivots``, ``values`` and ``angles`` are 1-tuples.  For a trigonometric
    step s_before^2 - s_after^2 equals the squared pivot value up to
    roundoff.  ``kind`` is "hyperbolic" only for a J-Jacobi step across
    J's sign blocks: its angle is atanh of the tangent, ``tanh`` |tanh(angle)|.
    Other steps are "trigonometric", their angles arctangents, ``tanh`` 0.0.
    """

    pivots: tuple[tuple[int, int], ...]
    values: tuple[float, ...]
    angles: tuple[float, ...]
    s_before: float
    s_after: float
    kind: str
    tanh: float


@dataclass
class SweepReport:
    """The cycle-boundary off-norms of a single-matrix run, and its steps.

    ``_step_norms`` and ``steps`` are replayed as the module describes, the
    first time each is read, and kept.  A timed run never replays, the S^2
    checks never build ``steps``, and ``cjacobi solve`` and
    ``jsolve --monitor`` replay once.  ``jjacobi.JJacobiReport`` adds the
    fields of a J-Jacobi run.
    """

    ordering: PivotOrdering
    cycles_requested: int
    cycle_off_norms: list[float]  # S at every cycle boundary, starting at t=0
    _matrix: SymMatrix = field(repr=False)  # the input, from which the steps are replayed
    _records: list[tuple] = field(repr=False)

    @property
    def cycles_executed(self) -> int:
        """The sweeps that ran: one per cycle boundary after the first."""
        return len(self.cycle_off_norms) - 1

    @cached_property
    def _step_norms(self) -> list[float]:
        """S of the input, then S after each step: the report's one replay."""
        return _step_off_norms(self._matrix, self._records)

    @cached_property
    def steps(self) -> list[StepRecord]:
        norms = self._step_norms
        steps = []
        for k, (pair, value, _, _, t_sign, tangent) in enumerate(self._records):
            if t_sign > 0:
                angle = math.atanh(tangent)
                kind, tanh = "hyperbolic", abs(math.tanh(angle))
            else:
                angle = math.atan(tangent)
                kind, tanh = "trigonometric", 0.0
            steps.append(StepRecord((pair,), (value,), (angle,), norms[k], norms[k + 1], kind, tanh))
        return steps


def _decrement_error(s2: np.ndarray, pivots_sq) -> float:
    """The largest relative gap of S^2 after a step (``s2[1:]``) from S^2 before it less pivot^2."""
    gap = np.abs(s2[1:] - (s2[:-1] - pivots_sq)) / np.maximum(s2[:-1], OFF_NORM_FLOOR)
    return float(gap.max(initial=0.0))


def _cycle_growth(norms: np.ndarray) -> float:
    """The largest relative growth of S from one cycle boundary to the next; -inf with none."""
    growth = (norms[1:] - norms[:-1]) / np.maximum(norms[:-1], OFF_NORM_FLOOR)
    return float(growth.max(initial=-np.inf))


def _s2_checks(identity: float, growth: float) -> tuple[bool, str]:
    """Whether both of a run's S^2 checks pass their limits, and the stderr text reporting them."""
    ok = identity <= IDENTITY_RTOL and growth <= MONOTONICITY_RTOL
    text = (f"S^2 checks: decrement identity {identity:.3g} (limit {IDENTITY_RTOL:.0e}),"
            f" cycle growth {growth:.3g} (limit {MONOTONICITY_RTOL:.0e})\n")
    return ok, text if ok else text + "S^2 checks failed: the sweep arithmetic is not trustworthy\n"


def _report_checks(report) -> tuple[float, float]:
    """The decrement-identity error over the steps of a single-matrix run, and its cycle growth.

    Reads a ``SweepReport``'s one replay (``_step_norms``) and records.  A hyperbolic
    step keeps neither check: S^2 need not drop by its squared pivot, and S may grow
    across a cycle.
    """
    s2 = np.square(report._step_norms)
    identity = _decrement_error(s2, [pivot * pivot for _, pivot, *_ in report._records])
    return identity, _cycle_growth(np.array(report.cycle_off_norms))


def verify_step_identities(report) -> float:
    """Largest relative violation of S^2 drop == squared pivot in any single-matrix report,
    at most IDENTITY_RTOL (``AssertionError`` above)."""
    worst = _report_checks(report)[0]
    if not _s2_checks(worst, 0.0)[0]:
        raise AssertionError(f"step decrement identity violated: {worst:.3e} > {IDENTITY_RTOL}")
    return worst


def verify_cycle_monotonicity(report) -> None:
    """``AssertionError`` when S grows across a cycle of ``report`` beyond MONOTONICITY_RTOL."""
    growth = _cycle_growth(np.array(report.cycle_off_norms))
    if not _s2_checks(0.0, growth)[0]:
        raise AssertionError(f"off-norm grew across a cycle: {growth:.3e} > {MONOTONICITY_RTOL}")


# --- scalar kernel ------------------------------------------------------------

def run_cycles(a: SymMatrix, ordering: PivotOrdering, cycles: int) -> tuple[SymMatrix, SweepReport]:
    """Apply ``cycles`` full sweeps of ``ordering`` to ``a``.

    Stops early (reporting the executed count) where ``core._settled``
    holds, so it sweeps on where S^2 has underflowed to 0.  Raises
    ``ValueError`` unless ``cycles`` is an integer >= 0, and when S^2 is
    not finite, before or after any step (entries beyond about 1e154
    overflow it).
    """
    if a.n != ordering.n:
        raise ValueError(f"matrix dimension {a.n} does not match ordering n={ordering.n}")
    cycles = _check_cycles("cycles", cycles)
    n_off = a.n * (a.n - 1) // 2
    e = _packed_entries(a)
    # plain rotations, F = [[c, -s], [s, c]]
    plan = [(pair, _pivot_plan(a.n, *pair), _rotation_params, -1.0) for pair in ordering.pairs]
    cycle_norms = [_off_norm_packed(e, n_off)]
    records: list[tuple] = []
    for _ in range(cycles):
        if _settled(e, n_off):
            break
        cycle_norms.append(_sweep(a, e, plan, cycle_norms[-1], records))
    report = SweepReport(ordering, cycles, cycle_norms, a, records)
    return SymMatrix._of_floats(a.n, e), report


def run_parallel_cycle(a: SymMatrix, ordering: PivotOrdering) -> tuple[SymMatrix, SweepReport]:
    """One sweep of a parallel ordering: three pairs of commuting rotations.

    The ordering must be a transposition-variant of one of the two parallel
    anchors: ``classify`` labels it ``Parallel`` with shift length 0, which
    holds for exactly those 16 orderings; any other raises ``ValueError``.
    Then each consecutive pair of its pivots is disjoint: neither rotation
    of a pair touches an entry the other reads, so applying both to one
    iterate gives bitwise the one sweep of ``run_cycles``.  So it returns
    ``run_cycles(a, ordering, 1)``, whose steps 2k and 2k + 1 are the k-th
    pair.  No sweep runs when ``a`` is settled (``core._settled``), and
    ``ValueError`` when S^2 is not finite or ``a`` is not 4x4.
    """
    if ordering.n != 4:
        raise ValueError("parallel execution is defined for n=4")
    label = classify(ordering).label
    if not (isinstance(label, Parallel) and label.shift_length == 0):
        raise ValueError(f"not a parallel ordering: {ordering}")
    return run_cycles(a, ordering, 1)


# --- batch kernel -------------------------------------------------------------

@lru_cache(maxsize=None)
def _layout_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns of the packed entries, as read-only index arrays."""
    rows, cols = np.array(_packed_layout(n)[0]).T
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass
class BatchSweep:
    """Vectorized sweep result for a batch of matrices.

    ``off_norms`` has shape (cycles + 1, m): S at every cycle boundary for
    every matrix.  ``identity_violation`` is the largest relative deviation
    of the per-step S^2 decrement from the squared pivot values;
    ``monotonicity_excess`` the largest relative cycle-to-cycle growth of S
    (nonpositive when S never grows).  ``finals`` is the (m, n, n) stack of
    final matrices, built from the packed final entries on first access.
    """

    off_norms: np.ndarray
    identity_violation: float
    monotonicity_excess: float
    _packed: np.ndarray = field(repr=False)  # (n(n+1)/2, m), in the layout of batch_sweep

    @cached_property
    def finals(self) -> np.ndarray:
        size, m = self._packed.shape
        n = (math.isqrt(8 * size + 1) - 1) // 2
        rows, cols = _layout_indices(n)
        finals = np.empty((m, n, n))
        finals[:, rows, cols] = self._packed.T
        finals[:, cols, rows] = self._packed.T
        return finals


@lru_cache(maxsize=None)
def _pivot_gather(n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """For the pivot (i, j): the 2n packed positions a step gathers, their partners, and the
    pivot's own.

    ``gather`` is (a_ki for k != i, j; a_kj likewise; a_ii, a_jj, a_ij, a_ij) and ``partner``
    holds, row for row, the entry each is rotated with: (a_kj; a_ki; a_ij, a_ij, a_jj, a_ii).
    """
    ii, jj, ij, others = _pivot_plan(n, i, j)
    col_i, col_j = [p for p, _ in others], [q for _, q in others]
    gather = np.array(col_i + col_j + [ii, jj, ij, ij])
    partner = np.array(col_j + col_i + [ij, ij, jj, ii])
    gather.setflags(write=False)
    partner.setflags(write=False)
    return gather, partner, ij


def _batch_sweeper(n: int, plan: list, e: np.ndarray) -> tuple[Callable[[], float], np.ndarray]:
    """A sweep of ``plan`` over the packed entries ``e`` in place, its work arrays and views made
    once, returning its worst decrement-identity deviation; and its S^2 rows, before and after
    each step, which a sweep fills at its end.

    Every numpy call of a step works on contiguous arrays of one shape: the gathered entries
    ``w`` and their partners ``p`` as (2n, m) arrays, and (c, s, -s) expanded once per step to
    the factor of every row of each.
    """
    n_off = n * (n - 1) // 2
    width = e.shape[1]
    # the off-diagonal rows before and after each step; squared at the end of the sweep
    offs = np.empty((len(plan) + 1, n_off, width))
    s2 = np.empty((len(plan) + 1, width))
    pivots = (np.arange(len(plan)), np.array([pij for _, _, pij in plan]))  # offs[pivots]
    w, p = np.empty((2, 2 * n, width))  # the gathered entries, and the partner of each
    aii, ajj, aij = w[2 * n - 4:2 * n - 1]
    # after the row update: (U'_ii, V'_jj), then (U'_ij, V'_ij)
    corners, pivot_rows = w[2 * n - 4:2 * n - 2], w[2 * n - 2:]
    rotations, cs = _batch_rotations(width)
    # c for every row of w, then the s or -s its partner is scaled by
    pattern = np.array([0] * (2 * n) + [1] * (n - 2) + [2] * (n - 2) + [1, 2, 1, 2])
    expanded = np.empty((4 * n, width))
    c_rows, s_rows = expanded[:2 * n], expanded[2 * n:]
    c_corners, s_corners = expanded[:2], expanded[4 * n - 2:]  # c, c and s, -s
    e_off = e[:n_off]
    steps = [(gather, partner, e[pij], offs[k])
             for k, (gather, partner, pij) in enumerate(plan, 1)]

    def sweep() -> float:
        offs[0] = e_off
        for gather, partner, pivot, after in steps:
            # the plan's indices are in range, and mode="raise" would buffer ``out``
            e.take(gather, 0, out=w, mode="clip")
            e.take(partner, 0, out=p, mode="clip")
            rotations(aii, ajj, aij)
            cs.take(pattern, 0, out=expanded, mode="clip")
            # c*U + s*V and c*V - s*U, row by row
            np.multiply(p, s_rows, out=p)
            np.add(np.multiply(w, c_rows, out=w), p, out=w)
            # a_ii = c*U'_ii + s*U'_ij; a_jj = c*V'_jj - s*V'_ij; the pivot rows are spent
            np.multiply(pivot_rows, s_corners, out=pivot_rows)
            np.add(np.multiply(corners, c_corners, out=corners), pivot_rows, out=corners)
            e[gather] = w
            pivot.fill(0.0)
            after[...] = e_off
        np.add.reduce(np.square(offs, out=offs), axis=1, out=s2)  # offs[pivots] are squares now
        return _decrement_error(s2, offs[pivots])

    return sweep, s2


def batch_sweep(mats: np.ndarray, ordering: PivotOrdering, cycles: int) -> BatchSweep:
    """Run ``cycles`` sweeps of ``ordering`` on a stack of symmetric matrices.

    ``mats`` has shape (m, n, n); only its upper triangle is read.  The
    kernel keeps the n(n+1)/2 upper entries packed entry-major, as a (p, m)
    array with the strictly upper entries first and the diagonal last, so
    one array operation updates one entry of all m matrices.  A step
    gathers column i with (a_ii, a_ij) as U and column j with (a_ij, a_jj)
    as V into one (2n, m) array, and into a second one the entry each is
    rotated with, so that c*U + s*V and c*V - s*U are one row-by-row
    multiply-add; it finishes a_ii and a_jj from those with the same second
    rotation that the dense two-sided update R^T A R (rows first, then
    columns) applies, and stores the pivot as an exact zero.  S^2 is summed
    afresh from the entries after every step, never derived from the
    decrement identity: each step's off-diagonal entries are kept, and a
    sweep sums their squares once, at its end, and checks the decrement
    identity against those sums, with the cycle-to-cycle growth of S, once
    a cycle.

    Every column is stepped in every sweep that runs; the work arrays are
    made once per call.  A matrix is done at a cycle boundary when its
    off-diagonal entries are all +0.0 (bit pattern 0) and no diagonal entry
    but a_nn is -0.0, the vectorized twin of ``core._settled`` (as ``_batch_rotations``
    is of ``core._rotation_params``): later steps keep its bits, and its S and
    both checks stay 0.  Once every matrix is done, the remaining cycles are
    skipped, their S left 0.  The dense ``finals`` are built only when read.

    Raises ``ValueError`` unless ``cycles`` is an integer >= 0, for
    complex, text or non-finite entries, and when S^2 after some step is
    not finite (entries beyond about 1e154 overflow it).
    """
    cycles = _check_cycles("cycles", cycles)
    a = _real_array(mats, "matrix")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (m, n, n) stack, got shape {a.shape}")
    n = a.shape[1]
    _check_dimension(n)
    if n != ordering.n:
        raise ValueError(f"matrix dimension {n} does not match ordering n={ordering.n}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    m = a.shape[0]
    if m == 0:
        raise ValueError("need at least one matrix")
    rows, cols = _layout_indices(n)  # the (r, c) of every packed entry
    n_off = n * (n - 1) // 2

    # numpy sums a lone column's S^2 terms pairwise, wider arrays' row by row: never step one alone
    e = np.ascontiguousarray((a if m > 1 else a.repeat(2, axis=0))[:, rows, cols].T)
    off = np.zeros((cycles + 1, m))  # S^2 at every cycle boundary, then S
    identity_violation = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s2 = np.add.reduce(np.square(e[:n_off]), axis=0)
        _check_finite_s2(s2, 0)
        off[0] = s2[:m]
        sweep, s2 = _batch_sweeper(n, [_pivot_gather(n, *pair) for pair in ordering.pairs], e)
        bits = e.view(np.uint64)  # +0.0 is the bit pattern 0, -0.0 is 1 << 63
        off_bits, diag_bits = bits[:n_off], bits[n_off:-1]  # a_nn is never a step's a_ii
        for t in range(cycles):
            if not np.count_nonzero(off_bits) and not np.count_nonzero(diag_bits == 1 << 63):
                break
            deviation = sweep()
            if not math.isfinite(deviation):  # S^2 that is not finite makes it inf or NaN
                _check_finite_s2(s2, t + 1)
            identity_violation = max(identity_violation, deviation)
            off[t + 1] = s2[-1, :m]
    np.sqrt(off, out=off)
    return BatchSweep(off, identity_violation, _cycle_growth(off), e[:, :m])


def _check_finite_s2(s2: np.ndarray, cycle: int) -> None:
    if not np.isfinite(s2).all():
        raise ValueError(
            f"S^2 is not finite by cycle {cycle}: entries too large for float64 squares"
        )


def _batch_rotations(width: int) -> tuple[Callable[..., None], np.ndarray]:
    """``_rotation_params`` across ``width`` pivots, with its bits, in work arrays made once.

    Returns the function of the rows a_ii, a_jj and a_ij that writes c, s and
    -s into the (3, width) array returned beside it.  Runs under the
    caller's ``np.errstate``.  t = 1 / (tau + copysign(h, tau)) has the bits
    of copysign(1, tau) / (|tau| + h).  Where that gives 0 (tau*tau out of
    range: a subnormal pivot, or |tau| above about 1.3e154) t is
    a_ij / (a_ii - a_jj), and a zero pivot gives t = +0.  These fix-ups run
    only in a call where some t is +-0 or some a_ij is 0: elsewhere their
    masks are empty, and t (NaN from 0/0 needs a_ij = 0) keeps its bits.
    """
    diff, two_aij, tau, h = np.empty((4, width))
    fix = np.empty(width, dtype=bool)
    # 1, t and -t over h = sqrt(1 + t*t) give c, s and -s in one division.
    tangents, cs = np.ones((2, 3, width))
    _, tt, neg_tt = tangents

    def sqrt_1_plus_sq(x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add(np.multiply(x, x, out=h), 1.0, out=h), out=h)

    def rotations(aii: np.ndarray, ajj: np.ndarray, aij: np.ndarray) -> None:
        np.add(np.subtract(aii, ajj, out=diff), 0.0, out=diff)  # +0.0 at a tie, as in the scalar
        np.divide(diff, np.add(aij, aij, out=two_aij), out=tau)  # 2*aij exactly
        np.add(tau, np.copysign(sqrt_1_plus_sq(tau), tau, out=h), out=h)
        np.divide(1.0, h, out=tt)
        if np.count_nonzero(tt) < width or np.count_nonzero(two_aij) < width:
            np.divide(aij, diff, out=tt, where=np.equal(tt, 0.0, out=fix))
            np.copyto(tt, 0.0, where=np.equal(aij, 0.0, out=fix))
        np.negative(tt, out=neg_tt)
        np.divide(tangents, sqrt_1_plus_sq(tt), out=cs)

    return rotations, cs


# --- bound checks -------------------------------------------------------------

def _window_stats(offs: np.ndarray, bound: Bound) -> tuple[float, int, int]:
    """Over every window t >= t0 of every column of cycle-boundary S values ``offs``: the worst
    S(A^[t+tau]) / S(A^[t]), the windows beyond gamma + FP_SLACK, and the vacuous ones, where
    S(A^[t]) = 0 and the ratio scores 0.
    """
    starts = offs[bound.t0:offs.shape[0] - bound.tau]
    live = starts > 0.0
    ratios = np.divide(offs[bound.t0 + bound.tau:], starts, out=np.zeros(starts.shape), where=live)
    worst = float(ratios.max(initial=0.0))
    violations = int(np.count_nonzero(ratios > bound.gamma + FP_SLACK))
    return worst, violations, live.size - int(np.count_nonzero(live))


# --- seeded generators ----------------------------------------------------------

def default_rng(seed: int) -> np.random.Generator:
    """The campaign RNG; its algorithm is recorded in reports."""
    return np.random.default_rng(seed)


def random_symmetric_batch(rng: np.random.Generator, count: int, n: int = 4) -> np.ndarray:
    """I.i.d. uniform [-1, 1] entries, symmetrized."""
    raw = rng.uniform(-1.0, 1.0, size=(count, n, n))
    return (raw + raw.transpose(0, 2, 1)) / 2.0


def random_symmetric(rng: np.random.Generator) -> SymMatrix:
    return SymMatrix.from_dense(random_symmetric_batch(rng, 1)[0])


def random_spd_factor(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Random nonsingular factor L with cond(L) <= SPD_FACTOR_MAX_COND (redrawn until so).

    The conditioning cap keeps A = L^T L comfortably definite, so hyperbolic
    angles at convergence sit far below the reporting thresholds.
    """
    while True:
        cand = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(cand) <= SPD_FACTOR_MAX_COND:
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

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.cells)

    @property
    def falsifications(self) -> list[str]:
        """One line per cell with a violation, in cell order."""
        return [
            f"{c.mode} bound violated {c.violations}x for {c.ordering}"
            f" (worst ratio {c.worst_ratio:.17g} > {c.gamma + FP_SLACK:.17g})"
            for c in self.cells
            if c.violations
        ]


def campaign_cells_for_ordering(
    ordering: PivotOrdering, mats: np.ndarray, modes: tuple[str, ...]
) -> tuple[list[CampaignCell], float, float]:
    """Evaluate the selected bound modes, "classified" or "universal" or both, for one ordering
    over a matrix batch; ``ValueError`` for no mode or another one."""
    record = classify(ordering)
    every = {"classified": record.bound, "universal": UNIVERSAL_BOUND}
    if not modes or not {*modes} <= every.keys():
        raise ValueError(f"modes must be one or both of {[*every]}, got {modes!r}")
    bounds = [(mode, bound) for mode, bound in every.items() if mode in modes]
    label = label_text(record.label)
    cycles = max(b.t0 + b.tau + 4 for _, b in bounds)
    sweep = batch_sweep(mats, ordering, cycles)
    cells = [
        CampaignCell(ordering, label, mode, bound.gamma, bound.tau, bound.t0,
                     *_window_stats(sweep.off_norms, bound))
        for mode, bound in bounds
    ]
    return cells, sweep.identity_violation, sweep.monotonicity_excess


def verification_campaign(
    seed: int,
    samples: int,
    orderings: Sequence[PivotOrdering],
    modes: tuple[str, ...] = ("classified", "universal"),
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
    if not orderings:
        raise ValueError("need at least one ordering")
    rng = default_rng(seed)
    mats = random_symmetric_batch(rng, samples, n=4)
    per_ordering = partial(campaign_cells_for_ordering, mats=mats, modes=modes)
    cell_lists, identity, growth = zip(*map_fn(per_ordering, orderings))
    cells = [cell for new_cells in cell_lists for cell in new_cells]
    return CampaignReport(
        seed, samples, f"{RNG_ALGORITHM}({seed})", cells, max(identity), max(growth)
    )
