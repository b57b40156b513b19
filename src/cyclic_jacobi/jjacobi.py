"""Jacobi-type solver for the definite pair (A, J) with sign-indefinite J.

Iterates A <- F^T A F with J-orthogonal plane transformations (F^T J F = J).
A pivot inside one sign block gets an ordinary trigonometric rotation; a
pivot straddling the two blocks gets a hyperbolic one, with
tanh(2*theta) = -2 a_ij / (a_ii + a_jj) annihilating the pivot.  For
symmetric positive definite A the hyperbolic parameter magnitude stays
below one automatically.

``run_j_jacobi`` keeps A in the packed layout of ``core`` (strictly upper
entries row by row, then the diagonal) as a list of Python floats, and
sweeps it with ``core._sweep``, the routine behind ``run_cycles``, which
applies both kinds of step with ``core._plane_step``: a rotation as
F = [[c, -s], [s, c]], a hyperbolic transformation as [[ch, sh], [sh, ch]].
The accumulated transform F rides in the same list, row by row after A's
n(n+1)/2 entries: each step's plan (``_transform_plan``) adds the positions
of F's columns i and j to A's (a_ki, a_kj) pairs, so the one plane step
updates A and F and a step makes no numpy call.  It stops on the relative
rule of Demmel and Veselic (``core._converged``), never on S.  Its report,
a ``driver.SweepReport``, replays its run at most once for its ``steps``
and S around each step, as ``driver`` describes; the angle envelope reads
the records' kinds and tangents alone.  Each record holds its plan's sign,
+1 for a hyperbolic step across J's sign blocks, so the kind is decided
once, by the plan.  ``solve_factored`` builds neither, and
``monitor_proof_bounds`` reads the steps and that replay.

``solve_factored`` solves H = L J L^T given its factor: it runs the solver
on A = L^T L and maps the diagonalization back to eigenpairs of H, forming
L^T L and L F with ``core._dot``, never a BLAS product.
``monitor_proof_bounds`` watches a converged run of a parallel ordering and
checks the epsilon-cascade of off-norm decay windows.  It holds no pivot
pattern of its own: ``classification.classify`` names the ordering's anchor
and shift, and those fix where the windows start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    SymMatrix,
    _converged,
    _dot,
    _off_norm_packed,
    _packed_entries,
    _packed_layout,
    _pivot_plan,
    _read_dense,
    _rotation_params,
    _sweep,
)
from .classification import Parallel, classify
from .driver import SweepReport
from .orderings import PivotOrdering

__all__ = [
    "JJacobiReport",
    "JJacobiResult",
    "ProofMonitorVerdict",
    "cubic_decay_indicator",
    "HyperbolicBreakdownError",
    "IllConditionedError",
    "ConvergenceError",
    "MonitorInapplicableError",
    "STANDARD_SIGNS",
    "sign_diagonal",
    "run_j_jacobi",
    "solve_factored",
    "monitor_proof_bounds",
]

STANDARD_SIGNS = (1, 1, -1, -1)
CONDITION_LIMIT = 1e8  # factors beyond this are rejected as ill-conditioned
FACTOR_SV_LIMIT = 2.0**511  # from this largest singular value on, L^T L can overflow
EPSILON_WINDOW = 0.1   # monitor epsilons must satisfy 0 < eps < 0.1
CUBIC_ONSET = 1e-2     # cubic_decay_indicator reads cycles from S below this
CUBIC_FLOOR = 1e-200   # and while S stays above this
MAX_CYCLES = 40        # sweeps run_j_jacobi runs at most; read at call time


class HyperbolicBreakdownError(ArithmeticError):
    """|2 a_ij| >= |a_ii + a_jj| at a hyperbolic pivot: the pair is not definite."""


class IllConditionedError(ValueError):
    """The supplied factor is singular or too ill-conditioned to trust."""


class ConvergenceError(RuntimeError):
    """The solver did not reach the requested tolerance within ``MAX_CYCLES`` sweeps;
    ``report`` is the run's ``JJacobiReport``."""

    def __init__(self, message: str, report: "JJacobiReport"):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        return type(self), (str(self), self.report)


class MonitorInapplicableError(ValueError):
    """The run's sign pattern or ordering is not one the monitor applies to."""


def sign_diagonal(values: Sequence[int]) -> tuple[int, ...]:
    """Validate a diagonal of signs: every entry must be +1 or -1.

    A number must equal +-1 exactly (1.5 is rejected, not truncated); a
    string, as the command line passes, must spell the integer +-1.
    """
    out = tuple(values)
    if str in map(type, out):
        try:
            out = tuple(int(v) if isinstance(v, str) else v for v in out)
        except ValueError:  # a string that is not an integer
            out = ()
    if not out or not {*out} <= {1, -1}:
        raise ValueError(f"sign diagonal entries must be +1 or -1, got {values!r}")
    return tuple(map(int, out))


def _hyperbolic_params(aii: float, ajj: float, aij: float) -> tuple[float, float, float]:
    """(ch, sh, th) annihilating the pivot, th = tanh(theta); raises on breakdown.

    Solves tanh(2*theta) = -2*aij / (aii + ajj) through the stable form
    th = sign(tau) / (|tau| + sqrt(tau^2 - 1)), tau = -(aii + ajj) / (2*aij).
    Where tau^2 overflows (a tiny or subnormal pivot) the form rounds th to
    0 and would leave the pivot in place; its limit th = -aij / (aii + ajj)
    is used instead.  The inputs are Python floats (``SymMatrix.entry`` and
    the sweep's list give them), so the overflows handled here raise no
    numpy warnings.  The angle theta = atanh(th) is taken only where it is
    read.
    """
    if aij == 0.0:
        return 1.0, 0.0, 0.0
    total = aii + ajj
    if abs(2.0 * aij) >= abs(total):
        raise HyperbolicBreakdownError(
            f"hyperbolic breakdown: |2 a_ij| = {abs(2 * aij):.6g} >= "
            f"|a_ii + a_jj| = {abs(total):.6g}; the pair (A, J) is not definite"
        )
    tau = -total / (2.0 * aij)
    tau_sq = tau * tau
    if math.isinf(tau_sq):
        th = -aij / total
    else:
        th = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(tau_sq - 1.0))
    ch = 1.0 / math.sqrt((1.0 - th) * (1.0 + th))
    return ch, th * ch, th


@dataclass(kw_only=True)
class JJacobiReport(SweepReport):
    """A ``driver.SweepReport`` of a J-Jacobi run, with the fields only such a run has.

    A step is hyperbolic where its record's t_sign is +1, which the run's
    plan set where the signs of its pivot's indices differ.
    ``angle_envelope`` is built from the records alone, with no replay, when
    first read, and kept: ``cjacobi jsolve`` reads it, and the steps only
    for ``--monitor``; ``solve_factored`` reads neither.
    """

    signs: tuple[int, ...]
    converged: bool

    @property
    def covered_by_convergence_theory(self) -> bool:
        # the convergence guarantee covers diag(1,1,-1,-1) and the all-equal
        # cases (which reduce to the plain symmetric method)
        return self.signs == STANDARD_SIGNS or len(set(self.signs)) == 1

    @cached_property
    def angle_envelope(self) -> list[float]:
        """Per cycle: max |tanh theta| over its hyperbolic steps, 0.0 if none."""
        tanhs = [
            abs(math.tanh(math.atanh(th))) if t_sign > 0 else 0.0
            for *_, t_sign, th in self._records
        ]
        per_cycle = len(self.ordering.pairs)
        return [max([0.0] + tanhs[k:k + per_cycle]) for k in range(0, len(tanhs), per_cycle)]


def _check_converged(report: JJacobiReport) -> None:
    """``ConvergenceError`` saying why, unless ``report`` converged within ``MAX_CYCLES`` sweeps."""
    if not report.converged:
        raise ConvergenceError(
            f"no convergence within MAX_CYCLES = {MAX_CYCLES} cycles; final off-norm "
            f"{report.cycle_off_norms[-1]:.3e}",
            report,
        )


class JJacobiResult(NamedTuple):
    diagonalized: SymMatrix       # the (near-)diagonal final iterate
    transform: np.ndarray         # accumulated F with F^T J F = J
    report: JJacobiReport


@lru_cache(maxsize=None)
def _transform_plan(n: int, i: int, j: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """``_pivot_plan`` with the (f_ki, f_kj) positions of every row k of F
    appended to its (a_ki, a_kj) pairs.  F is kept row by row after A's
    packed entries, so ``core._plane_step`` sets columns i and j of F to
    c*f_ki + s*f_kj and c*f_kj + t*f_ki: F <- F [[c, t], [s, c]]."""
    ii, jj, ij, others = _pivot_plan(n, i, j)
    base = n * (n + 1) // 2
    columns = tuple((base + k * n + i - 1, base + k * n + j - 1) for k in range(n))
    return ii, jj, ij, others + columns


@lru_cache(maxsize=None)
def _identity_entries(n: int) -> tuple[float, ...]:
    """The n-by-n identity, row by row, as Python floats: F before the first step."""
    return tuple(float(r == k) for r in range(n) for k in range(n))


def run_j_jacobi(
    a: SymMatrix,
    signs: Sequence[int],
    ordering: PivotOrdering,
    tol: float = 1e-13,
) -> JJacobiResult:
    """Diagonalize ``a`` with J-orthogonal sweeps under ``ordering``.

    Sweeps until every |a_ij| <= tol sqrt|a_ii| sqrt|a_jj| (``core._converged``),
    then performs one extra certifying sweep from the converged state (so
    the final cycle's angle envelope measures the converged matrix), or
    stops after ``MAX_CYCLES`` sweeps.  Hyperbolic steps may raise
    ``HyperbolicBreakdownError`` when the pair is not definite.  Raises
    ``ValueError`` unless 0 <= tol < inf, and when S^2 is not finite, before
    or after any step.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    signs = sign_diagonal(signs)
    if len(signs) != a.n or a.n != ordering.n:
        raise ValueError("matrix, signs, and ordering dimensions must agree")
    n = a.n
    e = _packed_entries(a)
    cycle_norms = [_off_norm_packed(e, n * (n - 1) // 2)]
    size = len(e)
    e += _identity_entries(n)  # F, row by row, after A
    plan = [
        (pair, _transform_plan(n, *pair), _hyperbolic_params, 1.0)
        if signs[pair[0] - 1] != signs[pair[1] - 1]
        else (pair, _transform_plan(n, *pair), _rotation_params, -1.0)
        for pair in ordering.pairs
    ]
    records: list[tuple] = []
    converged = certified = _converged(e, plan, tol)
    while len(cycle_norms) <= MAX_CYCLES and not certified:
        cycle_norms.append(_sweep(a, e, plan, cycle_norms[-1], records))
        certified = converged  # the extra sweep from the converged state ran
        converged = converged or _converged(e, plan, tol)
    report = JJacobiReport(ordering, MAX_CYCLES, cycle_norms, a, records, signs=signs,
                           converged=converged)
    f = np.array(e[size:]).reshape(n, n)
    return JJacobiResult(SymMatrix._of_floats(n, e[:size]), f, report)


def solve_factored(
    factor: np.ndarray,
    signs: Sequence[int],
    ordering: PivotOrdering,
    tol: float = 1e-13,
) -> tuple[np.ndarray, np.ndarray, JJacobiResult]:
    """Eigenpairs of H = L J L^T from its factor L, plus the solver run.

    Runs the solver on A = L^T L; with F^T A F diagonal and F^T J F = J the
    eigenvalues of H are the diagonal of J Lambda and an orthonormal
    eigenvector basis is L F Lambda^{-1/2} (up to column signs).  Returns
    (eigenvalues, eigenvectors, solver result) in position order.  Raises
    ``IllConditionedError`` for a singular L or cond(L) above
    ``CONDITION_LIMIT``, and ``ValueError`` for a factor ``core._read_dense``
    rejects or a largest singular value of 2**511 or more, before L^T L is formed.
    """
    ell, rows = _read_dense(factor, "factor")
    sv = np.linalg.svd(ell, compute_uv=False).tolist()  # the one SVD of np.linalg.cond
    cond = sv[0] / sv[-1] if sv[-1] else math.inf
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"factor condition estimate {cond:.3e} exceeds limit {CONDITION_LIMIT:.0e}"
        )
    if sv[0] >= FACTOR_SV_LIMIT:
        raise ValueError(f"factor too large: singular value {sv[0]:.3e} >= 2**511 overflows L^T L")
    cols, n = list(zip(*rows)), len(rows)  # L^T L from its upper entries, so exactly symmetric
    a = SymMatrix._of_floats(n, [_dot(cols[r], cols[c]) for r, c in _packed_layout(n)[0]])
    result = run_j_jacobi(a, signs, ordering, tol=tol)
    _check_converged(result.report)
    diagonal = result.diagonalized._diagonal_floats()
    if min(diagonal) <= 0.0:
        raise HyperbolicBreakdownError("diagonalized A is not positive; pair not definite")
    eigenvalues = np.array([s * lam for s, lam in zip(result.report.signs, diagonal)])
    f_cols, roots = result.transform.T.tolist(), list(map(math.sqrt, diagonal))
    eigenvectors = np.array([[_dot(r, f) / x for f, x in zip(f_cols, roots)] for r in rows])
    return eigenvalues, eigenvectors, result


def cubic_decay_indicator(report: JJacobiReport) -> list[float]:
    """Per-cycle ratios |log S(next)| / |log S(current)| in the terminal phase.

    Collected once the off-norm drops below ``CUBIC_ONSET`` and while both
    norms stay above ``CUBIC_FLOOR``.  Values of three or more per cycle
    indicate the cubic terminal behavior of the parallel-pattern sweeps.
    """
    ratios = []
    norms = report.cycle_off_norms
    for current, nxt in zip(norms, norms[1:]):
        if CUBIC_FLOOR < nxt and current < CUBIC_ONSET and current > CUBIC_FLOOR:
            ratios.append(math.log(nxt) / math.log(current))
    return ratios


# --- proof-pattern monitor ------------------------------------------------------

@dataclass
class ProofMonitorVerdict:
    """Outcome of the epsilon-cascade check on one converged run.

    ``r0`` is the first window index from which every later window satisfies
    the pivot-size and angle-size premises; ``attained`` is False when no
    such window exists within the run (reported, not an error).  The cascade
    inequalities are checked as stated; their margins dwarf roundoff.
    """

    epsilon: float
    phase: int
    variant: str
    r0: Optional[int]
    windows_checked: int
    attained: bool
    cascade_ok: bool
    failures: list[str] = field(default_factory=list)


def monitor_proof_bounds(report: JJacobiReport, epsilon: float) -> ProofMonitorVerdict:
    """Check the off-norm cascade on a parallel-pattern run.

    The ordering must be one that ``classify`` labels ``Parallel(anchor, l)``;
    any other raises ``MonitorInapplicableError``.  Both anchors end in the
    trigonometric group (1 2, 3 4), so the phase is p = (l + 4) mod 6, and
    the variant names the anchor's first hyperbolic group, its first two
    pivots: "13-24 first" for ``PAR_ANCHOR``, "14-23 first" for its mirror.

    Premises per window r (steps 6r+p .. 6r+p+5 with phase p): the squared
    hyperbolic pivot pair sums and the squared tanh pair sums all stay below
    epsilon^2 / 2.  Conclusions checked from r0 on:

        S(A^(6r+2))   <  epsilon          (indices relative to the phase)
        S^2(A^(6r+4)) <  0.52  epsilon^2
        S^2(A^(6r+6)) <  0.5114 epsilon^4
        S^2(A^(6r+8)) <  0.5026 epsilon^6
    """
    if not 0.0 < epsilon < EPSILON_WINDOW:
        raise ValueError(f"epsilon must lie in (0, {EPSILON_WINDOW}), got {epsilon}")
    if report.signs != STANDARD_SIGNS:
        raise MonitorInapplicableError("monitor requires the sign pattern (1, 1, -1, -1)")
    label = classify(report.ordering).label
    if not isinstance(label, Parallel):
        raise MonitorInapplicableError(
            f"monitor inapplicable: {report.ordering} contains no parallel window"
        )
    phase = (label.shift_length + 4) % 6
    (a, b), (c, d) = label.anchor.pairs[:2]
    variant = f"{a}{b}-{c}{d} first"

    norms = report._step_norms
    window_count = max(0, (len(report.steps) - phase - 2) // 6)  # r with phase + 6r + 8 <= steps

    def premises(r: int) -> bool:
        base = phase + 6 * r
        for offset in (2, 4):
            st1 = report.steps[base + offset]
            st2 = report.steps[base + offset + 1]
            if st1.kind != "hyperbolic" or st2.kind != "hyperbolic":
                return False
            if st1.values[0]**2 + st2.values[0]**2 >= epsilon**2 / 2.0:
                return False
            if st1.tanh**2 + st2.tanh**2 >= epsilon**2 / 2.0:
                return False
        return True

    r0: Optional[int] = None
    for r in range(window_count - 1, -1, -1):
        if premises(r):
            r0 = r
        else:
            break
    if window_count == 0:
        # nothing to observe: a run that started converged
        return ProofMonitorVerdict(epsilon, phase, variant, 0, 0, True, True)
    if r0 is None:
        return ProofMonitorVerdict(epsilon, phase, variant, None, window_count, False, False)

    failures: list[str] = []
    checks = (
        (2, 1, epsilon, "S"),
        (4, 2, 0.52 * epsilon**2, "S^2"),
        (6, 2, 0.5114 * epsilon**4, "S^2"),
        (8, 2, 0.5026 * epsilon**6, "S^2"),
    )
    for r in range(r0, window_count):
        base = phase + 6 * r
        for offset, power, limit, tag in checks:
            value = norms[base + offset] ** power
            if value >= limit:
                failures.append(
                    f"window {r}: {tag}(A^({base + offset})) = {value:.6e} >= {limit:.6e}"
                )
    return ProofMonitorVerdict(
        epsilon, phase, variant, r0, window_count, True, not failures, failures
    )
