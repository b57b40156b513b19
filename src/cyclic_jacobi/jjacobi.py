"""Jacobi-type solver for the definite pair (A, J) with sign-indefinite J.

Iterates A <- F^T A F with J-orthogonal plane transformations (F^T J F = J).
A pivot inside one sign block gets an ordinary trigonometric rotation; a
pivot straddling the two blocks gets a hyperbolic one, with
tanh(2*theta) = -2 a_ij / (a_ii + a_jj) annihilating the pivot.  For
symmetric positive definite A the hyperbolic parameter magnitude stays
below one automatically.

``eigen_from_factored`` solves H = L J L^T given its factor: it runs the
solver on A = L^T L and maps the diagonalization back to eigenpairs of H.
``monitor_proof_bounds`` watches a converged run of a parallel-pattern
ordering and checks the epsilon-cascade of off-norm decay windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import SymMatrix, _apply_rotation, _rotation_params, off_norm
from .orderings import PivotOrdering

__all__ = [
    "JRotation",
    "JJacobiStep",
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
    "j_rotation_for_pivot",
    "run_j_jacobi",
    "solve_factored",
    "eigen_from_factored",
    "monitor_proof_bounds",
]

STANDARD_SIGNS = (1, 1, -1, -1)
CONDITION_LIMIT = 1e8  # factors beyond this are rejected as ill-conditioned
EPSILON_WINDOW = 0.1   # monitor epsilons must satisfy 0 < eps < 0.1


class HyperbolicBreakdownError(ArithmeticError):
    """|2 a_ij| >= |a_ii + a_jj| at a hyperbolic pivot: the pair is not definite."""


class IllConditionedError(ValueError):
    """The supplied factor is singular or too ill-conditioned to trust."""


class ConvergenceError(RuntimeError):
    """The solver did not reach the requested tolerance within max_cycles."""


class MonitorInapplicableError(ValueError):
    """The run's ordering does not contain the parallel window the monitor needs."""


def sign_diagonal(values: Sequence[int]) -> tuple[int, ...]:
    """Validate a diagonal of signs: every entry must be +1 or -1."""
    out = tuple(int(v) for v in values)
    if not out or any(v not in (1, -1) for v in out):
        raise ValueError(f"sign diagonal entries must be +1 or -1, got {values!r}")
    return out


@dataclass(frozen=True)
class JRotation:
    """J-orthogonal plane transformation, trigonometric or hyperbolic.

    For a trigonometric rotation ``c``/``s`` are cos/sin of ``angle`` and the
    embedded (i, j) element is -s; for a hyperbolic one they are cosh/sinh of
    the hyperbolic angle and the embedded block is symmetric.
    """

    i: int
    j: int
    kind: str  # "trigonometric" | "hyperbolic"
    c: float
    s: float
    angle: float

    def __post_init__(self):
        if self.kind not in ("trigonometric", "hyperbolic"):
            raise ValueError(f"unknown rotation kind {self.kind!r}")
        gram = self.c * self.c + self.s * self.s if self.kind == "trigonometric" else (
            self.c * self.c - self.s * self.s
        )
        if abs(gram - 1.0) > 1e-13:
            raise ValueError(f"{self.kind} parameters violate their unit relation")

    @property
    def tanh(self) -> float:
        return self.s / self.c if self.kind == "hyperbolic" else 0.0

    def embed(self, n: int) -> np.ndarray:
        out = np.eye(n)
        i0, j0 = self.i - 1, self.j - 1
        out[i0, i0] = self.c
        out[j0, j0] = self.c
        if self.kind == "trigonometric":
            out[i0, j0] = -self.s
            out[j0, i0] = self.s
        else:
            out[i0, j0] = self.s
            out[j0, i0] = self.s
        return out


def _hyperbolic_params(aii: float, ajj: float, aij: float) -> tuple[float, float, float]:
    """(ch, sh, theta) annihilating the pivot; raises on breakdown.

    Solves tanh(2*theta) = -2*aij / (aii + ajj) through the stable form
    th = sign(tau) / (|tau| + sqrt(tau^2 - 1)), tau = -(aii + ajj) / (2*aij).
    Where tau^2 overflows (a tiny or subnormal pivot) the form rounds th to
    0 and would leave the pivot in place; its limit th = -aij / (aii + ajj)
    is used instead.  The inputs are taken as Python floats, so the
    overflows handled here raise no numpy warnings.
    """
    aii, ajj, aij = float(aii), float(ajj), float(aij)
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
    return ch, th * ch, math.atanh(th)


def j_rotation_for_pivot(a: SymMatrix, signs: Sequence[int], i: int, j: int) -> JRotation:
    """The J-orthogonal transformation annihilating the (i, j) entry of ``a``."""
    signs = sign_diagonal(signs)
    if len(signs) != a.n:
        raise ValueError(f"sign diagonal length {len(signs)} does not match n={a.n}")
    if not (1 <= i < j <= a.n):
        raise IndexError(f"pivot ({i}, {j}) out of range for n={a.n}")
    aii, ajj, aij = a.entry(i, i), a.entry(j, j), a.entry(i, j)
    if signs[i - 1] == signs[j - 1]:
        c, s, phi = _rotation_params(aii, ajj, aij)
        return JRotation(i, j, "trigonometric", c, s, phi)
    ch, sh, theta = _hyperbolic_params(aii, ajj, aij)
    return JRotation(i, j, "hyperbolic", ch, sh, theta)


def _apply_hyperbolic(a: np.ndarray, i0: int, j0: int, ch: float, sh: float) -> None:
    ri = a[i0, :].copy()
    rj = a[j0, :].copy()
    a[i0, :] = ch * ri + sh * rj
    a[j0, :] = sh * ri + ch * rj
    ci = a[:, i0].copy()
    cj = a[:, j0].copy()
    a[:, i0] = ch * ci + sh * cj
    a[:, j0] = sh * ci + ch * cj


@dataclass(frozen=True)
class JJacobiStep:
    pivot: tuple[int, int]
    kind: str
    value: float       # pivot entry before the step
    angle: float
    tanh: float        # 0.0 for trigonometric steps
    s_before: float
    s_after: float


@dataclass
class JJacobiReport:
    ordering: PivotOrdering
    signs: tuple[int, ...]
    steps: list[JJacobiStep]
    cycle_off_norms: list[float]
    angle_envelope: list[float]  # per cycle: max |tanh theta| over hyperbolic steps
    converged: bool
    cycles_executed: int
    initial_norm: float
    covered_by_convergence_theory: bool


class JJacobiResult(NamedTuple):
    diagonalized: SymMatrix       # the (near-)diagonal final iterate
    transform: np.ndarray         # accumulated F with F^T J F = J
    report: JJacobiReport


def _covered(signs: tuple[int, ...]) -> bool:
    # the convergence guarantee covers diag(1,1,-1,-1) and the all-equal
    # cases (which reduce to the plain symmetric method)
    return signs == STANDARD_SIGNS or len(set(signs)) == 1


def run_j_jacobi(
    a: SymMatrix,
    signs: Sequence[int],
    ordering: PivotOrdering,
    tol: float = 1e-13,
    max_cycles: int = 40,
) -> JJacobiResult:
    """Diagonalize ``a`` with J-orthogonal sweeps under ``ordering``.

    Sweeps until the off-norm falls to ``tol`` times the initial Frobenius
    norm, then performs one extra certifying sweep from the converged state
    (so the final cycle's angle envelope measures the converged matrix), or
    stops at ``max_cycles``.  Hyperbolic steps may raise
    ``HyperbolicBreakdownError`` when the pair is not definite.
    """
    signs = sign_diagonal(signs)
    if len(signs) != a.n or a.n != ordering.n:
        raise ValueError("matrix, signs, and ordering dimensions must agree")
    dense = a.to_dense()
    n = a.n
    initial_norm = float(np.linalg.norm(dense))
    threshold = tol * initial_norm
    transform = np.eye(n)
    steps: list[JJacobiStep] = []
    cycle_norms = [off_norm(dense)]
    envelope: list[float] = []
    converged = cycle_norms[0] <= threshold
    certified = converged
    cycles = 0
    while cycles < max_cycles and not certified:
        max_tanh = 0.0
        s = cycle_norms[-1]
        for (i, j) in ordering.pairs:
            i0, j0 = i - 1, j - 1
            piv = dense[i0, j0]
            if signs[i0] == signs[j0]:
                c, sn, phi = _rotation_params(dense[i0, i0], dense[j0, j0], piv)
                if sn != 0.0:
                    _apply_rotation(dense, i0, j0, c, sn)
                    dense[i0, j0] = 0.0
                    dense[j0, i0] = 0.0
                    ti = transform[:, i0].copy()
                    tj = transform[:, j0].copy()
                    transform[:, i0] = c * ti + sn * tj
                    transform[:, j0] = c * tj - sn * ti
                kind, angle, th = "trigonometric", phi, 0.0
            else:
                ch, sh, theta = _hyperbolic_params(dense[i0, i0], dense[j0, j0], piv)
                if sh != 0.0:
                    _apply_hyperbolic(dense, i0, j0, ch, sh)
                    dense[i0, j0] = 0.0
                    dense[j0, i0] = 0.0
                    ti = transform[:, i0].copy()
                    tj = transform[:, j0].copy()
                    transform[:, i0] = ch * ti + sh * tj
                    transform[:, j0] = sh * ti + ch * tj
                kind, angle = "hyperbolic", theta
                th = abs(math.tanh(theta))
                max_tanh = max(max_tanh, th)
            s_new = off_norm(dense)
            steps.append(JJacobiStep((i, j), kind, piv, angle, th, s, s_new))
            s = s_new
        cycles += 1
        cycle_norms.append(s)
        envelope.append(max_tanh)
        if converged:
            certified = True  # the extra sweep from the converged state ran
        elif s <= threshold:
            converged = True
            if cycles >= max_cycles:
                certified = True  # no room for the certifying sweep
    report = JJacobiReport(
        ordering, signs, steps, cycle_norms, envelope,
        converged, cycles, initial_norm, _covered(signs),
    )
    return JJacobiResult(SymMatrix.from_dense(dense, rtol=1e-6), transform, report)


def solve_factored(
    factor: np.ndarray,
    signs: Sequence[int],
    ordering: PivotOrdering,
    tol: float = 1e-13,
    max_cycles: int = 40,
) -> tuple[np.ndarray, np.ndarray, JJacobiResult]:
    """Eigenpairs of H = L J L^T from its factor L, plus the solver run.

    Runs the solver on A = L^T L; with F^T A F diagonal and F^T J F = J the
    eigenvalues of H are the diagonal of J Lambda and an orthonormal
    eigenvector basis is L F Lambda^{-1/2} (up to column signs).  Returns
    (eigenvalues, eigenvectors, solver result) in position order.
    """
    ell = np.asarray(factor, dtype=float)
    if ell.ndim != 2 or ell.shape[0] != ell.shape[1]:
        raise ValueError(f"factor must be square, got shape {ell.shape}")
    signs = sign_diagonal(signs)
    if len(signs) != ell.shape[0]:
        raise ValueError("sign diagonal length must match the factor size")
    cond = float(np.linalg.cond(ell))
    if not math.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"factor condition estimate {cond:.3e} exceeds limit {CONDITION_LIMIT:.0e}"
        )
    a = SymMatrix.from_dense(ell.T @ ell)
    result = run_j_jacobi(a, signs, ordering, tol=tol, max_cycles=max_cycles)
    if not result.report.converged:
        raise ConvergenceError(
            f"no convergence within {max_cycles} cycles; final off-norm "
            f"{result.report.cycle_off_norms[-1]:.3e}"
        )
    lam = result.diagonalized.diagonal()
    if np.any(lam <= 0.0):
        raise HyperbolicBreakdownError("diagonalized A is not positive; pair not definite")
    eigenvalues = np.array(signs, dtype=float) * lam
    eigenvectors = ell @ result.transform / np.sqrt(lam)[None, :]
    return eigenvalues, eigenvectors, result


def eigen_from_factored(
    factor: np.ndarray,
    signs: Sequence[int],
    ordering: PivotOrdering,
    tol: float = 1e-13,
    max_cycles: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of H = L J L^T; see ``solve_factored``."""
    eigenvalues, eigenvectors, _ = solve_factored(
        factor, signs, ordering, tol=tol, max_cycles=max_cycles
    )
    return eigenvalues, eigenvectors


def cubic_decay_indicator(
    report: JJacobiReport, onset: float = 1e-2, floor: float = 1e-200
) -> list[float]:
    """Per-cycle ratios |log S(next)| / |log S(current)| in the terminal phase.

    Collected once the off-norm drops below ``onset`` and while both norms
    stay above ``floor``.  Values of three or more per cycle indicate the
    cubic terminal behavior of the parallel-pattern sweeps.
    """
    ratios = []
    norms = report.cycle_off_norms
    for current, nxt in zip(norms, norms[1:]):
        if floor < nxt and current < onset and current > floor:
            ratios.append(math.log(nxt) / math.log(current))
    return ratios


# --- proof-pattern monitor ------------------------------------------------------

_TRIG_GROUP = frozenset({(1, 2), (3, 4)})
_HYP_GROUP_A = frozenset({(1, 3), (2, 4)})
_HYP_GROUP_B = frozenset({(1, 4), (2, 3)})


def _find_parallel_window(ordering: PivotOrdering) -> tuple[int, str]:
    """Phase p and variant of the pattern: trig group, then the two
    hyperbolic groups in either order, inside the doubled pivot sequence."""
    doubled = ordering.pairs * 2
    for p in range(6):
        g0 = frozenset(doubled[p:p + 2])
        g1 = frozenset(doubled[p + 2:p + 4])
        g2 = frozenset(doubled[p + 4:p + 6])
        if g0 == _TRIG_GROUP:
            if g1 == _HYP_GROUP_A and g2 == _HYP_GROUP_B:
                return p, "13-24 first"
            if g1 == _HYP_GROUP_B and g2 == _HYP_GROUP_A:
                return p, "14-23 first"
    raise MonitorInapplicableError(
        f"monitor inapplicable: {ordering} contains no parallel window"
    )


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
    phase, variant = _find_parallel_window(report.ordering)

    norms = [report.cycle_off_norms[0]] + [st.s_after for st in report.steps]
    total_steps = len(report.steps)
    window_count = 0
    while phase + 6 * window_count + 8 <= total_steps:
        window_count += 1

    def premises(r: int) -> bool:
        base = phase + 6 * r
        for offset in (2, 4):
            st1 = report.steps[base + offset]
            st2 = report.steps[base + offset + 1]
            if st1.kind != "hyperbolic" or st2.kind != "hyperbolic":
                return False
            if st1.value**2 + st2.value**2 >= epsilon**2 / 2.0:
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
