"""Structural classes of pivot orderings and the n=4 classifier.

Every cyclic ordering of the six pivot positions of a 4x4 symmetric matrix
falls into exactly one of three families:

* serial with permutations -- column-by-column or row-by-row templates,
  or the reverse of one of those; one sweep contracts S^2 by 27/28;
* generalized serial -- linked to a serial template by a chain of
  transpositions and cyclic shifts plus at most one index relabeling at one
  end of the chain; d shift steps give the 27/28 contraction after d+1
  sweeps;
* parallel -- weakly equivalent to one of two anchor orderings whose cycle
  splits into three pairs of commuting rotations; three consecutive sweeps
  contract S by 1 - 1e-5 from the second cycle on.

``classify`` assigns the strongest licensed bound, with a replayable
certificate.  ``catalog`` embeds the reference table of the 120 orderings
that start at pivot (1, 2) together with their recorded reduction chains;
``verify_catalog`` replays every chain and cross-checks the classifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .orderings import (
    SHIFT,
    TRANSPOSE,
    Certificate,
    Permute,
    Pair,
    PivotOrdering,
    Shift,
    Transpose,
    _relabel,
    _steps_to,
    _weak_search,
    invert,
    make_certificate,
    make_ordering,
    replay,
    reverse,
)

__all__ = [
    "SerialPerm",
    "GeneralizedSerial",
    "Parallel",
    "Label",
    "Bound",
    "ClassificationRecord",
    "CatalogEntry",
    "CatalogReport",
    "ClassificationError",
    "PAR_ANCHOR",
    "PAR_ANCHOR_MIRROR",
    "SERIAL_GAMMA",
    "PARALLEL_GAMMA",
    "compute_eta",
    "member_column_wise",
    "member_row_wise",
    "member_serial_perm",
    "classify",
    "catalog",
    "verify_catalog",
    "c0_orderings",
    "serial_perm_orderings",
    "parallel_orderings",
    "anchor_variants",
    "label_text",
]


class ClassificationError(RuntimeError):
    """An ordering matched no class; the exhaustive case split is violated."""


ETA_2 = Fraction(0)


def compute_eta(n: int) -> Fraction:
    """Single-sweep S^2 contraction factor for serial orderings, exact.

    Recurrence: eta_2 = 0 and
    eta_n = max(1 - 2^(1-n), 1 - 2^(2-n) (1 - eta_{n-1}) / (2^(2-n) + (n-2) eta_{n-1})).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    eta = ETA_2
    for k in range(3, n + 1):
        p = Fraction(1, 2 ** (k - 2))
        direct = 1 - Fraction(1, 2 ** (k - 1))
        chained = 1 - p * (1 - eta) / (p + (k - 2) * eta)
        eta = max(direct, chained)
    return eta


SERIAL_GAMMA_SQ = compute_eta(4)  # 27/28 exactly
SERIAL_GAMMA = math.sqrt(float(SERIAL_GAMMA_SQ))
PARALLEL_GAMMA = 1.0 - 1e-5

PAR_ANCHOR = make_ordering([(1, 3), (2, 4), (1, 4), (2, 3), (1, 2), (3, 4)])
PAR_ANCHOR_MIRROR = make_ordering([(1, 4), (2, 3), (1, 3), (2, 4), (1, 2), (3, 4)])


# --- membership templates ---------------------------------------------------

def member_column_wise(o: PivotOrdering) -> bool:
    """(1,2) first, then column 3 in some row order, then column 4, ..."""
    seq = list(o.pairs)
    if seq[0] != (1, 2):
        return False
    k = 1
    for col in range(3, o.n + 1):
        rows = []
        for _ in range(col - 1):
            r, s = seq[k]
            if s != col:
                return False
            rows.append(r)
            k += 1
        if sorted(rows) != list(range(1, col)):
            return False
    return True


def member_row_wise(o: PivotOrdering) -> bool:
    """(n-1, n) first, then row n-2 in some column order, ..., then row 1."""
    seq = list(o.pairs)
    if seq[0] != (o.n - 1, o.n):
        return False
    k = 1
    for row in range(o.n - 2, 0, -1):
        cols = []
        for _ in range(o.n - row):
            r, s = seq[k]
            if r != row:
                return False
            cols.append(s)
            k += 1
        if sorted(cols) != list(range(row + 1, o.n + 1)):
            return False
    return True


def member_serial_perm(o: PivotOrdering) -> Optional[str]:
    """Which serial template (if any) the ordering matches.

    Checked in the order column, row, reverse-column, reverse-row; for n = 4
    the four families are disjoint.
    """
    if member_column_wise(o):
        return "column"
    if member_row_wise(o):
        return "row"
    rev = reverse(o)
    if member_column_wise(rev):
        return "reverse-column"
    if member_row_wise(rev):
        return "reverse-row"
    return None


# --- labels, bounds, records -------------------------------------------------

@dataclass(frozen=True)
class SerialPerm:
    variant: str  # column | row | reverse-column | reverse-row


@dataclass(frozen=True)
class GeneralizedSerial:
    d: int  # shift steps in the minimal qualifying chain


@dataclass(frozen=True)
class Parallel:
    anchor: PivotOrdering
    shift_length: int  # 0 when only transpositions separate it from the anchor


Label = Union[SerialPerm, GeneralizedSerial, Parallel]


@dataclass(frozen=True)
class Bound:
    """Contraction S(A^[t + tau]) <= gamma * S(A^[t]) for all t >= t0."""

    gamma: float
    tau: int
    t0: int
    gamma_sq: Optional[Fraction] = None  # exact square when available


@dataclass(frozen=True)
class ClassificationRecord:
    ordering: PivotOrdering
    label: Label
    certificate: Certificate
    bound: Bound


def label_text(label: Label) -> str:
    if isinstance(label, SerialPerm):
        return f"SerialPerm({label.variant})"
    if isinstance(label, GeneralizedSerial):
        return f"GeneralizedSerial(d={label.d})"
    tag = "par" if label.anchor == PAR_ANCHOR else "par2"
    return f"Parallel({tag}, shift={label.shift_length})"


# --- classifier ---------------------------------------------------------------

@lru_cache(maxsize=1)
def serial_perm_orderings() -> tuple[PivotOrdering, ...]:
    """All 48 serial orderings for n = 4, in a fixed deterministic order."""
    out: list[PivotOrdering] = []
    for pi3 in itertools.permutations((1, 2)):
        for pi4 in itertools.permutations((1, 2, 3)):
            cols = [(1, 2)] + [(r, 3) for r in pi3] + [(r, 4) for r in pi4]
            out.append(make_ordering(cols))
    for tau2 in itertools.permutations((3, 4)):
        for tau1 in itertools.permutations((2, 3, 4)):
            rows = [(3, 4)] + [(2, s) for s in tau2] + [(1, s) for s in tau1]
            out.append(make_ordering(rows))
    out.extend(reverse(o) for o in list(out))
    return tuple(out)


@lru_cache(maxsize=1)
def _relabeled_serial_index() -> dict[tuple[Pair, ...], tuple[int, tuple[int, ...], PivotOrdering]]:
    """Map an ordering to a relabeling q placing it in a serial template.

    Keys are pair tuples X for which permute(X, q) is serial; the identity
    relabeling is preferred, then the smallest q in lexicographic order.
    """
    index: dict[tuple[Pair, ...], tuple[int, tuple[int, ...], PivotOrdering]] = {}
    perms = sorted(itertools.permutations(range(1, 5)))
    for k, q in enumerate(perms):
        q_inv = invert(q)
        for target in serial_perm_orderings():
            index.setdefault(_relabel(target.pairs, q_inv), (k, q, target))
    return index


def _empty_certificate(o: PivotOrdering) -> Certificate:
    return Certificate(o, (), o, 0)


def _parallel_record(o: PivotOrdering, dist, parent) -> Optional[ClassificationRecord]:
    for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR):
        if anchor.pairs not in dist:
            continue
        steps = _steps_to(parent, o.pairs, anchor.pairs)
        cert = make_certificate(o, steps)
        shifts = [s for s in steps if isinstance(s, Shift)]
        if len(shifts) > 1:
            raise ClassificationError(
                f"parallel chain for {o} needs {len(shifts)} shifts; expected at most one"
            )
        shift_length = shifts[0].length if shifts else 0
        bound = Bound(PARALLEL_GAMMA, 3, 1)
        return ClassificationRecord(o, Parallel(anchor, shift_length), cert, bound)
    return None


@lru_cache(maxsize=None)
def classify(o: PivotOrdering) -> ClassificationRecord:
    """Assign an ordering its class, certificate, and convergence bound.

    Precedence: serial template, then generalized serial with the smallest
    shift count d (transpositions and one end relabeling are free), then
    parallel.  Failure to match any class is a hard error: it would falsify
    the exhaustive case analysis behind the universal bound.
    """
    if o.n != 4:
        raise ValueError(f"classification is defined for n=4, got n={o.n}")
    variant = member_serial_perm(o)
    if variant is not None:
        bound = Bound(SERIAL_GAMMA, 1, 0, SERIAL_GAMMA_SQ)
        return ClassificationRecord(o, SerialPerm(variant), _empty_certificate(o), bound)

    dist, parent = _weak_search(o, frozenset((TRANSPOSE, SHIFT)))
    index = _relabeled_serial_index()
    candidates = [
        (d, *index[pairs], pairs)
        for pairs, d in dist.items()
        if pairs in index
    ]
    if candidates:
        d, _, q, target, pre = min(candidates, key=lambda c: (c[0], c[1], c[4]))
        steps = _steps_to(parent, o.pairs, pre)
        if q != tuple(range(1, 5)):
            steps.append(Permute(tuple(q)))
        cert = make_certificate(o, steps)
        if cert.target != target or member_serial_perm(cert.target) is None:
            raise ClassificationError(f"chain for {o} does not reach a serial template")
        bound = Bound(SERIAL_GAMMA, d + 1, 0, SERIAL_GAMMA_SQ)
        return ClassificationRecord(o, GeneralizedSerial(d), cert, bound)

    record = _parallel_record(o, dist, parent)
    if record is not None:
        return record
    raise ClassificationError(f"ordering {o} matched no class; case analysis falsified")


def anchor_variants(anchor: PivotOrdering) -> tuple[PivotOrdering, ...]:
    """The orderings reachable from an anchor by admissible transpositions."""
    dist, _ = _weak_search(anchor, frozenset((TRANSPOSE,)))
    return tuple(sorted((PivotOrdering(anchor.n, p) for p in dist), key=lambda o: o.pairs))


@lru_cache(maxsize=1)
def parallel_orderings() -> tuple[PivotOrdering, ...]:
    """All 96 parallel orderings for n = 4 (both anchors' weak classes)."""
    out = []
    for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR):
        dist, _ = _weak_search(anchor, frozenset((TRANSPOSE, SHIFT)))
        out.extend(PivotOrdering(4, p) for p in dist)
    return tuple(sorted(set(out), key=lambda o: o.pairs))


# --- reference catalog --------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One of the 120 orderings starting at (1, 2), with its reduction chain.

    ``terminal`` names where the chain lands: a serial template family
    ("Cc", "Cr", "rCc", "rCr"), another catalog entry ("O<k>"), or a
    parallel anchor ("par", "par2").
    """

    index: int
    ordering: PivotOrdering
    chain: Certificate
    terminal: str


_RELABELINGS = {
    "q1": (3, 1, 2, 4),
    "q2": (1, 3, 2, 4),
    "q3": (3, 2, 1, 4),
    "q4": (1, 3, 4, 2),
}

# pairs | chain (t<pos><pos+1> = adjacent transpose at 1-based positions,
# s<l> = cyclic shift by l, q<k> = relabeling) | terminal
_CATALOG_SRC = [
    # 1-12: column template
    ("12 13 23 14 24 34", "", "Cc"),
    ("12 13 23 14 34 24", "", "Cc"),
    ("12 13 23 24 14 34", "", "Cc"),
    ("12 13 23 24 34 14", "", "Cc"),
    ("12 13 23 34 14 24", "", "Cc"),
    ("12 13 23 34 24 14", "", "Cc"),
    ("12 23 13 14 24 34", "", "Cc"),
    ("12 23 13 14 34 24", "", "Cc"),
    ("12 23 13 24 14 34", "", "Cc"),
    ("12 23 13 24 34 14", "", "Cc"),
    ("12 23 13 34 14 24", "", "Cc"),
    ("12 23 13 34 24 14", "", "Cc"),
    # 13-16: reverse-row template
    ("12 13 14 23 24 34", "", "rCr"),
    ("12 13 14 24 23 34", "", "rCr"),
    ("12 14 13 23 24 34", "", "rCr"),
    ("12 14 13 24 23 34", "", "rCr"),
    # 17-20: one transposition away from a template
    ("12 13 14 23 34 24", "t34", "O2"),
    ("12 23 24 13 14 34", "t34", "O9"),
    ("12 23 24 13 34 14", "t34", "O10"),
    ("12 14 24 13 23 34", "t34", "O16"),
    # 21-50: one shift away
    ("12 13 14 34 23 24", "s3", "Cr"),
    ("12 13 14 34 24 23", "s3", "Cr"),
    ("12 13 34 23 24 14", "s2", "Cr"),
    ("12 13 34 24 23 14", "s2", "Cr"),
    ("12 14 13 34 23 24", "s3", "Cr"),
    ("12 14 13 34 24 23", "s3", "Cr"),
    ("12 14 34 23 24 13", "s2", "Cr"),
    ("12 14 34 24 23 13", "s2", "Cr"),
    ("12 34 23 24 13 14", "s1", "Cr"),
    ("12 34 23 24 14 13", "s1", "Cr"),
    ("12 34 24 23 13 14", "s1", "Cr"),
    ("12 34 24 23 14 13", "s1", "Cr"),
    ("12 14 24 34 13 23", "s1", "rCc"),
    ("12 14 24 34 23 13", "s1", "rCc"),
    ("12 14 34 24 13 23", "s1", "rCc"),
    ("12 24 14 34 13 23", "s1", "rCc"),
    ("12 24 14 34 23 13", "s1", "rCc"),
    ("12 24 34 14 13 23", "s1", "rCc"),
    ("12 24 34 14 23 13", "s1", "rCc"),
    ("12 34 14 24 13 23", "s1", "rCc"),
    ("12 34 14 24 23 13", "s1", "rCc"),
    ("12 34 24 14 13 23", "s1", "rCc"),
    ("12 34 24 14 23 13", "s1", "rCc"),
    ("12 13 24 23 34 14", "s5", "rCr"),
    ("12 14 23 24 34 13", "s5", "rCr"),
    ("12 14 24 23 34 13", "s5", "rCr"),
    ("12 23 24 34 13 14", "s4", "rCr"),
    ("12 23 24 34 14 13", "s4", "rCr"),
    ("12 24 23 34 13 14", "s4", "rCr"),
    ("12 24 23 34 14 13", "s4", "rCr"),
    # 51-64: a transposition plus a shift
    ("12 34 13 23 14 24", "t12 s1", "O1"),
    ("12 34 13 23 24 14", "t12 s1", "O3"),
    ("12 34 23 13 14 24", "t12 s1", "O7"),
    ("12 34 23 13 24 14", "t12 s1", "O9"),
    ("12 13 34 24 14 23", "t56 s2", "Cr"),
    ("12 14 34 23 13 24", "t56 s2", "Cr"),
    ("12 14 34 13 24 23", "t45 s1", "rCc"),
    ("12 24 34 23 14 13", "t45 s1", "rCc"),
    ("12 23 14 24 34 13", "t23 s5", "rCr"),
    ("12 24 13 23 34 14", "t23 s5", "rCr"),
    ("12 34 13 14 23 24", "t12 s1", "O13"),
    ("12 34 13 14 24 23", "t12 s1", "O14"),
    ("12 34 14 13 23 24", "t12 s1", "O15"),
    ("12 34 14 13 24 23", "t12 s1", "O16"),
    # 65-84: relabeling q1 = (3 1 2 4)
    ("12 13 14 24 34 23", "q1 s5", "O5"),
    ("12 13 24 14 34 23", "q1 s5", "O2"),
    ("12 13 24 34 14 23", "q1 s5", "O1"),
    ("12 13 24 34 23 14", "q1 t56 s5", "O1"),
    ("12 24 13 14 34 23", "q1 t23 s5", "O2"),
    ("12 24 13 34 14 23", "q1 t23 s5", "O1"),
    ("12 24 13 34 23 14", "q1 t23 t56 s5", "O1"),
    ("12 14 23 13 34 24", "q1 t23 s2", "Cr"),
    ("12 14 34 13 23 24", "q1 s1", "Cr"),
    ("12 23 14 13 34 24", "q1 s2", "Cr"),
    ("12 23 24 14 13 34", "q1 s3", "Cr"),
    ("12 24 14 13 34 23", "q1 s2", "Cr"),
    ("12 24 14 23 34 13", "q1 t34 s3", "Cr"),
    ("12 24 23 14 34 13", "q1 s3", "Cr"),
    ("12 13 34 14 23 24", "q1 s4", "O15"),
    ("12 13 34 14 24 23", "q1 s4", "rCr"),
    ("12 23 34 13 14 24", "q1 s5", "rCr"),
    ("12 24 23 13 34 14", "q1", "rCr"),
    ("12 24 34 13 14 23", "q1 s5", "O14"),
    ("12 24 34 13 23 14", "q1 t56 s5", "O14"),
    # 85-94: relabeling q2 = (1 3 2 4)
    ("12 23 14 34 13 24", "q2 t56 s5", "O1"),
    ("12 23 14 34 24 13", "q2 s5", "O1"),
    ("12 14 13 24 34 23", "q2 s3", "Cr"),
    ("12 14 24 13 34 23", "q2 t34 s3", "Cr"),
    ("12 24 34 23 13 14", "q2 s1", "Cr"),
    ("12 14 13 23 34 24", "q2", "rCr"),
    ("12 14 23 34 13 24", "q2 t56 s5", "O13"),
    ("12 14 23 34 24 13", "q2 s5", "O13"),
    ("12 23 34 13 24 14", "q2 t45 s4", "O15"),
    ("12 23 34 24 13 14", "q2 s4", "O15"),
    # 95-104: relabelings q3 = (3 2 1 4) and q4 = (1 3 4 2)
    ("12 14 24 23 13 34", "q3 s3 t34", "O2"),
    ("12 13 34 23 14 24", "q3 s4", "Cr"),
    ("12 23 24 14 34 13", "q3 s2", "rCc"),
    ("12 23 34 14 13 24", "q3 t56 s2", "rCc"),
    ("12 23 34 14 24 13", "q3 s2", "rCc"),
    ("12 23 34 24 14 13", "q3 s2", "rCc"),
    ("12 24 14 13 23 34", "q3 s3", "rCr"),
    ("12 24 14 23 13 34", "q3 s3", "O13"),
    ("12 24 23 14 13 34", "q3 t34 s3", "O13"),
    ("12 24 23 13 14 34", "q4 s3 t34", "rCr"),
    # 105-112: weakly equivalent to the first parallel anchor
    ("12 34 13 24 14 23", "s2", "par"),
    ("12 13 24 14 23 34", "s1 t56", "par"),
    ("12 13 24 23 14 34", "s1 t34 t56", "par"),
    ("12 24 13 14 23 34", "s1 t12 t56", "par"),
    ("12 24 13 23 14 34", "s1 t12 t34 t56", "par"),
    ("12 34 13 24 23 14", "s2 t34", "par"),
    ("12 34 24 13 14 23", "s2 t12", "par"),
    ("12 34 24 13 23 14", "s2 t12 t34", "par"),
    # 113-120: weakly equivalent to the second parallel anchor
    ("12 14 23 13 24 34", "s1 t56", "par2"),
    ("12 14 23 24 13 34", "s1 t34 t56", "par2"),
    ("12 23 14 13 24 34", "s1 t12 t56", "par2"),
    ("12 23 14 24 13 34", "s1 t12 t34 t56", "par2"),
    ("12 34 14 23 13 24", "s2", "par2"),
    ("12 34 14 23 24 13", "s2 t34", "par2"),
    ("12 34 23 14 13 24", "s2 t12", "par2"),
    ("12 34 23 14 24 13", "s2 t12 t34", "par2"),
]


def _parse_catalog_pairs(text: str) -> PivotOrdering:
    return make_ordering([(int(tok[0]), int(tok[1])) for tok in text.split()], n=4)


def _parse_chain(text: str):
    steps = []
    for tok in text.split():
        if tok.startswith("q"):
            steps.append(Permute(_RELABELINGS[tok]))
        elif tok.startswith("s"):
            steps.append(Shift(int(tok[1:])))
        elif tok.startswith("t"):
            steps.append(Transpose(int(tok[1]) - 1))
        else:
            raise ValueError(f"bad chain token {tok!r}")
    return steps


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """The 120 orderings starting at (1, 2), each with its reduction chain."""
    entries = []
    for idx, (pairs_text, chain_text, terminal) in enumerate(_CATALOG_SRC, start=1):
        ordering = _parse_catalog_pairs(pairs_text)
        chain = make_certificate(ordering, _parse_chain(chain_text))
        entries.append(CatalogEntry(idx, ordering, chain, terminal))
    return tuple(entries)


def c0_orderings() -> tuple[PivotOrdering, ...]:
    """The 120 orderings whose first pivot is (1, 2), in catalog order."""
    return tuple(entry.ordering for entry in catalog())


_TERMINAL_TESTS = {
    "Cc": member_column_wise,
    "Cr": member_row_wise,
    "rCc": lambda o: member_column_wise(reverse(o)),
    "rCr": lambda o: member_row_wise(reverse(o)),
}

# catalog entries whose minimal chain needs no shift at all
_NO_SHIFT_ENTRIES = frozenset({17, 18, 19, 20, 82, 90})


@dataclass
class CatalogReport:
    failures: list[str]
    class_counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_catalog() -> CatalogReport:
    """Replay all 120 chains and cross-check the classifier against them."""
    failures: list[str] = []
    entries = catalog()
    by_index = {e.index: e for e in entries}

    seen = {e.ordering.pairs for e in entries}
    if len(seen) != 120:
        failures.append("catalog orderings are not all distinct")
    if any(e.ordering.pairs[0] != (1, 2) for e in entries):
        failures.append("catalog contains an ordering not starting at (1, 2)")

    counts = {
        "column": 0,
        "row": 0,
        "reverse-column": 0,
        "reverse-row": 0,
        "generalized-serial": 0,
        "parallel": 0,
    }
    for entry in entries:
        try:
            endpoint = replay(entry.chain)
        except Exception as exc:  # report, do not abort the sweep
            failures.append(f"entry {entry.index}: chain replay failed: {exc}")
            continue
        if entry.terminal.startswith("O"):
            ref = by_index[int(entry.terminal[1:])]
            if endpoint != ref.ordering:
                failures.append(
                    f"entry {entry.index}: chain lands at {endpoint}, not entry {ref.index}"
                )
        elif entry.terminal == "par":
            if endpoint != PAR_ANCHOR:
                failures.append(f"entry {entry.index}: chain misses the parallel anchor")
        elif entry.terminal == "par2":
            if endpoint != PAR_ANCHOR_MIRROR:
                failures.append(f"entry {entry.index}: chain misses the mirrored anchor")
        else:
            if not _TERMINAL_TESTS[entry.terminal](endpoint):
                failures.append(
                    f"entry {entry.index}: endpoint {endpoint} not in family {entry.terminal}"
                )

        record = classify(entry.ordering)
        if entry.index <= 16:
            if not isinstance(record.label, SerialPerm):
                failures.append(f"entry {entry.index}: expected a serial label")
            else:
                counts[record.label.variant] += 1
        elif entry.index <= 104:
            if not isinstance(record.label, GeneralizedSerial):
                failures.append(f"entry {entry.index}: expected a generalized-serial label")
            else:
                counts["generalized-serial"] += 1
                if entry.index in _NO_SHIFT_ENTRIES and record.label.d != 0:
                    failures.append(f"entry {entry.index}: minimal chain should need no shift")
                if record.label.d > entry.chain.shift_count:
                    failures.append(
                        f"entry {entry.index}: minimal d exceeds the recorded chain's"
                    )
        else:
            if not isinstance(record.label, Parallel):
                failures.append(f"entry {entry.index}: expected a parallel label")
            else:
                counts["parallel"] += 1

    if counts["column"] != 12:
        failures.append(f"expected 12 column orderings, found {counts['column']}")
    if counts["row"] != 0:
        failures.append("the row template cannot start at (1, 2)")
    if counts["reverse-column"] != 0:
        failures.append("the reverse-column template cannot start at (1, 2)")
    if counts["reverse-row"] != 4:
        failures.append(f"expected 4 reverse-row orderings, found {counts['reverse-row']}")
    if counts["generalized-serial"] != 88:
        failures.append(
            f"expected 88 generalized-serial orderings, found {counts['generalized-serial']}"
        )
    if counts["parallel"] != 16:
        failures.append(f"expected 16 parallel orderings, found {counts['parallel']}")
    return CatalogReport(failures, counts)
