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

``classify`` assigns the strongest licensed bound.  It is a lookup into
``_class_table``, which labels all 720 orderings at once: the classes are
closed under transpositions and cyclic shifts, and both moves are
reversible, so searches run backward from the class targets.  The 48
serial templates keep their family; one multi-source search from every
relabeled serial template gives the generalized-serial d as its distance
(shifts cost one, transpositions nothing); one search by transpositions
from each anchor gives that anchor's variants, and their cyclic shifts are
the parallel class.  A record's replayable certificate is built on first
read, from ``orderings._nearest``, the one minimal-shift search and
tie-break that ``orderings.relate`` uses too.

``serial_perm_orderings`` is the one definition of the serial templates,
and ``_ANCHOR_NAMES`` the one map from an anchor to its name ("par",
"par2") in the labels and the catalog terminals.  Code elsewhere asks
``classify``: ``driver.run_parallel_cycle`` whether an ordering is
``Parallel`` with shift length 0, ``jjacobi.monitor_proof_bounds`` for the
anchor and shift that place its cascade windows.  ``member_serial_perm``,
``anchor_variants`` and ``parallel_orderings`` read the same table.
``catalog`` embeds the reference table of the 120 orderings that start at
pivot (1, 2) with their recorded reduction chains; ``verify_catalog``
checks where every chain lands and cross-checks the classifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Union

from .orderings import (
    SHIFT,
    TRANSPOSE,
    Certificate,
    Permute,
    PivotOrdering,
    Shift,
    Transpose,
    _nearest,
    _relabeled_targets,
    _weak_search,
    _weak_search_from,
    make_certificate,
    make_ordering,
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
# the anchors are not weakly equivalent, so a search reaches at most one
_ANCHOR_TARGETS = _relabeled_targets((PAR_ANCHOR, PAR_ANCHOR_MIRROR), False)
# each anchor's name in the labels and the catalog terminals
_ANCHOR_NAMES = {PAR_ANCHOR: "par", PAR_ANCHOR_MIRROR: "par2"}
# the moves of the chain searches; a relabeling is free at one end of a chain
_WEAK_MOVES = frozenset((TRANSPOSE, SHIFT))


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


# Every cyclic ordering's bound, and the only one the parallel class has.
UNIVERSAL_BOUND = Bound(PARALLEL_GAMMA, 3, 1)


@dataclass(frozen=True, init=False)
class ClassificationRecord:
    """An ordering's class and bound; equality and hashing ignore the certificate."""

    ordering: PivotOrdering
    label: Label
    bound: Bound

    def __init__(self, ordering: PivotOrdering, label: Label, bound: Bound) -> None:
        # The generated frozen __init__ makes one object.__setattr__ call per
        # field, most of a classify call; writing the instance dict directly
        # keeps the record frozen (assignment still raises FrozenInstanceError).
        fields = self.__dict__
        fields["ordering"] = ordering
        fields["label"] = label
        fields["bound"] = bound

    @cached_property
    def certificate(self) -> Certificate:
        """The replayable chain behind the label, built on first read (see ``_certificate``)."""
        return _certificate(self.ordering, self.label)


def label_text(label: Label) -> str:
    if isinstance(label, SerialPerm):
        return f"SerialPerm({label.variant})"
    if isinstance(label, GeneralizedSerial):
        return f"GeneralizedSerial(d={label.d})"
    return f"Parallel({_ANCHOR_NAMES[label.anchor]}, shift={label.shift_length})"


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


# the families of ``serial_perm_orderings``, 12 orderings each, in its order
_FAMILIES = ("column", "row", "reverse-column", "reverse-row")


def member_serial_perm(o: PivotOrdering) -> Optional[str]:
    """The serial template family of an n = 4 ordering, or None if it is in none.

    Read off ``_class_table``, whose serial labels are ``serial_perm_orderings``.
    """
    if o.n != 4:
        raise ValueError(f"serial templates are defined for n=4, got n={o.n}")
    label, _ = _class_table().get(o.pairs, (None, None))
    return label.variant if isinstance(label, SerialPerm) else None


@lru_cache(maxsize=1)
def _relabeled_serial_index():
    """The ``_nearest`` targets of the serial orderings under every relabeling."""
    return _relabeled_targets(serial_perm_orderings(), True)


@lru_cache(maxsize=1)
def _class_table() -> dict[tuple, tuple[Label, Bound]]:
    """Every n = 4 ordering's (label, bound), keyed by pair tuple.

    Each class labels only what a stronger one left unlabelled.  The 48
    templates of ``serial_perm_orderings`` come first, with their family.
    One multi-source search backward from every ``_relabeled_serial_index``
    target gives the rest of its reach their generalized-serial d, the
    fewest shifts on a chain to a relabeled template.  A transposition-only
    search from each anchor gives its 8 variants; an ordering is
    ``Parallel(anchor, l)`` for the smallest l whose cyclic shift by l is a
    variant, so the variants are shifted back by l = 0, ..., 5 in turn.
    The orderings of one label share one (label, bound) tuple.
    """
    bound = Bound(SERIAL_GAMMA, 1, 0, SERIAL_GAMMA_SQ)
    families = [(SerialPerm(family), bound) for family in _FAMILIES]
    table = {o.pairs: families[k // 12] for k, o in enumerate(serial_perm_orderings())}
    serial_d, _ = _weak_search_from(_relabeled_serial_index().keys(), _WEAK_MOVES)
    by_d = {
        d: (GeneralizedSerial(d), Bound(SERIAL_GAMMA, d + 1, 0, SERIAL_GAMMA_SQ))
        for d in set(serial_d.values())
    }
    for pairs, d in serial_d.items():
        table.setdefault(pairs, by_d[d])
    variants = {
        anchor: _weak_search_from((anchor.pairs,), frozenset((TRANSPOSE,)))[0]
        for anchor in _ANCHOR_NAMES
    }
    for length in range(6):
        for anchor, members in variants.items():
            entry = (Parallel(anchor, length), UNIVERSAL_BOUND)
            for pairs in members:
                table.setdefault(pairs[6 - length:] + pairs[:6 - length], entry)
    return table


def classify(o: PivotOrdering) -> ClassificationRecord:
    """Assign an ordering its class and convergence bound; the certificate follows on read.

    Precedence: serial template, then generalized serial with the smallest
    shift count d (transpositions and one end relabeling are free), then
    parallel with the smallest shift length.  ``_class_table`` holds that
    answer for every ordering, so no search runs per ordering, and each call
    builds a fresh record, which caches its own certificate.  Failure to
    match any class is a hard error: it would falsify the exhaustive case
    analysis behind the universal bound.
    """
    if o.n != 4:
        raise ValueError(f"classification is defined for n=4, got n={o.n}")
    entry = _class_table().get(o.pairs)
    if entry is None:
        raise ClassificationError(f"ordering {o} matched no class; case analysis falsified")
    label, bound = entry
    return ClassificationRecord(o, label, bound)


def _certificate(o: PivotOrdering, label: Label) -> Certificate:
    """The chain behind a label: empty for a serial template, else the chain that
    ``orderings._nearest`` picks from a forward ``_weak_search`` out of ``o``.

    Raises ``ClassificationError`` when the chain does not land where the
    label says: in a serial template after d shifts, or in the label's
    anchor after a shift by its length.
    """
    if isinstance(label, SerialPerm):
        return Certificate(o, (), o, 0)
    dist, parent = _weak_search(o, _WEAK_MOVES)
    if isinstance(label, GeneralizedSerial):
        hit = _nearest(o, dist, parent, _relabeled_serial_index())
        cert = make_certificate(o, hit[2]) if hit else None
        if cert is None or cert.target != hit[1][2] or member_serial_perm(cert.target) is None:
            raise ClassificationError(f"chain for {o} does not reach a serial template")
        if cert.shift_count != label.d:
            raise ClassificationError(
                f"chain for {o} has {cert.shift_count} shifts, not d={label.d}"
            )
        return cert
    hit = _nearest(o, dist, parent, _ANCHOR_TARGETS)
    cert = make_certificate(o, hit[2]) if hit else None
    expected = [Shift(label.shift_length)] if label.shift_length else []
    if cert is None or cert.target != label.anchor or (
        [s for s in cert.steps if isinstance(s, Shift)] != expected
    ):
        raise ClassificationError(f"parallel chain for {o} does not match {label_text(label)}")
    return cert


def anchor_variants(anchor: PivotOrdering) -> tuple[PivotOrdering, ...]:
    """The orderings reachable from an anchor by admissible transpositions.

    Read off ``_class_table``: the orderings labelled ``Parallel(anchor, 0)``,
    sorted by pairs.
    """
    if anchor not in _ANCHOR_NAMES:
        raise ValueError(f"{anchor} is not a parallel anchor")
    label = Parallel(anchor, 0)
    members = sorted(pairs for pairs, (lab, _) in _class_table().items() if lab == label)
    return tuple(PivotOrdering(4, pairs) for pairs in members)


@lru_cache(maxsize=1)
def parallel_orderings() -> tuple[PivotOrdering, ...]:
    """All 96 parallel orderings for n = 4, read off ``_class_table``, sorted by pairs."""
    members = sorted(
        pairs for pairs, (label, _) in _class_table().items() if isinstance(label, Parallel)
    )
    return tuple(PivotOrdering(4, pairs) for pairs in members)


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
    return make_ordering([(int(tok[0]), int(tok[1])) for tok in text.split()])


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


# serial terminal tag -> the family ``member_serial_perm`` names
_TERMINAL_FAMILIES = dict(zip(("Cc", "Cr", "rCc", "rCr"), _FAMILIES))


@dataclass
class CatalogReport:
    failures: list[str]
    class_counts: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_catalog() -> CatalogReport:
    """Check where all 120 chains land and cross-check the classifier against them."""
    failures: list[str] = []
    entries = catalog()
    by_index = {e.index: e for e in entries}

    seen = {e.ordering.pairs for e in entries}
    if len(seen) != 120:
        failures.append("catalog orderings are not all distinct")
    if any(e.ordering.pairs[0] != (1, 2) for e in entries):
        failures.append("catalog contains an ordering not starting at (1, 2)")

    counts = dict.fromkeys(_FAMILIES + ("generalized-serial", "parallel"), 0)
    for entry in entries:
        endpoint = entry.chain.target
        if entry.terminal.startswith("O"):
            ref = by_index[int(entry.terminal[1:])]
            if endpoint != ref.ordering:
                failures.append(
                    f"entry {entry.index}: chain lands at {endpoint}, not entry {ref.index}"
                )
        elif entry.terminal.startswith("par"):
            if _ANCHOR_NAMES.get(endpoint) != entry.terminal:
                failures.append(f"entry {entry.index}: chain misses anchor {entry.terminal}")
        else:
            if member_serial_perm(endpoint) != _TERMINAL_FAMILIES[entry.terminal]:
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
