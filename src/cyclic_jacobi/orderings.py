"""Pivot pairs, pivot orderings, and the relations between orderings.

An ordering is one cycle of a cyclic pivot strategy: a sequence of
N = n(n-1)/2 distinct index pairs covering every off-diagonal position.
Four relations connect orderings:

* adjacent transposition of two disjoint pairs ("equivalence"),
* cyclic shift ("shift-equivalence"),
* their closure ("weak equivalence"),
* relabeling of matrix indices by a permutation ("permutation equivalence").

``relate`` searches for a chain of such steps and returns a replayable
``Certificate`` minimizing the number of shift steps, which is the quantity
that drives the multi-sweep convergence bounds.

All values here are immutable; functions are pure.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Pair",
    "PivotOrdering",
    "Transpose",
    "Shift",
    "Permute",
    "Step",
    "Certificate",
    "NotAdmissibleError",
    "BrokenCertificateError",
    "TRANSPOSE",
    "SHIFT",
    "PERMUTE",
    "pivot_pair",
    "all_pairs",
    "make_ordering",
    "enumerate_orderings",
    "reverse",
    "admissible_transpose",
    "cyclic_shift",
    "permute",
    "apply_step",
    "make_certificate",
    "replay",
    "relate",
    "identity_permutation",
    "invert",
    "parse_ordering",
    "format_ordering",
    "parse_certificate",
    "format_certificate",
]

Pair = tuple[int, int]

TRANSPOSE = "transpose"
SHIFT = "shift"
PERMUTE = "permute"

ENUMERATION_LIMIT = 4  # N! orderings; n = 4 already gives 720


class NotAdmissibleError(ValueError):
    """Adjacent pairs share an index, so transposing them is not allowed."""


class BrokenCertificateError(ValueError):
    """A certificate step is invalid or the replay misses the target."""


def pivot_pair(r: int, s: int) -> Pair:
    """Normalized pair with r < s."""
    if r == s or r < 1 or s < 1:
        raise ValueError(f"pivot pair needs two distinct positive indices, got ({r}, {s})")
    return (r, s) if r < s else (s, r)


def all_pairs(n: int) -> list[Pair]:
    """All pairs (r, s) with 1 <= r < s <= n, lexicographic."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return [(r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]


@dataclass(frozen=True)
class PivotOrdering:
    """A sequence of N = n(n-1)/2 distinct pairs covering all of them."""

    n: int
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        expected = all_pairs(self.n)
        if len(self.pairs) != len(expected):
            raise ValueError(
                f"ordering for n={self.n} needs {len(expected)} pairs, got {len(self.pairs)}"
            )
        for r, s in self.pairs:
            if not (1 <= r < s <= self.n):
                raise ValueError(f"bad pair ({r}, {s}) for n={self.n}")
        if set(self.pairs) != set(expected):
            raise ValueError("pairs must be distinct and cover every position")

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return format_ordering(self)


def make_ordering(pairs: Sequence[tuple[int, int]]) -> PivotOrdering:
    """Build an ordering from raw (r, s) pairs; n follows from their count, n(n-1)/2."""
    normalized = tuple(pivot_pair(r, s) for r, s in pairs)
    n = round((1 + (1 + 8 * len(normalized)) ** 0.5) / 2)
    return PivotOrdering(n, normalized)


def enumerate_orderings(n: int) -> Iterator[PivotOrdering]:
    """Yield all N! orderings of the pairs; guarded to n <= 4."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration too large: n={n} would yield (n(n-1)/2)! orderings")
    base = all_pairs(n)
    for perm in itertools.permutations(base):
        yield PivotOrdering(n, perm)


def reverse(o: PivotOrdering) -> PivotOrdering:
    return PivotOrdering(o.n, tuple(reversed(o.pairs)))


def admissible_transpose(o: PivotOrdering, r: int) -> PivotOrdering:
    """Swap elements r and r+1 (0-based); the two pairs must be disjoint."""
    if not 0 <= r < len(o.pairs) - 1:
        raise IndexError(f"transpose position {r} out of range")
    a, b = o.pairs[r], o.pairs[r + 1]
    if a[0] in b or a[1] in b:
        raise NotAdmissibleError(f"pairs {a} and {b} share an index; transpose not admissible")
    seq = list(o.pairs)
    seq[r], seq[r + 1] = b, a
    return PivotOrdering(o.n, tuple(seq))


def cyclic_shift(o: PivotOrdering, length: int) -> PivotOrdering:
    """Move the first ``length`` pairs to the end."""
    if not 0 <= length < len(o.pairs):
        raise IndexError(f"shift length {length} out of range")
    return PivotOrdering(o.n, o.pairs[length:] + o.pairs[:length])


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _check_permutation(images: Sequence[int], n: int) -> tuple[int, ...]:
    q = tuple(images)
    if sorted(q) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {q}")
    return q


def invert(q: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(q)
    for i, image in enumerate(q, start=1):
        out[image - 1] = i
    return tuple(out)


def _relabel(pairs: tuple[Pair, ...], q: Sequence[int]) -> tuple[Pair, ...]:
    """Raw relabeled pair tuple; ``q`` must already be a permutation of 1..n."""
    out = []
    for r, s in pairs:
        x, y = q[r - 1], q[s - 1]
        out.append((x, y) if x < y else (y, x))
    return tuple(out)


def permute(o: PivotOrdering, images: Sequence[int]) -> PivotOrdering:
    """Relabel indices: each pair (r, s) becomes (min, max) of (q(r), q(s))."""
    q = _check_permutation(images, o.n)
    return PivotOrdering(o.n, _relabel(o.pairs, q))


@dataclass(frozen=True)
class Transpose:
    pos: int  # 0-based: swaps elements pos and pos+1


@dataclass(frozen=True)
class Shift:
    length: int


@dataclass(frozen=True)
class Permute:
    images: tuple[int, ...]


Step = Union[Transpose, Shift, Permute]


def apply_step(o: PivotOrdering, step: Step) -> PivotOrdering:
    if isinstance(step, Transpose):
        return admissible_transpose(o, step.pos)
    if isinstance(step, Shift):
        return cyclic_shift(o, step.length)
    if isinstance(step, Permute):
        return permute(o, step.images)
    raise TypeError(f"unknown step {step!r}")


@dataclass(frozen=True)
class Certificate:
    """Replayable chain of relation steps from ``source`` to ``target``.

    ``shift_count`` is the number of Shift steps; Permute steps are allowed
    only as a single contiguous block at the start or the end of the chain.
    """

    source: PivotOrdering
    steps: tuple[Step, ...]
    target: PivotOrdering
    shift_count: int

    def __post_init__(self):
        if self.shift_count != sum(isinstance(s, Shift) for s in self.steps):
            raise BrokenCertificateError("shift_count does not match the steps")
        _check_permute_block(self.steps)


def _check_permute_block(steps: Sequence[Step]) -> None:
    positions = [k for k, s in enumerate(steps) if isinstance(s, Permute)]
    if not positions:
        return
    contiguous = positions == list(range(positions[0], positions[-1] + 1))
    at_edge = positions[0] == 0 or positions[-1] == len(steps) - 1
    if not (contiguous and at_edge):
        raise BrokenCertificateError(
            "permutation steps must form one block at the start or end of the chain"
        )


def make_certificate(source: PivotOrdering, steps: Sequence[Step]) -> Certificate:
    """Validate the steps, apply them, and seal the result as the target."""
    steps = tuple(steps)
    _check_permute_block(steps)
    current = source
    for step in steps:
        current = apply_step(current, step)
    return Certificate(source, steps, current, sum(isinstance(s, Shift) for s in steps))


def replay(cert: Certificate) -> PivotOrdering:
    """Apply the steps to the source and insist the declared target appears."""
    current = cert.source
    for step in cert.steps:
        try:
            current = apply_step(current, step)
        except (ValueError, IndexError) as exc:
            raise BrokenCertificateError(f"invalid step {step!r}: {exc}") from None
    if current != cert.target:
        raise BrokenCertificateError("broken certificate: replay does not reach the target")
    return current


def _normalize_moves(moves) -> frozenset[str]:
    allowed = {TRANSPOSE, SHIFT, PERMUTE}
    out = frozenset(str(m).lower() for m in moves)
    bad = out - allowed
    if bad:
        raise ValueError(f"unknown moves {sorted(bad)}; allowed: {sorted(allowed)}")
    return out


def _weak_search(start: PivotOrdering, moves: frozenset[str]):
    """0/1-weight BFS over orderings from ``start``: transposes are free, shifts cost one.

    Returns the (dist, parent) maps of ``_weak_search_from((start.pairs,), moves)``.
    """
    return _weak_search_from((start.pairs,), moves)


def _weak_search_from(starts: Iterable[tuple[Pair, ...]], moves: frozenset[str]):
    """0/1-weight BFS from every pair tuple of ``starts`` at distance 0.

    Returns (dist, parent) maps keyed by pair tuples; parent entries hold
    (previous pair tuple, step), and a start has none.  Nodes are expanded
    as raw pair tuples: a transpose swaps two adjacent elements when the
    pairs are disjoint, a shift rotates the tuple.  Both moves permute the
    elements of a valid ordering, so every node is a valid ordering of the
    same pairs as the starts (each validated once, when it was built) and
    none is re-validated.  Transposes at positions 0..N-2 are expanded first
    and pushed at the front, then shifts 1..N-1 at the back; this order
    fixes the contents and the insertion order of both maps, and so every
    certificate.  Both moves are reversible at the same cost (a transpose
    undoes itself, a shift by l is undone by a shift by N - l), so dist is
    also the distance from each node back to its nearest start.

    A rotation class (an ordering's N cyclic shifts) is shifted once, at the
    first pop of any member; later pops expand transposes only.  The maps
    and their order stay the same: a 0-1 BFS first pops nodes in
    nondecreasing order of their final distance, so a class shifted at d'
    is popped again only at some d >= d', and every rotation already has
    distance <= d' + 1 <= d + 1, which no second shift can strictly lower.
    """
    dist: dict[tuple[Pair, ...], int] = dict.fromkeys(starts, 0)
    nn = len(next(iter(dist)))
    transposes = [Transpose(pos) for pos in range(nn - 1)] if TRANSPOSE in moves else []
    shifts = [Shift(length) for length in range(1, nn)] if SHIFT in moves else []
    parent: dict[tuple[Pair, ...], tuple[tuple[Pair, ...], Step]] = {}
    queue: deque[tuple[Pair, ...]] = deque(dist)
    shifted: set[tuple[Pair, ...]] = set()  # members of the rotation classes shifted so far
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
        if not shifts or pairs in shifted:
            continue
        shifted.add(pairs)
        for step in shifts:
            length = step.length
            nxt = pairs[length:] + pairs[:length]
            shifted.add(nxt)
            old = dist.get(nxt)
            if old is None or d + 1 < old:
                dist[nxt] = d + 1
                parent[nxt] = (pairs, step)
                queue.append(nxt)
    return dist, parent


def _steps_to(parent, start_pairs, end_pairs) -> list[Step]:
    steps: list[Step] = []
    cur = end_pairs
    while cur != start_pairs:
        prev, step = parent[cur]
        steps.append(step)
        cur = prev
    steps.reverse()
    return steps


def _relabeled_targets(
    orderings: Sequence[PivotOrdering], relabel: bool
) -> dict[tuple[Pair, ...], tuple[int, tuple[int, ...], PivotOrdering]]:
    """The ``_nearest`` targets for reaching any of ``orderings``: each pair
    tuple X that a relabeling q turns into one of them maps to (rank of q,
    q, that ordering).  q is the identity, or with ``relabel`` every
    permutation in lexicographic order; the first q and ordering giving X win.
    Each q relabels ``all_pairs(n)`` once, and X is read out of those pair
    images at the ordering's positions of its pairs.
    """
    n = orderings[0].n
    base = tuple(all_pairs(n))
    index = {p: k for k, p in enumerate(base)}
    getters = [  # itemgetter(k) gives a bare pair, so N = 1 takes a 1-tuple slice
        itemgetter(*[index[p] for p in o.pairs]) if len(o) > 1 else itemgetter(slice(1))
        for o in orderings
    ]
    relabelings = itertools.permutations(range(1, n + 1)) if relabel else [identity_permutation(n)]
    targets: dict[tuple[Pair, ...], tuple[int, tuple[int, ...], PivotOrdering]] = {}
    for k, q in enumerate(relabelings):
        images = _relabel(base, invert(q))
        for o, get in zip(orderings, getters):
            targets.setdefault(get(images), (k, q, o))
    return targets


def _nearest(start: PivotOrdering, dist, parent, targets):
    """The chain of a ``_weak_search`` from ``start`` to its nearest target.

    ``targets`` is a map of ``_relabeled_targets``.  The hit with the fewest
    shifts wins, then the smallest rank, then the smallest pair tuple.
    Returns (shift count, the hit's ``targets`` value, steps), the steps
    ending in Permute(q) unless q is the identity, or None when no target
    is reached.
    """
    hits = [(dist[pairs], targets[pairs][0], pairs) for pairs in dist.keys() & targets.keys()]
    if not hits:
        return None
    d, _, pairs = min(hits)
    value = targets[pairs]
    steps = _steps_to(parent, start.pairs, pairs)
    q = value[1]
    if q != identity_permutation(start.n):
        steps.append(Permute(q))
    return d, value, steps


def relate(a: PivotOrdering, b: PivotOrdering, moves) -> Optional[Certificate]:
    """Search for a chain from ``a`` to ``b`` over the chosen move set.

    Returns a certificate with the minimal number of shift steps, or None if
    the orderings are not related.  With permutation moves enabled, a single
    Permute step is placed at the end of the chain; relabeling commutes with
    transposes and shifts, so this shape loses no generality and keeps the
    minimal shift count.  The chain is the one ``_nearest`` picks, the
    search and tie-break that ``classification.classify`` uses too: among
    equally short chains, the relabeling that comes first in lexicographic
    order (the identity before any other).
    """
    move_set = _normalize_moves(moves)
    if a.n != b.n:
        raise ValueError("orderings must share the same dimension")
    if a.n > ENUMERATION_LIMIT:
        raise ValueError(f"relation search too large for n={a.n}")
    dist, parent = _weak_search(a, move_set - {PERMUTE})
    hit = _nearest(a, dist, parent, _relabeled_targets((b,), PERMUTE in move_set))
    if hit is None:
        return None
    d, _, steps = hit
    return Certificate(a, tuple(steps), b, d)


# --- text formats -----------------------------------------------------------

def format_ordering(o: PivotOrdering) -> str:
    return ", ".join(f"{r} {s}" for r, s in o.pairs)


def parse_ordering(text: str) -> PivotOrdering:
    """Parse "1 2, 1 3, ..." into an ordering, validating the invariants."""
    chunks = [c for c in (chunk.strip() for chunk in text.split(",")) if c]
    if not chunks:
        raise ValueError("empty ordering text")
    pairs = []
    for chunk in chunks:
        tokens = chunk.split()
        if len(tokens) != 2:
            raise ValueError(f"bad pair {chunk!r}: expected two indices")
        try:
            r, s = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"bad pair {chunk!r}: indices must be integers") from None
        pairs.append((r, s))
    return make_ordering(pairs)


def format_certificate(cert: Certificate) -> str:
    """Line format: source/target headers around one step per line.

    "T r" swaps elements r and r+1 (0-based), "S l" shifts by l, and
    "P i1 i2 ..." relabels indices by the image list.
    """
    lines = [f"source: {format_ordering(cert.source)}"]
    for step in cert.steps:
        if isinstance(step, Transpose):
            lines.append(f"T {step.pos}")
        elif isinstance(step, Shift):
            lines.append(f"S {step.length}")
        else:
            lines.append("P " + " ".join(str(i) for i in step.images))
    lines.append(f"target: {format_ordering(cert.target)}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("source:") or not lines[-1].startswith("target:"):
        raise ValueError("certificate text needs 'source:' and 'target:' lines")
    source = parse_ordering(lines[0][len("source:"):])
    target = parse_ordering(lines[-1][len("target:"):])
    steps: list[Step] = []
    for ln in lines[1:-1]:
        tag, _, rest = ln.partition(" ")
        if tag == "T":
            steps.append(Transpose(int(rest)))
        elif tag == "S":
            steps.append(Shift(int(rest)))
        elif tag == "P":
            steps.append(Permute(tuple(int(tok) for tok in rest.split())))
        else:
            raise ValueError(f"unknown certificate step {ln!r}")
    cert = Certificate(source, tuple(steps), target, sum(isinstance(s, Shift) for s in steps))
    replay(cert)  # BrokenCertificateError for a step out of range or a chain missing the target
    return cert
