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
from typing import Iterator, Optional, Sequence, Union

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
    "compose",
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

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return format_ordering(self)


def make_ordering(pairs: Sequence[tuple[int, int]], n: int | None = None) -> PivotOrdering:
    """Build an ordering from raw (r, s) pairs, inferring n if omitted."""
    normalized = tuple(pivot_pair(r, s) for r, s in pairs)
    if n is None:
        count = len(normalized)
        n = round((1 + (1 + 8 * count) ** 0.5) / 2)
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


def _disjoint(a: Pair, b: Pair) -> bool:
    return not (set(a) & set(b))


def admissible_transpose(o: PivotOrdering, r: int) -> PivotOrdering:
    """Swap elements r and r+1 (0-based); the two pairs must be disjoint."""
    if not 0 <= r < len(o.pairs) - 1:
        raise IndexError(f"transpose position {r} out of range")
    a, b = o.pairs[r], o.pairs[r + 1]
    if not _disjoint(a, b):
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


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


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
    """0/1-weight BFS over orderings: transposes are free, shifts cost one.

    Returns (dist, parent) maps keyed by pair tuples; parent entries hold
    (previous pair tuple, step).  Nodes are expanded as raw pair tuples: a
    transpose swaps two adjacent elements when the pairs are disjoint, a
    shift rotates the tuple.  Both moves permute the elements of a valid
    ordering, so every node is a valid ordering of the same pairs as
    ``start`` (validated once, when it was built) and none is re-validated.
    Transposes at positions 0..N-2 are expanded first and pushed at the
    front, then shifts 1..N-1 at the back; this order fixes the contents
    and the insertion order of both maps, and so every certificate.
    """
    nn = len(start.pairs)
    transposes = [Transpose(pos) for pos in range(nn - 1)] if TRANSPOSE in moves else []
    shifts = [Shift(length) for length in range(1, nn)] if SHIFT in moves else []
    dist: dict[tuple[Pair, ...], int] = {start.pairs: 0}
    parent: dict[tuple[Pair, ...], tuple[tuple[Pair, ...], Step]] = {}
    queue: deque[tuple[Pair, ...]] = deque([start.pairs])
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


def _steps_to(parent, start_pairs, end_pairs) -> list[Step]:
    steps: list[Step] = []
    cur = end_pairs
    while cur != start_pairs:
        prev, step = parent[cur]
        steps.append(step)
        cur = prev
    steps.reverse()
    return steps


def relate(a: PivotOrdering, b: PivotOrdering, moves) -> Optional[Certificate]:
    """Search for a chain from ``a`` to ``b`` over the chosen move set.

    Returns a certificate with the minimal number of shift steps, or None if
    the orderings are not related.  With permutation moves enabled, a single
    Permute step is placed at the end of the chain; relabeling commutes with
    transposes and shifts, so this shape loses no generality and keeps the
    minimal shift count.
    """
    move_set = _normalize_moves(moves)
    if a.n != b.n:
        raise ValueError("orderings must share the same dimension")
    if a.n > ENUMERATION_LIMIT:
        raise ValueError(f"relation search too large for n={a.n}")
    dist, parent = _weak_search(a, move_set - {PERMUTE})
    candidates: list[tuple[int, int, tuple[int, ...], tuple[Pair, ...]]] = []
    if PERMUTE in move_set:
        perms = sorted(itertools.permutations(range(1, a.n + 1)))
        for k, q in enumerate(perms):
            pre = _relabel(b.pairs, invert(q))
            if pre in dist:
                candidates.append((dist[pre], k, q, pre))
    else:
        if b.pairs in dist:
            q = identity_permutation(a.n)
            candidates.append((dist[b.pairs], 0, q, b.pairs))
    if not candidates:
        return None
    d, _, q, pre = min(candidates)
    steps = _steps_to(parent, a.pairs, pre)
    if q != identity_permutation(a.n):
        steps.append(Permute(tuple(q)))
    return Certificate(a, tuple(steps), b, d)


# --- text formats -----------------------------------------------------------

def format_ordering(o: PivotOrdering) -> str:
    return ", ".join(f"{r} {s}" for r, s in o.pairs)


def parse_ordering(text: str, n: int | None = None) -> PivotOrdering:
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
    return make_ordering(pairs, n)


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
    cert = make_certificate(source, steps)
    if cert.target != target:
        raise BrokenCertificateError("broken certificate: replay does not reach the target")
    return cert
