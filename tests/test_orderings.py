import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_jacobi.orderings import (
    BrokenCertificateError,
    Certificate,
    NotAdmissibleError,
    Permute,
    PivotOrdering,
    Shift,
    Transpose,
    admissible_transpose,
    all_pairs,
    cyclic_shift,
    enumerate_orderings,
    format_certificate,
    format_ordering,
    invert,
    make_certificate,
    make_ordering,
    parse_certificate,
    parse_ordering,
    permute,
    SHIFT,
    TRANSPOSE,
    _relabeled_targets,
    _weak_search_from,
    relate,
    replay,
    reverse,
)
from cyclic_jacobi.classification import (
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    _relabeled_serial_index,
    catalog,
    serial_perm_orderings,
)
from oracles import reference_relabeled_targets, reference_weak_search_from

ENTRY = {e.index: e.ordering for e in catalog()}

# sha256 of format_certificate(relate(o, b, moves)), or "None\n" when the two
# are unrelated, over all 720 orderings o, the targets b = PAR_ANCHOR and
# catalog entry 13, and the move sets {transpose}, {transpose, shift} and
# {transpose, shift, permute}; recorded while relate kept its own candidate
# list, before it shared one minimal-shift search with classify.
RELATE_DIGEST = "e2bc6fb20d7e2977e65ac65e652ab07d4ef568c4e8f47fd6e3a7d1a70f136963"

orderings4 = st.permutations(all_pairs(4)).map(lambda p: PivotOrdering(4, tuple(p)))
permutations4 = st.permutations((1, 2, 3, 4)).map(tuple)


class TestPairsAndOrderings:
    def test_all_pairs_small(self):
        assert all_pairs(2) == [(1, 2)]
        assert all_pairs(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert len(all_pairs(5)) == 10

    def test_all_pairs_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            all_pairs(1)

    def test_ordering_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            make_ordering([(1, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
        with pytest.raises(ValueError):
            make_ordering([(1, 2), (1, 3)])

    def test_enumerate_counts(self):
        assert len(list(enumerate_orderings(2))) == 1
        assert len(list(enumerate_orderings(3))) == 6
        all4 = list(enumerate_orderings(4))
        assert len(all4) == 720
        assert sum(o.pairs[0] == (1, 2) for o in all4) == 120

    def test_enumerate_guard(self):
        with pytest.raises(ValueError, match="enumeration too large"):
            list(enumerate_orderings(5))


class TestReverse:
    def test_reverse_of_first_catalog_entry(self):
        rev = reverse(ENTRY[1])
        assert rev.pairs[:3] == ((3, 4), (2, 4), (1, 4))

    def test_involution_on_all_orderings(self):
        for o in enumerate_orderings(4):
            assert reverse(reverse(o)) == o


class TestTranspose:
    def test_catalog_transposition(self):
        # swapping the disjoint pairs at slots 2 and 3 links entries 17 and 2
        assert admissible_transpose(ENTRY[17], 2) == ENTRY[2]
        assert admissible_transpose(ENTRY[2], 2) == ENTRY[17]

    def test_rejects_overlapping_pairs(self):
        o = ENTRY[1]  # starts (1,2),(1,3): they share index 1
        with pytest.raises(NotAdmissibleError):
            admissible_transpose(o, 0)

    def test_involution(self):
        o = ENTRY[105]
        assert admissible_transpose(admissible_transpose(o, 0), 0) == o

    def test_position_range(self):
        with pytest.raises(IndexError):
            admissible_transpose(ENTRY[1], 5)


class TestShift:
    def test_zero_shift(self):
        assert cyclic_shift(ENTRY[1], 0) == ENTRY[1]

    def test_shift_links_entry_105_to_anchor(self):
        assert cyclic_shift(ENTRY[105], 2) == PAR_ANCHOR

    @given(orderings4, st.integers(min_value=0, max_value=5))
    def test_shift_group_property(self, o, length):
        shifted = cyclic_shift(o, length)
        back = cyclic_shift(shifted, (6 - length) % 6)
        assert back == o

    def test_length_range(self):
        with pytest.raises(IndexError):
            cyclic_shift(ENTRY[1], 6)


class TestPermute:
    def test_identity(self):
        assert permute(ENTRY[1], (1, 2, 3, 4)) == ENTRY[1]

    def test_anchor_mirroring(self):
        # swapping indices 3 and 4 maps one parallel anchor to the other
        assert permute(PAR_ANCHOR, (1, 2, 4, 3)) == PAR_ANCHOR_MIRROR

    @given(orderings4, permutations4)
    @settings(max_examples=50)
    def test_inverse_restores(self, o, q):
        assert permute(permute(o, q), invert(q)) == o

    @given(orderings4, permutations4, permutations4)
    @settings(max_examples=50)
    def test_group_action(self, o, q1, q2):
        composed = tuple(q2[q1[i] - 1] for i in range(4))  # (q2 o q1)(i) = q2(q1(i))
        assert permute(permute(o, q1), q2) == permute(o, composed)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            permute(ENTRY[1], (1, 1, 3, 4))


class TestRelate:
    def test_reflexive(self):
        cert = relate(ENTRY[1], ENTRY[1], {"transpose"})
        assert cert is not None
        assert cert.steps == ()
        assert cert.shift_count == 0

    def test_single_transposition(self):
        cert = relate(ENTRY[17], ENTRY[2], {"transpose"})
        assert cert is not None
        assert len(cert.steps) == 1
        assert isinstance(cert.steps[0], Transpose)
        assert replay(cert) == ENTRY[2]

    def test_n2_ordering_relates_to_itself_under_relabeling(self):
        o = make_ordering([(1, 2)])
        cert = relate(o, o, {"transpose", "shift", "permute"})
        assert cert is not None
        assert cert.steps == ()
        assert cert.shift_count == 0

    def test_n3_relabeling_is_one_permute(self):
        for o in enumerate_orderings(3):
            for q in itertools.permutations((1, 2, 3)):
                if q == (1, 2, 3):
                    continue
                for moves in ({"permute"}, {"transpose", "shift", "permute"}):
                    cert = relate(o, permute(o, q), moves)
                    assert cert is not None
                    assert cert.steps == (Permute(q),)
                    assert replay(cert) == permute(o, q)

    def test_anchors_not_weakly_equivalent(self):
        assert relate(PAR_ANCHOR_MIRROR, PAR_ANCHOR, {"transpose", "shift"}) is None

    def test_anchors_permutation_equivalent(self):
        cert = relate(PAR_ANCHOR_MIRROR, PAR_ANCHOR, {"transpose", "shift", "permute"})
        assert cert is not None
        assert replay(cert) == PAR_ANCHOR

    @given(orderings4, st.integers(min_value=1, max_value=5))
    @settings(max_examples=25)
    def test_any_shift_needs_one_shift_step(self, o, length):
        cert = relate(o, cyclic_shift(o, length), {"shift"})
        assert cert is not None
        assert cert.shift_count == 1

    @given(orderings4, permutations4)
    @settings(max_examples=25)
    def test_pure_permutation_reachable(self, o, q):
        cert = relate(o, permute(o, q), {"permute"})
        assert cert is not None
        assert cert.shift_count == 0

    def test_relabeling_commutes_with_weak_moves(self):
        # searching with the relabeling at either end gives the same shift count
        rng_entries = [ENTRY[21], ENTRY[55], ENTRY[77], ENTRY[95]]
        for o in rng_entries:
            for q in itertools.permutations((1, 2, 3, 4)):
                target = permute(ENTRY[13], q)
                a = relate(o, target, {"transpose", "shift", "permute"})
                b = relate(permute(o, q), target, {"transpose", "shift", "permute"})
                if a is None:
                    assert b is None
                else:
                    assert b is not None and a.shift_count == b.shift_count

    @given(st.permutations(all_pairs(3)))
    @settings(max_examples=10)
    def test_symmetry_for_weak_relation(self, pairs):
        a = PivotOrdering(3, tuple(pairs))
        b = cyclic_shift(admissible_transpose(a, 0) if not (set(a.pairs[0]) & set(a.pairs[1])) else a, 1)
        fwd = relate(a, b, {"transpose", "shift"})
        back = relate(b, a, {"transpose", "shift"})
        assert (fwd is None) == (back is None)
        if fwd is not None:
            assert fwd.shift_count == back.shift_count

    def test_transitivity_by_concatenation(self):
        a, b, c = ENTRY[105], PAR_ANCHOR, cyclic_shift(PAR_ANCHOR, 3)
        ab = relate(a, b, {"transpose", "shift"})
        bc = relate(b, c, {"transpose", "shift"})
        joined = make_certificate(a, ab.steps + bc.steps)
        assert joined.target == c

    @given(
        orderings4,
        st.lists(st.tuples(st.sampled_from("ts"), st.integers(0, 4)), max_size=4),
        st.lists(st.tuples(st.sampled_from("ts"), st.integers(0, 4)), max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_equivalence_relation_properties(self, a, moves_ab, moves_bc):
        def apply_moves(o, moves):
            for kind, arg in moves:
                if kind == "t":
                    try:
                        o = admissible_transpose(o, arg)
                    except NotAdmissibleError:
                        pass
                else:
                    o = cyclic_shift(o, arg + 1)
            return o

        b = apply_moves(a, moves_ab)
        c = apply_moves(b, moves_bc)
        ab = relate(a, b, {"transpose", "shift"})
        bc = relate(b, c, {"transpose", "shift"})
        ac = relate(a, c, {"transpose", "shift"})
        ba = relate(b, a, {"transpose", "shift"})
        assert ab is not None and bc is not None and ac is not None  # constructed related
        assert ba is not None  # symmetry
        assert replay(ab) == b and replay(ba) == a
        joined = make_certificate(a, ab.steps + bc.steps)  # transitivity
        assert joined.target == c
        assert ac.shift_count <= joined.shift_count  # relate is shift-minimal

    def test_exhaustive_single_shift_relation(self):
        for o in enumerate_orderings(4):
            for length in range(1, 6):
                cert = relate(o, cyclic_shift(o, length), {"shift"})
                assert cert is not None and cert.shift_count == 1

    def test_search_guard_above_n4(self):
        pairs = all_pairs(5)
        a = PivotOrdering(5, tuple(pairs))
        b = cyclic_shift(a, 1)
        with pytest.raises(ValueError, match="too large"):
            relate(a, b, {"shift"})

    def test_transpose_closure_partitions_all_orderings(self):
        remaining = {o.pairs for o in enumerate_orderings(4)}
        classes = []
        while remaining:
            seed_pairs = next(iter(remaining))
            stack = [seed_pairs]
            component = set()
            while stack:
                pairs = stack.pop()
                if pairs in component:
                    continue
                component.add(pairs)
                o = PivotOrdering(4, pairs)
                for pos in range(5):
                    if not set(pairs[pos]) & set(pairs[pos + 1]):
                        stack.append(admissible_transpose(o, pos).pairs)
            classes.append(component)
            remaining -= component
        assert sum(len(c) for c in classes) == 720
        # members of one class are exactly the ones the relation reaches
        for component in classes:
            rep_pairs = next(iter(component))
            rep = PivotOrdering(4, rep_pairs)
            for pairs in component:
                assert relate(rep, PivotOrdering(4, pairs), {"transpose"}) is not None


    def test_certificates_match_recorded_digest(self):
        digest = hashlib.sha256()
        move_sets = ({"transpose"}, {"transpose", "shift"}, {"transpose", "shift", "permute"})
        for o in enumerate_orderings(4):
            for b in (PAR_ANCHOR, ENTRY[13]):
                for moves in move_sets:
                    cert = relate(o, b, moves)
                    digest.update((format_certificate(cert) if cert else "None\n").encode())
        assert digest.hexdigest() == RELATE_DIGEST


class TestSearchOracle:
    """The search and the relabeled targets give the references' maps, item for item."""

    @staticmethod
    def assert_same_search(starts, moves):
        got = _weak_search_from(starts, moves)
        want = reference_weak_search_from(starts, moves)
        for got_map, want_map in zip(got, want):
            assert list(got_map.items()) == list(want_map.items())

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("moves", ((TRANSPOSE, SHIFT), (TRANSPOSE,), (SHIFT,)))
    def test_single_source_searches(self, n, moves):
        for o in enumerate_orderings(n):
            self.assert_same_search((o.pairs,), frozenset(moves))

    def test_multi_source_serial_search(self):
        self.assert_same_search(tuple(_relabeled_serial_index()), frozenset((TRANSPOSE, SHIFT)))

    def test_anchor_transposition_searches(self):
        for anchor in (PAR_ANCHOR, PAR_ANCHOR_MIRROR):
            self.assert_same_search((anchor.pairs,), frozenset((TRANSPOSE,)))

    @pytest.mark.parametrize("relabel", (True, False))
    def test_relabeled_targets(self, relabel):
        groups = [serial_perm_orderings()]
        groups += [(o,) for n in (2, 3, 4) for o in enumerate_orderings(n)]
        for orderings in groups:
            got = _relabeled_targets(orderings, relabel)
            assert list(got.items()) == list(reference_relabeled_targets(orderings, relabel).items())


class TestCertificates:
    def test_replay_catalog_chain(self):
        # entry 65's chain: relabel then shift by five, landing at entry 5
        chain = [e for e in catalog() if e.index == 65][0].chain
        assert replay(chain) == ENTRY[5]
        assert chain.steps[0] == Permute((3, 1, 2, 4))
        assert chain.steps[1] == Shift(5)

    def test_tampered_target_detected(self):
        cert = relate(ENTRY[17], ENTRY[2], {"transpose"})
        bad = Certificate(cert.source, cert.steps, ENTRY[17], cert.shift_count)
        with pytest.raises(BrokenCertificateError, match="broken certificate"):
            replay(bad)

    def test_invalid_transpose_step_detected(self):
        cert = Certificate(ENTRY[1], (Transpose(0),), ENTRY[1], 0)
        with pytest.raises(BrokenCertificateError):
            replay(cert)

    def test_permute_block_must_sit_at_an_end(self):
        steps = (Shift(1), Permute((2, 1, 3, 4)), Shift(1))
        with pytest.raises(BrokenCertificateError, match="block"):
            make_certificate(ENTRY[1], steps)

    def test_shift_count_mismatch_rejected(self):
        with pytest.raises(BrokenCertificateError):
            Certificate(ENTRY[1], (Shift(1),), cyclic_shift(ENTRY[1], 1), 0)


class TestTextFormats:
    def test_ordering_roundtrip(self):
        text = format_ordering(ENTRY[44])
        assert parse_ordering(text) == ENTRY[44]

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_ordering("1 2, 1 2, 1 3, 1 4, 2 4, 3 4")

    def test_parse_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_ordering("1 2, x y, 2 3, 1 4, 2 4, 3 4")

    def test_certificate_roundtrip(self):
        cert = relate(ENTRY[105], PAR_ANCHOR, {"transpose", "shift"})
        text = format_certificate(cert)
        parsed = parse_certificate(text)
        assert parsed.source == cert.source
        assert parsed.target == cert.target
        assert parsed.steps == cert.steps

    def test_certificate_text_layout(self):
        cert = make_certificate(ENTRY[105], (Shift(2),))
        lines = format_certificate(cert).splitlines()
        assert lines[0].startswith("source: 1 2, 3 4")
        assert lines[1] == "S 2"
        assert lines[-1].startswith("target: 1 3, 2 4")

    def test_every_catalog_chain_survives_its_text(self):
        chains = [e.chain for e in catalog()]
        assert len(chains) == 120
        for chain in chains:
            assert parse_certificate(format_certificate(chain)) == chain
        tags = {line.split()[0] for c in chains for line in format_certificate(c).splitlines()}
        assert tags == {"source:", "target:", "T", "S", "P"}

    @pytest.mark.parametrize("edit, error, message", [
        (lambda lines: lines[1:], ValueError, "needs 'source:' and 'target:' lines"),
        (lambda lines: lines[:1] + ["X 1"] + lines[1:], ValueError,
         "unknown certificate step 'X 1'"),
        # a step out of range fails its replay, which names it
        (lambda lines: lines[:1] + ["T 9"] + lines[2:], BrokenCertificateError,
         r"invalid step Transpose\(pos=9\): transpose position 9 out of range"),
        (lambda lines: lines[:1] + ["S 99"] + lines[2:], BrokenCertificateError,
         r"invalid step Shift\(length=99\): shift length 99 out of range"),
        (lambda lines: lines[:1] + ["S -1"] + lines[2:], BrokenCertificateError,
         r"invalid step Shift\(length=-1\): shift length -1 out of range"),
        (lambda lines: lines[:1] + ["T -1"] + lines[2:], BrokenCertificateError,
         r"invalid step Transpose\(pos=-1\): transpose position -1 out of range"),
    ], ids=["no source", "unknown tag", "T 9", "S 99", "S -1", "T -1"])
    def test_parse_certificate_rejects_malformed_text(self, edit, error, message):
        lines = format_certificate(make_certificate(ENTRY[105], (Shift(2),))).splitlines()
        with pytest.raises(error, match=message):
            parse_certificate("\n".join(edit(lines)))

    def test_parse_certificate_checks_target(self):
        cert = make_certificate(ENTRY[105], (Shift(2),))
        lines = format_certificate(cert).splitlines()
        lines[-1] = f"target: {format_ordering(ENTRY[105])}"  # chain does not land here
        with pytest.raises(BrokenCertificateError, match="broken certificate"):
            parse_certificate("\n".join(lines))
