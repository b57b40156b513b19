import hashlib
from fractions import Fraction

import pytest

from cyclic_jacobi.classification import (
    GeneralizedSerial,
    PAR_ANCHOR,
    PAR_ANCHOR_MIRROR,
    Parallel,
    SerialPerm,
    anchor_variants,
    c0_orderings,
    catalog,
    classify,
    compute_eta,
    label_text,
    member_column_wise,
    member_row_wise,
    member_serial_perm,
    parallel_orderings,
    serial_perm_orderings,
    verify_catalog,
)
from cyclic_jacobi.classification import _relabeled_serial_index
from cyclic_jacobi.orderings import (
    SHIFT,
    TRANSPOSE,
    _weak_search,
    cyclic_shift,
    enumerate_orderings,
    make_ordering,
    replay,
    reverse,
)

ENTRY = {e.index: e for e in catalog()}

# sha256 of the (dist, parent) maps of _weak_search, in insertion order, for
# all 720 orderings under each move set, followed by the relabeling index;
# recorded with the search that built and validated an ordering per node.
SEARCH_DIGEST = "082d414515f49cfe2121abe5ed8660f9bf72e27fb46e028f79c2e19eb74a9e0c"


class TestEta:
    def test_base_case(self):
        assert compute_eta(2) == Fraction(0)

    def test_n3_hand_value(self):
        # direct evaluation of the recurrence with eta_2 = 0:
        # max(1 - 1/4, 1 - (1/2)(1 - 0)/(1/2 + 0)) = max(3/4, 0)
        assert compute_eta(3) == Fraction(3, 4)

    def test_n4_value(self):
        assert compute_eta(4) == Fraction(27, 28)

    def test_monotone_and_below_one(self):
        values = [compute_eta(n) for n in range(2, 11)]
        assert all(v < 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            compute_eta(1)


class TestMembership:
    def test_column_template(self):
        assert member_column_wise(ENTRY[1].ordering)
        assert not member_column_wise(ENTRY[13].ordering)

    def test_column_count_in_c0(self):
        count = sum(member_column_wise(o) for o in c0_orderings())
        assert count == 12

    def test_row_template_instance(self):
        o = make_ordering([(3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4)])
        assert member_row_wise(o)

    def test_row_never_starts_at_12(self):
        assert all(not member_row_wise(o) for o in c0_orderings())
        assert not member_row_wise(ENTRY[1].ordering)

    def test_serial_perm_variants(self):
        assert member_serial_perm(ENTRY[16].ordering) == "reverse-row"
        assert member_serial_perm(ENTRY[7].ordering) == "column"
        assert member_serial_perm(PAR_ANCHOR) is None

    def test_serial_count_in_c0(self):
        count = sum(member_serial_perm(o) is not None for o in c0_orderings())
        assert count == 16

    def test_reverse_maps_column_to_reverse_column(self):
        for o in serial_perm_orderings():
            if member_column_wise(o):
                assert member_serial_perm(reverse(o)) == "reverse-column"


class TestClassify:
    def test_serial_entry(self):
        record = classify(ENTRY[7].ordering)
        assert record.label == SerialPerm("column")
        assert record.bound.tau == 1 and record.bound.t0 == 0
        assert record.bound.gamma_sq == Fraction(27, 28)

    def test_generalized_serial_entry_21(self):
        # the recorded chain uses one shift; a shift-free relabeling chain
        # exists, and the record keeps the minimal count
        record = classify(ENTRY[21].ordering)
        assert isinstance(record.label, GeneralizedSerial)
        assert record.label.d == 0
        assert ENTRY[21].chain.shift_count == 1
        assert record.bound.tau == record.label.d + 1

    def test_no_shift_entries(self):
        for idx in (17, 18, 19, 20, 82, 90):
            record = classify(ENTRY[idx].ordering)
            assert record.label == GeneralizedSerial(0)

    def test_parallel_entries(self):
        rec105 = classify(ENTRY[105].ordering)
        assert rec105.label == Parallel(PAR_ANCHOR, 2)
        rec106 = classify(ENTRY[106].ordering)
        assert rec106.label == Parallel(PAR_ANCHOR, 1)
        rec117 = classify(ENTRY[117].ordering)
        assert rec117.label == Parallel(PAR_ANCHOR_MIRROR, 2)
        assert rec105.bound.tau == 3 and rec105.bound.t0 == 1

    def test_certificates_replay_and_land_in_the_claimed_class(self):
        for idx in (1, 21, 55, 77, 95, 104, 105, 117):
            record = classify(ENTRY[idx].ordering)
            endpoint = replay(record.certificate)
            if isinstance(record.label, Parallel):
                assert endpoint in (PAR_ANCHOR, PAR_ANCHOR_MIRROR)
            elif isinstance(record.label, GeneralizedSerial):
                assert member_serial_perm(endpoint) is not None
            else:
                assert endpoint == record.ordering

    def test_totality_and_census_over_all_720(self):
        counts = {"serial": 0, "generalized": 0, "parallel": 0}
        for o in enumerate_orderings(4):
            record = classify(o)  # raises if any ordering matched no class
            if isinstance(record.label, SerialPerm):
                counts["serial"] += 1
            elif isinstance(record.label, GeneralizedSerial):
                counts["generalized"] += 1
                assert record.label.d <= 2
            else:
                counts["parallel"] += 1
        assert counts == {"serial": 48, "generalized": 576, "parallel": 96}

    def test_every_ordering_is_one_shift_from_a_first_pivot_12_start(self):
        c0 = {o.pairs for o in c0_orderings()}
        for o in enumerate_orderings(4):
            shifts = [
                length for length in range(6)
                if cyclic_shift(o, length).pairs in c0
            ]
            assert len(shifts) == 1  # (1,2) occurs once per cycle

    def test_rejects_other_dimensions(self):
        o3 = make_ordering([(1, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            classify(o3)


class TestSearchTables:
    def test_search_maps_and_relabel_index_match_recorded_digest(self):
        digest = hashlib.sha256()
        for moves in ((TRANSPOSE, SHIFT), (TRANSPOSE,), (SHIFT,)):
            for o in enumerate_orderings(4):
                dist, parent = _weak_search(o, frozenset(moves))
                digest.update(repr(list(dist.items())).encode())
                digest.update(repr(list(parent.items())).encode())
        digest.update(repr(list(_relabeled_serial_index().items())).encode())
        assert digest.hexdigest() == SEARCH_DIGEST


class TestHelpers:
    def test_anchor_variants_count(self):
        assert len(anchor_variants(PAR_ANCHOR)) == 8
        assert len(anchor_variants(PAR_ANCHOR_MIRROR)) == 8

    def test_parallel_orderings_count(self):
        assert len(parallel_orderings()) == 96

    def test_serial_orderings_count(self):
        fams = [member_serial_perm(o) for o in serial_perm_orderings()]
        assert len(fams) == 48
        assert all(f is not None for f in fams)

    def test_label_text(self):
        assert label_text(SerialPerm("column")) == "SerialPerm(column)"
        assert label_text(GeneralizedSerial(1)) == "GeneralizedSerial(d=1)"
        assert label_text(Parallel(PAR_ANCHOR_MIRROR, 2)) == "Parallel(par2, shift=2)"


class TestCatalog:
    def test_covers_c0_exactly(self):
        from_catalog = {o.pairs for o in c0_orderings()}
        from_enumeration = {
            o.pairs for o in enumerate_orderings(4) if o.pairs[0] == (1, 2)
        }
        assert from_catalog == from_enumeration
        assert len(from_catalog) == 120

    def test_entry_1_pairs(self):
        assert ENTRY[1].ordering == make_ordering(
            [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        )

    def test_entry_104_chain_shape(self):
        from cyclic_jacobi.orderings import Permute, Shift, Transpose

        steps = ENTRY[104].chain.steps
        assert isinstance(steps[0], Permute) and steps[0].images == (1, 3, 4, 2)
        assert steps[1] == Shift(3)
        assert steps[2] == Transpose(2)
        assert member_row_wise(reverse(ENTRY[104].chain.target))

    def test_entry_120_chain_shape(self):
        from cyclic_jacobi.orderings import Shift, Transpose

        steps = ENTRY[120].chain.steps
        assert steps == (Shift(2), Transpose(0), Transpose(2))
        assert ENTRY[120].chain.target == PAR_ANCHOR_MIRROR

    def test_verify_catalog_clean(self):
        report = verify_catalog()
        assert report.ok, report.failures
        assert report.class_counts == {
            "column": 12,
            "row": 0,
            "reverse-column": 0,
            "reverse-row": 4,
            "generalized-serial": 88,
            "parallel": 16,
        }
