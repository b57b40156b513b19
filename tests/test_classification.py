import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
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
    member_serial_perm,
    parallel_orderings,
    serial_perm_orderings,
    verify_catalog,
)
import cyclic_jacobi.classification as classification
import cyclic_jacobi.orderings as orderingsmod
from cyclic_jacobi.classification import (
    ClassificationError,
    ClassificationRecord,
    _WEAK_MOVES,
    _relabeled_serial_index,
)
from cyclic_jacobi.core import SymMatrix
from cyclic_jacobi.jjacobi import (
    STANDARD_SIGNS,
    MonitorInapplicableError,
    monitor_proof_bounds,
    run_j_jacobi,
)
from cyclic_jacobi.orderings import (
    SHIFT,
    TRANSPOSE,
    PivotOrdering,
    _weak_search,
    _weak_search_from,
    cyclic_shift,
    enumerate_orderings,
    make_ordering,
    permute,
    replay,
    reverse,
)
from oracles import forward_label, signature_family

ENTRY = {e.index: e for e in catalog()}

# sha256 of the (dist, parent) maps of _weak_search, in insertion order, for
# all 720 orderings under each move set, followed by the relabeling index;
# recorded with the search that built and validated an ordering per node.
SEARCH_DIGEST = "082d414515f49cfe2121abe5ed8660f9bf72e27fb46e028f79c2e19eb74a9e0c"

# sha256 of the (dist, parent) maps, in insertion order, of the one
# multi-source search from every relabeled serial template that
# _class_table reads; recorded while every shift was expanded from every
# member of a rotation class.
SERIAL_SEARCH_DIGEST = "7e08c7b8822c9b44e4bae8edf6ae7a11a85dd45492a3ef36ce13ce9d761094ea"


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
        assert member_serial_perm(ENTRY[1].ordering) == "column"
        assert member_serial_perm(ENTRY[13].ordering) != "column"

    def test_column_count_in_c0(self):
        count = sum(member_serial_perm(o) == "column" for o in c0_orderings())
        assert count == 12

    def test_row_template_instance(self):
        o = make_ordering([(3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4)])
        assert member_serial_perm(o) == "row"

    def test_row_never_starts_at_12(self):
        assert all(member_serial_perm(o) != "row" for o in c0_orderings())
        assert member_serial_perm(ENTRY[1].ordering) != "row"

    def test_serial_perm_variants(self):
        assert member_serial_perm(ENTRY[16].ordering) == "reverse-row"
        assert member_serial_perm(ENTRY[7].ordering) == "column"
        assert member_serial_perm(PAR_ANCHOR) is None

    def test_serial_count_in_c0(self):
        count = sum(member_serial_perm(o) is not None for o in c0_orderings())
        assert count == 16

    def test_reverse_maps_column_to_reverse_column(self):
        for o in serial_perm_orderings():
            if member_serial_perm(o) == "column":
                assert member_serial_perm(reverse(o)) == "reverse-column"

    def test_templates_match_the_pair_signatures_over_all_720(self):
        families = [member_serial_perm(o) for o in enumerate_orderings(4)]
        assert families == [signature_family(o) for o in enumerate_orderings(4)]
        for family in ("column", "row", "reverse-column", "reverse-row"):
            assert families.count(family) == 12
        assert families.count(None) == 720 - 48

    def test_rejects_other_dimensions(self):
        o5 = make_ordering([(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
        with pytest.raises(ValueError):
            member_serial_perm(o5)


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

    def test_bounds_survive_relabeling_and_reversal(self):
        # the label kind may change (a serial template's relabeling is
        # generalized serial), so only the bound is compared
        relabelings = list(itertools.permutations(range(1, 5)))
        for o in enumerate_orderings(4):
            bound = classify(o).bound
            assert classify(reverse(o)).bound == bound, o
            for q in relabelings:
                assert classify(permute(o, q)).bound == bound, (o, q)

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


class TestParallelClassAgreement:
    """``classify``, the parallel enumerations and the J-Jacobi monitor agree on all 720."""

    # the monitor's pattern, restated independently: the trigonometric group,
    # then the two hyperbolic groups in the anchor's order
    GROUPS = {
        PAR_ANCHOR: ({(1, 2), (3, 4)}, {(1, 3), (2, 4)}, {(1, 4), (2, 3)}),
        PAR_ANCHOR_MIRROR: ({(1, 2), (3, 4)}, {(1, 4), (2, 3)}, {(1, 3), (2, 4)}),
    }
    VARIANT = {PAR_ANCHOR: "13-24 first", PAR_ANCHOR_MIRROR: "14-23 first"}

    def test_parallel_label_iff_a_shift_lands_in_the_anchor_variants(self):
        variants = {a: set(anchor_variants(a)) for a in (PAR_ANCHOR, PAR_ANCHOR_MIRROR)}
        for o in enumerate_orderings(4):
            label = classify(o).label
            for anchor, members in variants.items():
                for length in range(6):
                    assert (label == Parallel(anchor, length)) == (
                        cyclic_shift(o, length) in members
                    ), (o, anchor, length)

    def test_parallel_orderings_are_the_parallel_labels(self):
        labelled = {
            o for o in enumerate_orderings(4) if isinstance(classify(o).label, Parallel)
        }
        assert set(parallel_orderings()) == labelled
        assert len(labelled) == 96
        # derived apart from the table: the six cyclic shifts of the 16 variants
        variants = anchor_variants(PAR_ANCHOR) + anchor_variants(PAR_ANCHOR_MIRROR)
        shifts = {cyclic_shift(v, length) for v in variants for length in range(6)}
        assert parallel_orderings() == tuple(sorted(shifts, key=lambda o: o.pairs))

    def test_monitor_window_follows_the_label(self):
        diagonal = SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))  # no sweep runs
        for o in enumerate_orderings(4):
            report = run_j_jacobi(diagonal, STANDARD_SIGNS, o).report
            label = classify(o).label
            if not isinstance(label, Parallel):
                with pytest.raises(MonitorInapplicableError, match="no parallel window"):
                    monitor_proof_bounds(report, 0.05)
                continue
            verdict = monitor_proof_bounds(report, 0.05)
            assert verdict.phase == (label.shift_length + 4) % 6, o
            assert verdict.variant == self.VARIANT[label.anchor], o
            doubled = o.pairs * 2
            window = [set(doubled[verdict.phase + k:verdict.phase + k + 2]) for k in (0, 2, 4)]
            assert tuple(window) == self.GROUPS[label.anchor], o


class TestForwardOracle:
    """The table-driven ``classify`` against one forward search per ordering."""

    def test_labels_and_bounds_match_the_forward_search_on_all_720(self):
        for o in enumerate_orderings(4):
            record = classify(o)
            assert (record.label, record.bound) == forward_label(o), o

    @pytest.mark.parametrize("anchor", [PAR_ANCHOR, PAR_ANCHOR_MIRROR], ids=["par", "par2"])
    def test_anchor_variants_are_the_transposition_search(self, anchor):
        dist, _ = _weak_search(anchor, frozenset((TRANSPOSE,)))
        expected = tuple(PivotOrdering(4, pairs) for pairs in sorted(dist))
        assert anchor_variants(anchor) == expected

    def test_anchor_variants_rejects_a_non_anchor(self):
        with pytest.raises(ValueError, match="not a parallel anchor"):
            anchor_variants(ENTRY[1].ordering)


class TestCertificateOnRead:
    """``classify`` gives label and bound from the table; the chain is searched when read."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Count forward searches."""
        calls = []
        real = orderingsmod._weak_search

        def counting(start, moves):
            calls.append(start)
            return real(start, moves)

        monkeypatch.setattr(orderingsmod, "_weak_search", counting)
        monkeypatch.setattr(classification, "_weak_search", counting)
        return calls

    def test_classify_runs_no_forward_search(self, searches):
        records = [classify(o) for o in enumerate_orderings(4)]
        assert searches == []
        searched = [r.ordering for r in records if not isinstance(r.label, SerialPerm)]
        certificates = [r.certificate for r in records]
        assert searches == searched and len(searched) == 672
        assert all(c.source == r.ordering for c, r in zip(certificates, records))

    def test_reading_twice_builds_once(self, searches):
        record = classify(ENTRY[55].ordering)
        cert = record.certificate
        assert record.certificate is cert
        assert searches == [ENTRY[55].ordering]
        # classify keeps no records: a second call builds an equal one, whose chain is its own
        again = classify(ENTRY[55].ordering)
        assert again == record and again.certificate == cert and again.certificate is not cert

    def test_equality_and_hash_do_not_see_the_certificate(self, searches):
        record = classify(ENTRY[105].ordering)
        twin = ClassificationRecord(record.ordering, record.label, record.bound)
        before = hash(record)
        assert record == twin and hash(twin) == before
        assert replay(record.certificate) == PAR_ANCHOR
        assert record == twin and hash(record) == before
        assert [f.name for f in dataclasses.fields(record)] == ["ordering", "label", "bound"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.label = GeneralizedSerial(1)
        assert record == twin
        # a replaced record reads its own certificate, not the one cached on the original
        mislabeled = dataclasses.replace(record, label=GeneralizedSerial(1))
        assert mislabeled != record and mislabeled.ordering == record.ordering
        with pytest.raises(ClassificationError, match="does not reach a serial template"):
            mislabeled.certificate
        again = dataclasses.replace(record)
        assert again == record and again.certificate == record.certificate
        assert again.certificate is not record.certificate

    @pytest.mark.parametrize("index, message", [
        (21, "does not reach a serial template"),
        (105, "parallel chain .* does not match Parallel"),
    ])
    def test_a_chain_that_misses_its_class_raises_on_read(self, searches, monkeypatch,
                                                          index, message):
        real = classification._nearest

        def nearest_without_last_step(start, dist, parent, targets):
            d, value, steps = real(start, dist, parent, targets)
            return d, value, steps[:-1]

        monkeypatch.setattr(classification, "_nearest", nearest_without_last_step)
        record = classify(ENTRY[index].ordering)  # the label needs no chain
        with pytest.raises(ClassificationError, match=message):
            record.certificate

    @pytest.mark.parametrize("index", [21, 105])
    def test_a_table_that_drops_an_ordering_raises(self, searches, monkeypatch, index):
        o = ENTRY[index].ordering
        table = {p: entry for p, entry in classification._class_table().items() if p != o.pairs}
        monkeypatch.setattr(classification, "_class_table", lambda: table)
        with pytest.raises(ClassificationError, match="matched no class"):
            classify(o)


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

    def test_multi_source_serial_search_matches_recorded_digest(self):
        dist, parent = _weak_search_from(_relabeled_serial_index().keys(), _WEAK_MOVES)
        digest = hashlib.sha256()
        digest.update(repr(list(dist.items())).encode())
        digest.update(repr(list(parent.items())).encode())
        assert digest.hexdigest() == SERIAL_SEARCH_DIGEST


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


CATALOG_COUNTS = {
    "column": 12,
    "row": 0,
    "reverse-column": 0,
    "reverse-row": 4,
    "generalized-serial": 88,
    "parallel": 16,
}


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
        assert member_serial_perm(ENTRY[104].chain.target) == "reverse-row"

    def test_entry_120_chain_shape(self):
        from cyclic_jacobi.orderings import Shift, Transpose

        steps = ENTRY[120].chain.steps
        assert steps == (Shift(2), Transpose(0), Transpose(2))
        assert ENTRY[120].chain.target == PAR_ANCHOR_MIRROR

    @pytest.mark.parametrize("index", [17, 18, 19, 20, 82, 90])
    def test_a_shift_beyond_a_shift_free_chain_is_reported(self, monkeypatch, index):
        # these are the entries 17-104 whose recorded chain has no shift, so
        # the chain-length check alone guards their minimal d = 0
        entry = ENTRY[index]
        assert entry.chain.shift_count == 0
        real = classification.classify

        def classify_with_one_shift(o):
            record = real(o)
            if o == entry.ordering:
                return dataclasses.replace(record, label=GeneralizedSerial(1))
            return record

        monkeypatch.setattr(classification, "classify", classify_with_one_shift)
        report = verify_catalog()
        assert f"entry {index}: minimal d exceeds the recorded chain's" in report.failures

    @pytest.mark.parametrize("index, label, failures, counts", [
        (1, GeneralizedSerial(0), [
            "entry 1: expected a serial label",
            "expected 12 column orderings, found 11",
            "expected 88 generalized-serial orderings, found 89",
        ], {"column": 11, "generalized-serial": 89}),
        (50, Parallel(PAR_ANCHOR, 0), [
            "entry 50: expected a generalized-serial label",
            "expected 88 generalized-serial orderings, found 87",
            "expected 16 parallel orderings, found 17",
        ], {"generalized-serial": 87, "parallel": 17}),
        (105, SerialPerm("row"), [
            "entry 105: expected a parallel label",
            "expected 0 row orderings, found 1",
            "expected 16 parallel orderings, found 15",
        ], {"row": 1, "parallel": 15}),
    ], ids=["template", "generalized serial", "parallel"])
    def test_a_wrong_class_is_named_and_counted(self, monkeypatch, index, label, failures, counts):
        # the entry's expected class comes from its own chain and terminal, not its index
        entry = ENTRY[index]
        real = classification.classify

        def classify_wrongly(o):
            record = real(o)
            return dataclasses.replace(record, label=label) if o == entry.ordering else record

        monkeypatch.setattr(classification, "classify", classify_wrongly)
        report = verify_catalog()
        assert report.failures == failures
        assert report.class_counts == {**CATALOG_COUNTS, **counts}

    def test_verify_catalog_clean(self):
        report = verify_catalog()
        assert report.ok, report.failures
        assert report.class_counts == CATALOG_COUNTS
