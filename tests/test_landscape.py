"""Aggregation, marker totals, reference selection, and concordance rules."""

import csv
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ihcmine.codec import decode, encode
from ihcmine.domain import RateStat, round_percent
from ihcmine.errors import ReferenceFileError, ValidationError
from ihcmine.landscape import (
    ConcordanceCategory,
    MarkerTumourAggregate,
    ReferenceEntry,
    ReferenceKind,
    ReferenceTable,
    aggregate,
    compare,
    load_reference_csv,
    marker_totals,
    select_reference_tumour,
    summary_report,
    top_tumours,
)
from ihcmine.normalize import NormalizedRecord

from test_domain import checked_rate

DATA = Path(__file__).parent / "data"
REFERENCE_CSV = Path(__file__).parent.parent / "data" / "reference.csv"


def norm_record(pmid, marker, tumour, positives, total, qualifier=None, site="site"):
    return NormalizedRecord(
        pmid=pmid,
        tumour_type=tumour,
        tumour_type_cui=f"CT-{tumour}".replace(" ", ""),
        tumour_type_name=tumour,
        tumour_site=site,
        tumour_site_cui=f"CS-{site}",
        tumour_site_name=site,
        marker=marker if qualifier is None else f"{marker} ({qualifier})",
        base_marker=marker,
        marker_cui=f"CM-{marker}",
        marker_name=marker,
        qualifier=qualifier,
        positives=positives,
        total=total,
    )


class TestAggregate:
    def test_sums_across_abstracts(self):
        records = [
            norm_record("1", "ER", "melanoma", 5, 10),
            norm_record("2", "ER", "melanoma", 3, 5),
        ]
        (agg,) = aggregate(records)
        assert (agg.positives, agg.total, agg.n_abstracts) == (8, 15, 2)
        assert agg.rate == RateStat(8, 15)

    def test_split_qualifiers(self):
        records = [
            norm_record("1", "S100A4", "papillary renal cell carcinoma", 13, 22, qualifier="epithelial"),
            norm_record("1", "S100A4", "papillary renal cell carcinoma", 16, 22, qualifier="stromal"),
        ]
        split = aggregate(records, split_qualifiers=True)
        assert len(split) == 2
        epithelial = next(a for a in split if a.qualifier == "epithelial")
        assert (epithelial.positives, epithelial.total) == (13, 22)
        collapsed = aggregate(records)
        assert len(collapsed) == 1
        assert (collapsed[0].positives, collapsed[0].total) == (29, 44)

    def test_empty_input(self):
        assert aggregate([]) == []

    def test_distinct_pmids_counted_once(self):
        records = [
            norm_record("1", "ER", "melanoma", 5, 10),
            norm_record("1", "ER", "melanoma", 2, 4),
        ]
        (agg,) = aggregate(records)
        assert agg.n_abstracts == 1

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 60)), min_size=1, max_size=30), st.randoms())
    def test_order_independent_and_sum_preserving(self, counts, rng):
        records = [
            norm_record(str(i), "ER" if i % 2 else "PR", "melanoma" if i % 3 else "naevus", min(p, t), t)
            for i, (p, t) in enumerate(counts)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        a, b = aggregate(records), aggregate(shuffled)
        assert a == b
        assert sum(x.positives for x in a) == sum(min(p, t) for p, t in counts)
        assert sum(x.total for x in a) == sum(t for _, t in counts)

    def test_serialization_round_trip(self):
        (agg,) = aggregate([norm_record("1", "ER", "melanoma", 5, 10)])
        assert decode(MarkerTumourAggregate, encode(agg)) == agg


class TestMarkerTotals:
    def test_reported_rate_strings(self):
        records = [
            norm_record("1", "VIMENTIN", "t1", 21104, 31263),
            norm_record("2", "DESMIN", "t2", 8082, 31601),
        ]
        totals = marker_totals(aggregate(records), records=records)
        by_name = {t.marker_name: t for t in totals}
        assert round_percent(by_name["VIMENTIN"].rate, 1) == "67.5"
        assert round_percent(by_name["DESMIN"].rate, 1) == "25.6"

    def test_sorted_by_abstract_count_desc(self):
        records = [norm_record(str(i), "ER", "melanoma", 1, 2) for i in range(3)]
        records += [norm_record("10", "PR", "melanoma", 1, 2)]
        totals = marker_totals(aggregate(records), records=records)
        assert [t.marker_name for t in totals] == ["ER", "PR"]
        assert totals[0].n_abstracts == 3

    def test_distinct_abstracts_need_records(self):
        records = [
            norm_record("1", "ER", "melanoma", 1, 2),
            norm_record("1", "ER", "naevus", 1, 2),
        ]
        aggs = aggregate(records)
        assert marker_totals(aggs, records=records)[0].n_abstracts == 1

    def test_single_marker(self):
        records = [norm_record("1", "ER", "melanoma", 1, 2)]
        assert len(marker_totals(aggregate(records), records=records)) == 1


class TestTopTumours:
    def build(self):
        sizes = {"a": 70, "b": 60, "c": 50, "d": 40, "e": 30, "f": 20, "g": 10}
        records = [
            norm_record(str(i), "ER", name, 1, size) for i, (name, size) in enumerate(sizes.items())
        ]
        return aggregate(records)

    def test_top_five_by_cohort(self):
        top = top_tumours("CM-ER", self.build(), k=5)
        assert [a.tumour_name for a in top] == ["a", "b", "c", "d", "e"]

    def test_tie_broken_alphabetically(self):
        records = [
            norm_record("1", "ER", "zeta", 1, 30),
            norm_record("2", "ER", "alpha", 1, 30),
        ]
        top = top_tumours("CM-ER", aggregate(records), k=2)
        assert [a.tumour_name for a in top] == ["alpha", "zeta"]

    def test_k_larger_than_available(self):
        assert len(top_tumours("CM-ER", self.build(), k=50)) == 7

    def test_absent_marker(self):
        assert top_tumours("CM-XX", self.build(), k=5) == []


class TestSelectReferenceTumour:
    def references(self):
        return ReferenceTable(
            [
                ReferenceEntry("ER", "alpha", ReferenceKind.POSITIVE),
                ReferenceEntry("ER", "beta", ReferenceKind.RANGE, 10, 20),
                ReferenceEntry("ER", "gamma", ReferenceKind.NEGATIVE),
            ]
        )

    def build(self, names_and_sizes):
        records = [
            norm_record(str(i), "ER", name, 1, size) for i, (name, size) in enumerate(names_and_sizes)
        ]
        return top_tumours("CM-ER", aggregate(records), k=5)

    def test_quantitative_reference_preferred(self):
        top = self.build([("alpha", 100), ("beta", 50)])
        chosen, entry = select_reference_tumour(top, self.references())
        assert chosen.tumour_name == "beta"
        assert entry.kind is ReferenceKind.RANGE

    def test_largest_quantitative_wins(self):
        top = self.build([("beta", 100)])
        chosen, entry = select_reference_tumour(top, self.references())
        assert chosen.tumour_name == "beta"

    def test_qualitative_fallback(self):
        top = self.build([("unknown", 100), ("alpha", 50)])
        chosen, entry = select_reference_tumour(top, self.references())
        assert chosen.tumour_name == "alpha"
        assert entry.kind is ReferenceKind.POSITIVE

    def test_no_data_fallback_takes_largest(self):
        top = self.build([("unknown a", 100), ("unknown b", 50)])
        chosen, entry = select_reference_tumour(top, self.references())
        assert chosen.tumour_name == "unknown a"
        assert entry.kind is ReferenceKind.NO_DATA


class TestCompare:
    def test_within_range(self):
        result = compare(checked_rate(3410, 4315), ReferenceEntry("TTF1", "lung", ReferenceKind.RANGE, 65, 93))
        assert result.category is ConcordanceCategory.WITHIN_RANGE

    def test_near_miss(self):
        result = compare(checked_rate(923, 947), ReferenceEntry("STAT6", "sft", ReferenceKind.RANGE, 98, 100))
        assert result.category is ConcordanceCategory.OUT_OF_RANGE_NEAR

    def test_notable_miss(self):
        result = compare(checked_rate(435, 755), ReferenceEntry("BerEP4", "bcc", ReferenceKind.RANGE, 80, 100))
        assert result.category is ConcordanceCategory.OUT_OF_RANGE_NOTABLE

    def test_negative_concordant(self):
        result = compare(checked_rate(258, 7658), ReferenceEntry("DESMIN", "gist", ReferenceKind.NEGATIVE))
        assert result.category is ConcordanceCategory.QUALITATIVE_CONCORDANT

    def test_negative_discordant(self):
        result = compare(checked_rate(30, 100), ReferenceEntry("X", "t", ReferenceKind.NEGATIVE))
        assert result.category is ConcordanceCategory.QUALITATIVE_DISCORDANT

    def test_positive_concordant(self):
        result = compare(checked_rate(69, 100), ReferenceEntry("X", "t", ReferenceKind.POSITIVE))
        assert result.category is ConcordanceCategory.QUALITATIVE_CONCORDANT

    def test_positive_indeterminate_band(self):
        result = compare(checked_rate(30, 100), ReferenceEntry("X", "t", ReferenceKind.POSITIVE))
        assert result.category is ConcordanceCategory.QUALITATIVE_INDETERMINATE

    def test_positive_discordant(self):
        result = compare(checked_rate(10, 100), ReferenceEntry("X", "t", ReferenceKind.POSITIVE))
        assert result.category is ConcordanceCategory.QUALITATIVE_DISCORDANT

    def test_point_reference(self):
        result = compare(checked_rate(333, 358), ReferenceEntry("WT1", "t", ReferenceKind.POINT, 93, 93))
        assert result.category is ConcordanceCategory.WITHIN_RANGE

    def test_no_data(self):
        result = compare(checked_rate(1, 2), ReferenceEntry("X", "t", ReferenceKind.NO_DATA))
        assert result.category is ConcordanceCategory.NO_REFERENCE

    def test_rounding_happens_before_comparison(self):
        # 49.62% rounds half-up to 50, the bottom of the range
        result = compare(checked_rate(3225, 6499), ReferenceEntry("PR", "t", ReferenceKind.RANGE, 50, 70))
        assert result.category is ConcordanceCategory.WITHIN_RANGE

    def test_missing_bounds_rejected(self):
        with pytest.raises(ReferenceFileError):
            ReferenceEntry("X", "t", ReferenceKind.RANGE, 10, None)

    def test_bounds_on_qualitative_rejected(self):
        with pytest.raises(ReferenceFileError):
            ReferenceEntry("X", "t", ReferenceKind.POSITIVE, 10, 20)

    def test_undefined_observed_rejected(self):
        with pytest.raises(ValidationError):
            compare(RateStat(0, 0), ReferenceEntry("X", "t", ReferenceKind.POSITIVE))

    @given(st.integers(0, 100), st.integers(1, 300), st.integers(1, 20))
    def test_within_range_invariant_under_cohort_scaling(self, positives, total, factor):
        positives = min(positives, total)
        entry = ReferenceEntry("X", "t", ReferenceKind.RANGE, 20, 80)
        small = compare(checked_rate(positives, total), entry)
        large = compare(checked_rate(positives * factor, total * factor), entry)
        assert small.category is large.category

    @given(st.integers(0, 100), st.sampled_from(list(ReferenceKind)))
    def test_category_independent_of_marker_identity(self, percent, kind):
        bounds = (30, 60) if kind in (ReferenceKind.RANGE,) else (percent, percent) if kind is ReferenceKind.POINT else (None, None)
        a = compare(checked_rate(percent, 100), ReferenceEntry("AAA", "t", kind, *bounds))
        b = compare(checked_rate(percent, 100), ReferenceEntry("ZZZ", "other tumour", kind, *bounds))
        assert a.category is b.category


def load_concordance_fixture():
    rows = []
    with (DATA / "concordance_observed.csv").open() as handle:
        for row in csv.DictReader(handle):
            rows.append((row["marker"], row["tumour"], int(row["positives"]), int(row["total"])))
    return rows


class TestSummaryReport:
    def test_full_fixture_categories(self):
        references = load_reference_csv(REFERENCE_CSV)
        results = [
            compare(checked_rate(p, t), references.lookup(marker, tumour))
            for marker, tumour, p, t in load_concordance_fixture()
        ]
        report = summary_report(results)
        assert report["histogram"]["NoReference"] == 10
        assert report["histogram"]["OutOfRangeNotable"] == 1
        assert report["histogram"]["QualitativeDiscordant"] == 0
        assert report["histogram"]["QualitativeIndeterminate"] == 0
        assert sum(report["histogram"].values()) == 50
        by_marker = {row["marker"]: row for row in report["rows"]}
        assert by_marker["BerEP4"]["category"] == "OutOfRangeNotable"
        assert by_marker["TTF1"]["category"] == "WithinRange"

    def test_empty_input_all_zero(self):
        report = summary_report([])
        assert all(v == 0 for v in report["histogram"].values())
        assert report["rows"] == []
