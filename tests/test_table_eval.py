"""Row alignment, cell matching with percent tolerance, verdicts, histograms."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from ihcmine.domain import MISSING, CellValue, PositivityCount
from ihcmine.errors import ValidationError
from ihcmine.table_eval import (
    Verdict,
    align_rows,
    cell_match,
    evaluate_set,
    row_similarity,
    score,
)
from ihcmine.tables import ProfileRow, ProfileTable, parse_markdown_table

from test_tables import random_table

FIXTURES = Path(__file__).parent / "data" / "renal_s100a4"


@pytest.fixture(scope="module")
def gold():
    return parse_markdown_table((FIXTURES / "gold.md").read_text(), pmid="21691200")


@pytest.fixture(scope="module")
def abstract_text():
    return (FIXTURES / "abstract.txt").read_text()


def load_pred(name):
    return parse_markdown_table((FIXTURES / name).read_text(), pmid="21691200")


def simple_table(pmid, marker, rows):
    return ProfileTable(
        pmid=pmid,
        header=["Tumor type", "Tumor site", marker],
        rows=[
            ProfileRow(tumour_type=t, tumour_site=s, cells={marker: c})
            for t, s, c in rows
        ],
        violations=[],
    )


class TestAlignRows:
    def test_identical_tables_align_identically(self, gold):
        assert align_rows(gold, gold) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_reworded_tumour_matches_in_pass_two(self, gold):
        pred = load_pred("pred_wrong.md")
        pairs = dict(align_rows(gold, pred))
        assert pairs[0] == 0  # "Renal clear cell carcinoma" pairs with the clear-cell row

    def test_duplicate_pred_row_left_unpaired(self, gold):
        pred = load_pred("pred_wrong.md")
        matched_pred = {pi for _, pi in align_rows(gold, pred)}
        assert len(matched_pred) == 4  # one of the two duplicated papillary rows stays unpaired
        assert 2 not in matched_pred

    def test_similarity_is_word_order_insensitive(self):
        a = "Renal clear cell carcinoma"
        b = "Clear cell renal cell carcinoma"
        assert row_similarity(a, b) >= 0.8
        assert row_similarity(a, a) == 1.0


class TestCellMatch:
    def test_equal_counts(self):
        cell = CellValue(PositivityCount(17, 155))
        assert cell_match(cell, cell, False)

    def test_percent_derived_tolerance(self):
        gold_cell = CellValue(PositivityCount(129, 155))
        pred_cell = CellValue(PositivityCount(128, 155))
        assert not cell_match(gold_cell, pred_cell, False)
        assert cell_match(gold_cell, pred_cell, True)

    def test_tolerance_requires_equal_totals(self):
        gold_cell = CellValue(PositivityCount(129, 155))
        pred_cell = CellValue(PositivityCount(128, 154))
        assert not cell_match(gold_cell, pred_cell, True)

    def test_missing_matches_missing_only(self):
        assert cell_match(MISSING, MISSING, False)
        assert not cell_match(CellValue(PositivityCount(0, 13)), MISSING, False)
        assert not cell_match(MISSING, CellValue(PositivityCount(0, 13)), False)


class TestScore:
    def test_exact_output_is_correct(self, gold, abstract_text):
        result = score(gold, load_pred("pred_correct.md"), source_text=abstract_text)
        assert result.verdict is Verdict.CORRECT
        assert result.exact

    def test_percent_tolerance_is_required_for_correct(self, gold):
        result = score(gold, load_pred("pred_correct.md"))
        assert result.verdict is Verdict.PARTIALLY_CORRECT
        assert result.matched_cells == 7

    def test_single_generic_column_is_partially_correct(self, gold, abstract_text):
        result = score(gold, load_pred("pred_partial.md"), source_text=abstract_text)
        assert result.verdict is Verdict.PARTIALLY_CORRECT
        assert result.recall < 1
        assert result.f1 >= Fraction(1, 4)

    def test_unrelated_column_is_wrong(self, gold, abstract_text):
        result = score(gold, load_pred("pred_wrong.md"), source_text=abstract_text)
        assert result.verdict is Verdict.WRONG

    def test_empty_pred_is_wrong(self, gold):
        empty = ProfileTable(pmid="21691200", header=["Tumor type", "Tumor site"], rows=[], violations=[])
        result = score(gold, empty)
        assert result.f1 == 0
        assert result.verdict is Verdict.WRONG

    def test_self_score_correct_on_random_tables(self):
        rng = random.Random(99)
        for _ in range(100):
            table = random_table(rng)
            assert score(table, table).verdict is Verdict.CORRECT

    def test_matched_count_symmetric(self):
        rng = random.Random(123)
        for _ in range(50):
            a, b = random_table(rng), random_table(rng)
            assert score(a, b).matched_cells == score(b, a).matched_cells

    def test_specific_qualifiers_never_cross_match(self):
        gold_table = simple_table(
            "1", "S100A4 (epithelial)", [("melanoma", "skin", CellValue(PositivityCount(3, 9)))]
        )
        pred_table = simple_table(
            "1", "S100A4 (stromal)", [("melanoma", "skin", CellValue(PositivityCount(3, 9)))]
        )
        assert score(gold_table, pred_table).matched_cells == 0

    def test_pred_without_qualifier_matches_unqualified_gold(self):
        gold_table = simple_table("1", "CD34", [("melanoma", "skin", CellValue(PositivityCount(3, 9)))])
        pred_table = simple_table("1", "CD34", [("melanoma", "skin", CellValue(PositivityCount(3, 9)))])
        assert score(gold_table, pred_table).verdict is Verdict.CORRECT

    def test_deleting_matched_cells_never_improves_verdict(self, gold, abstract_text):
        order = [Verdict.WRONG, Verdict.PARTIALLY_CORRECT, Verdict.CORRECT]
        full = score(gold, gold, source_text=abstract_text)
        # drop a whole matched column
        reduced = ProfileTable(
            pmid=gold.pmid,
            header=gold.header[:3],
            rows=[
                ProfileRow(r.tumour_type, r.tumour_site, {gold.header[2]: r.cells[gold.header[2]]})
                for r in gold.rows
            ],
            violations=[],
        )
        partial = score(gold, reduced, source_text=abstract_text)
        assert order.index(partial.verdict) <= order.index(full.verdict)
        # drop rows until empty
        empty = ProfileTable(pmid=gold.pmid, header=gold.header, rows=[], violations=[])
        worst = score(gold, empty, source_text=abstract_text)
        assert order.index(worst.verdict) <= order.index(partial.verdict)


class TestEvaluateSet:
    def build_pairs(self, exact, partial, wrong):
        pairs = []
        count = CellValue(PositivityCount(5, 10))
        other = CellValue(PositivityCount(6, 10))
        for i in range(exact + partial + wrong):
            pmid = str(1000 + i)
            g = simple_table(pmid, "ER", [("melanoma", "skin", count), ("breast carcinoma", "breast", count)])
            if i < exact:
                p = g
            elif i < exact + partial:
                p = simple_table(pmid, "ER", [("melanoma", "skin", count), ("breast carcinoma", "breast", other)])
            else:
                p = ProfileTable(pmid=pmid, header=["Tumor type", "Tumor site", "ER"], rows=[], violations=[])
            pairs.append((g, p))
        return pairs

    def test_reported_histogram_formatting(self):
        summary = evaluate_set(self.build_pairs(62, 28, 8))
        assert summary.histogram == {"Correct": 62, "PartiallyCorrect": 28, "Wrong": 8}
        assert summary.percents == {"Correct": "63.3", "PartiallyCorrect": "28.6", "Wrong": "8.2"}

    def test_all_exact(self):
        summary = evaluate_set(self.build_pairs(4, 0, 0))
        assert summary.percents["Correct"] == "100.0"
        assert summary.mean_f1 == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_set([])

    def test_pmid_mismatch_rejected(self):
        g = simple_table("1", "ER", [("melanoma", "skin", MISSING)])
        p = simple_table("2", "ER", [("melanoma", "skin", MISSING)])
        with pytest.raises(ValidationError):
            evaluate_set([(g, p)])
