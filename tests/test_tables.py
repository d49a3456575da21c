"""Markdown table parsing, rendering, and the round-trip property."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihcmine.codec import decode, encode
from ihcmine.domain import MISSING, CellValue, PositivityCount
from ihcmine.errors import TableNotFoundError
from ihcmine.tables import (
    ProfileRow,
    ProfileTable,
    parse_cell,
    parse_markdown_table,
    render_markdown,
    split_marker_column,
)

FIXTURES = Path(__file__).parent / "data" / "renal_s100a4"

NAME_ALPHABET = "abcdefgh ABCDEFGH0123456789()+.,'/-"


def random_name(rng: random.Random, min_len: int = 1, max_len: int = 24) -> str:
    while True:
        text = "".join(rng.choice(NAME_ALPHABET) for _ in range(rng.randint(min_len, max_len))).strip()
        if text and text.lower() != "na" and not set(text) <= set(":- "):
            return text


def random_table(rng: random.Random) -> ProfileTable:
    n_markers = rng.randint(0, 4)
    header = [rng.choice(["Tumor type", "Tumour type"]), rng.choice(["Tumor site", "Tumour site"])]
    markers = []
    while len(markers) < n_markers:
        name = random_name(rng)
        if name not in markers and name not in header:
            markers.append(name)
    header.extend(markers)
    rows = []
    for _ in range(rng.randint(1, 6)):
        cells = {}
        for marker in markers:
            if rng.random() < 0.3:
                cells[marker] = MISSING
            else:
                total = rng.randint(1, 500)
                cells[marker] = CellValue(PositivityCount(rng.randint(0, total), total))
        rows.append(
            ProfileRow(
                tumour_type=random_name(rng),
                tumour_site=None if rng.random() < 0.3 else random_name(rng),
                cells=cells,
            )
        )
    return ProfileTable(pmid=str(rng.randint(1, 10**8)), header=header, rows=rows, violations=[])


class TestParseCell:
    def test_count(self):
        value, note = parse_cell("17/155")
        assert value == CellValue(PositivityCount(17, 155))
        assert note is None

    def test_na(self):
        assert parse_cell("NA") == (MISSING, None)
        assert parse_cell("na") == (MISSING, None)
        assert parse_cell("") == (MISSING, None)

    def test_na_with_denominator_is_flagged(self):
        value, note = parse_cell("NA/13")
        assert value.is_missing
        assert "NA numerator" in note

    def test_positives_above_total_kept_with_note(self):
        value, note = parse_cell("73/22")
        assert value.count == PositivityCount(73, 22)
        assert "positives > total" in note

    def test_zero_total_flagged(self):
        value, note = parse_cell("5/0")
        assert value.count == PositivityCount(5, 0)
        assert "zero total" in note

    def test_percent_cell_preserved_in_note(self):
        value, note = parse_cell("83%")
        assert value.is_missing
        assert "83%" in note

    def test_count_past_the_int_digit_limit_is_unparseable(self):
        text = "1" * 5000 + "/3"  # int() refuses over 4,300 digits
        value, note = parse_cell(text)
        assert value is MISSING
        assert note.startswith("unparseable cell '111")
        table = parse_markdown_table(f"| Tumor type | Tumor site | ER |\n| --- | --- | --- |\n| melanoma | skin | {text} |\n")
        assert table.rows[0].cells["ER"] is MISSING
        assert table.violations == [f"row 1, column 'ER': {note}"]
        stored = {"pmid": "1", "header": table.header, "rows": [{"tumour_type": "melanoma", "tumour_site": "skin", "cells": {"ER": text}}]}
        assert decode(ProfileTable, stored).rows[0].cells["ER"] is MISSING

    @given(st.text())
    def test_never_raises_on_arbitrary_text(self, text):
        value, note = parse_cell(text)
        assert value.is_missing or value.count is not None


class TestSplitMarkerColumn:
    def test_qualifier(self):
        col = split_marker_column("S100A4 (stromal)")
        assert (col.base_marker, col.qualifier) == ("S100A4", "stromal")

    def test_no_qualifier(self):
        col = split_marker_column("CD34")
        assert (col.base_marker, col.qualifier) == ("CD34", None)

    def test_generic_qualifier(self):
        col = split_marker_column("S100A4 (IHC)")
        assert (col.base_marker, col.qualifier) == ("S100A4", "IHC")

    def test_only_trailing_parenthetical_is_split(self):
        col = split_marker_column("S100A4 (a) (b)")
        assert (col.base_marker, col.qualifier) == ("S100A4 (a)", "b")


class TestParseMarkdownTable:
    def test_reference_fixture(self):
        table = parse_markdown_table((FIXTURES / "gold.md").read_text(), pmid="21691200")
        assert len(table.rows) == 4
        assert table.marker_columns == ["S100A4 (epithelial)", "S100A4 (stromal)"]
        first = table.rows[0]
        assert first.tumour_type == "Clear cell renal cell carcinoma"
        assert first.tumour_site == "Kidney"
        assert first.cells["S100A4 (epithelial)"] == CellValue(PositivityCount(17, 155))
        assert first.cells["S100A4 (stromal)"] == CellValue(PositivityCount(129, 155))
        assert table.violations == []

    def test_reference_fixture_all_cells(self):
        table = parse_markdown_table((FIXTURES / "gold.md").read_text())
        rendered = [
            [row.cells[name].render() for name in table.marker_columns] for row in table.rows
        ]
        assert rendered == [
            ["17/155", "129/155"],
            ["13/22", "16/22"],
            ["NA", "0/13"],
            ["NA", "0/13"],
        ]

    def test_malformed_output_fixture(self):
        table = parse_markdown_table((FIXTURES / "pred_wrong.md").read_text())
        assert len(table.rows) == 5
        assert any("positives > total" in v and "73/22" in v for v in table.violations)
        assert any("NA numerator" in v for v in table.violations)
        assert table.rows[3].cells["IHC Marker 1"].is_missing

    def test_header_and_separator_only(self):
        table = parse_markdown_table("| Tumor type | Tumor site | ER |\n| --- | --- | --- |\n")
        assert table.rows == []
        assert "empty table" in table.violations

    def test_no_table_found(self):
        with pytest.raises(TableNotFoundError):
            parse_markdown_table("The abstract discusses staining without any table.")

    def test_arity_mismatch_padded(self):
        text = "| Tumor type | Tumor site | ER |\n| --- | --- | --- |\n| melanoma | skin |\n"
        table = parse_markdown_table(text)
        assert table.rows[0].cells["ER"].is_missing
        assert any("expected 3 cells" in v for v in table.violations)

    def test_multiple_tables_flagged(self):
        text = (
            "| Tumor type | Tumor site | ER |\n| --- | --- | --- |\n| melanoma | skin | 1/2 |\n"
            "\nprose\n\n"
            "| Tumor type | Tumor site | PR |\n| --- | --- | --- |\n| melanoma | skin | 1/3 |\n"
        )
        table = parse_markdown_table(text)
        assert table.marker_columns == ["ER"]
        assert any("multiple tables" in v for v in table.violations)

    def test_duplicate_headers_renamed(self):
        text = "| Tumor type | Tumor site | ER | ER |\n| --- | --- | --- | --- |\n| melanoma | skin | 1/2 | 1/3 |\n"
        table = parse_markdown_table(text)
        assert table.marker_columns == ["ER", "ER #2"]
        assert any("duplicate header" in v for v in table.violations)

    @pytest.mark.parametrize(
        "text, header, violation",
        [
            (
                "| Tumor type | Tumor site | ER |\n| --- | --- |\n| melanoma | skin | 1/2 |\n",
                ["Tumor type", "Tumor site", "ER"],
                "separator has 2 cells but header has 3",
            ),
            (
                "| Tumor type |\n| --- |\n| melanoma |\n",
                ["Tumor type", "Tumor site"],
                "header is missing the tumour type/site columns; padded",
            ),
            (
                "| Marker | Tumor site | ER |\n| --- | --- | --- |\n| melanoma | skin | 1/2 |\n",
                ["Marker", "Tumor site", "ER"],
                "first column 'Marker' does not look like a tumour-type header",
            ),
            (
                "| Tumor type | Cases | ER |\n| --- | --- | --- |\n| melanoma | skin | 1/2 |\n",
                ["Tumor type", "Cases", "ER"],
                "second column 'Cases' does not look like a tumour-site header",
            ),
        ],
        ids=["separator-width", "one-column-header", "first-column", "second-column"],
    )
    def test_malformed_header_is_a_violation(self, text, header, violation):
        table = parse_markdown_table(text)
        assert table.header == header and table.rows[0].tumour_type == "melanoma"
        assert violation in table.violations

    def test_surrounding_prose_ignored(self):
        text = "Here is the table:\n\n| Tumor type | Tumor site | ER |\n|---|---|---|\n| melanoma | skin | NA |\nDone."
        table = parse_markdown_table(text)
        assert len(table.rows) == 1


class TestRenderMarkdown:
    def test_missing_renders_na(self):
        table = ProfileTable(
            pmid="1",
            header=["Tumor type", "Tumor site", "ER"],
            rows=[ProfileRow(tumour_type="melanoma", tumour_site=None, cells={"ER": MISSING})],
            violations=[],
        )
        rendered = render_markdown(table)
        assert "| melanoma | NA | NA |" in rendered

    def test_zero_rows(self):
        table = ProfileTable(pmid="1", header=["Tumor type", "Tumor site"], rows=[], violations=[])
        assert render_markdown(table).count("\n") == 1

    def test_fixture_round_trip(self):
        table = parse_markdown_table((FIXTURES / "gold.md").read_text(), pmid="21691200")
        again = parse_markdown_table(render_markdown(table), pmid="21691200")
        assert again == table

    def test_pipe_in_name_survives(self):
        table = ProfileTable(
            pmid="1",
            header=["Tumor type", "Tumor site", "AE1/AE3"],
            rows=[
                ProfileRow(
                    tumour_type="weird|name", tumour_site="skin", cells={"AE1/AE3": CellValue(PositivityCount(1, 2))}
                )
            ],
            violations=[],
        )
        again = parse_markdown_table(render_markdown(table), pmid="1")
        assert again.rows[0].tumour_type == "weird|name"

    def test_seeded_fuzz_round_trip(self):
        rng = random.Random(20240502)
        for _ in range(500):
            table = random_table(rng)
            again = parse_markdown_table(render_markdown(table), pmid=table.pmid)
            assert again == table

    def test_json_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            table = random_table(rng)
            again = decode(ProfileTable, json.loads(json.dumps(encode(table))))
            assert again == table


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**63))
def test_round_trip_property_random_seeds(seed):
    table = random_table(random.Random(seed))
    assert parse_markdown_table(render_markdown(table), pmid=table.pmid) == table


class TestExtractTable:
    def record(self):
        from ihcmine.domain import AbstractRecord

        return AbstractRecord(
            pmid="21691200",
            title="S100A4 in renal tumours",
            abstract_text="ER was positive in 5/10 cases of melanoma (skin).",
            source_markers={"S100"},
        )

    def test_completion_returned_verbatim(self):
        from ihcmine.gateway import LlmGateway
        from ihcmine.tables import extract_table
        from mockservers import LlmState, run_llm

        canned = (FIXTURES / "gold.md").read_text().rstrip()
        state = LlmState(extract_fn=lambda content: canned)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
            assert extract_table(self.record(), gateway) == canned

    def test_prose_completion_fails_downstream_parse_only(self):
        from ihcmine.gateway import LlmGateway
        from ihcmine.tables import extract_table
        from mockservers import LlmState, run_llm

        state = LlmState(extract_fn=lambda content: "No pipes here at all.")
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
            text = extract_table(self.record(), gateway)
        assert text == "No pipes here at all."
        with pytest.raises(TableNotFoundError):
            parse_markdown_table(text)

    def test_empty_completion_raises(self):
        from ihcmine.errors import EmptyOutputError
        from ihcmine.gateway import LlmGateway
        from ihcmine.tables import extract_table
        from mockservers import LlmState, run_llm

        state = LlmState(empty_next=1)
        with run_llm(state) as url:
            gateway = LlmGateway(url, model_id="m", backoff_base=0.01)
            with pytest.raises(EmptyOutputError):
                extract_table(self.record(), gateway)
