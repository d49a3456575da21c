"""Run-artifact wire format and the dataclass codec.

The golden lines pin the exact bytes each record type is written as, so a
codec change that reorders keys or respells a value fails here even though
two runs of the same code would still agree with each other.
"""

import json
import re

import pytest

from ihcmine.classify import ClassifiedAbstract, QuarantineEntry
from ihcmine.codec import decode, encode
from ihcmine.domain import AbstractRecord, ClassificationLabel, RateStat
from ihcmine.errors import ValidationError
from ihcmine.landscape import MarkerTumourAggregate
from ihcmine.normalize import NormalizedRecord
from ihcmine.pubmed import CorpusStats
from ihcmine.store import STAGES, RunManifest, RunStore, StageInfo
from ihcmine.tables import parse_markdown_table


def line(obj) -> str:
    """One JSONL line as the run store writes it, without the newline."""
    return json.dumps(encode(obj), ensure_ascii=False)


ABSTRACT = AbstractRecord(
    pmid="21691200",
    title="S100A4 in renal tumours",
    abstract_text="Staining in 83% of cases (café-au-lait, β-catenin).",
    source_markers={"S100", "CD34", "ER"},
)
CLASSIFIED = ClassifiedAbstract(
    pmid="21691200",
    label=ClassificationLabel.INCLUDE,
    raw_output="Include.",
    model_id="local-model",
    prompt_hash="ab12",
)
QUARANTINED = QuarantineEntry(pmid="9", stage="parse", reason="no table")
NORMALIZED = NormalizedRecord(
    pmid="21691200",
    tumour_type="Clear cell RCC",
    tumour_type_cui="C0007134",
    tumour_type_name="Renal cell carcinoma",
    tumour_site=None,
    tumour_site_cui=None,
    tumour_site_name=None,
    marker="S100A4 (stromal)",
    base_marker="S100A4",
    marker_cui="C1234567",
    marker_name="S100 calcium binding protein A4",
    qualifier="stromal",
    positives=17,
    total=155,
    flags=["invalid_count", "unmapped_tumour_site"],
)
AGGREGATE = MarkerTumourAggregate(
    marker_cui="C1234567",
    marker_name="S100A4",
    tumour_cui="C0007134",
    tumour_name="Renal cell carcinoma",
    n_abstracts=2,
    positives=20,
    total=170,
    rate=RateStat(20, 170),
)

GOLDEN_LINES = [
    (
        ABSTRACT,
        '{"pmid": "21691200", "title": "S100A4 in renal tumours", '
        '"abstract_text": "Staining in 83% of cases (café-au-lait, β-catenin).", '
        '"source_markers": ["CD34", "ER", "S100"]}',
    ),
    (
        CLASSIFIED,
        '{"pmid": "21691200", "label": "Include", "raw_output": "Include.", '
        '"model_id": "local-model", "prompt_hash": "ab12"}',
    ),
    (QUARANTINED, '{"pmid": "9", "stage": "parse", "reason": "no table", "raw_output": ""}'),
    (
        NORMALIZED,
        '{"pmid": "21691200", "tumour_type": "Clear cell RCC", "tumour_type_cui": "C0007134", '
        '"tumour_type_name": "Renal cell carcinoma", "tumour_site": null, "tumour_site_cui": null, '
        '"tumour_site_name": null, "marker": "S100A4 (stromal)", "base_marker": "S100A4", '
        '"marker_cui": "C1234567", "marker_name": "S100 calcium binding protein A4", '
        '"qualifier": "stromal", "positives": 17, "total": 155, '
        '"flags": ["invalid_count", "unmapped_tumour_site"]}',
    ),
    (
        AGGREGATE,
        '{"marker_cui": "C1234567", "marker_name": "S100A4", "tumour_cui": "C0007134", '
        '"tumour_name": "Renal cell carcinoma", "n_abstracts": 2, "positives": 20, "total": 170, '
        '"rate": {"positives": 20, "total": 170}, "qualifier": null}',
    ),
]


class TestGoldenFormat:
    @pytest.mark.parametrize("obj, expected", GOLDEN_LINES, ids=lambda v: type(v).__name__)
    def test_record_line(self, obj, expected):
        assert line(obj) == expected

    def test_profile_table_line(self):
        table = parse_markdown_table(
            "| Tumor type | Tumor site | S100A4 (stromal) | CD34 |\n| --- | --- | --- | --- |\n"
            "| Clear cell RCC | NA | 17/155 | NA |\n| Oncocytoma | Kidney | 0/12 | 3/4 | extra |\n",
            pmid="21691200",
        )
        assert json.dumps(encode(table), ensure_ascii=False) == (
            '{"pmid": "21691200", "header": ["Tumor type", "Tumor site", "S100A4 (stromal)", "CD34"], '
            '"rows": [{"tumour_type": "Clear cell RCC", "tumour_site": "NA", '
            '"cells": {"S100A4 (stromal)": "17/155", "CD34": "NA"}}, '
            '{"tumour_type": "Oncocytoma", "tumour_site": "Kidney", '
            '"cells": {"S100A4 (stromal)": "0/12", "CD34": "3/4"}}], '
            '"violations": ["row 2: expected 4 cells, got 5"]}'
        )

    def test_manifest_text(self, tmp_path):
        store = RunStore.create(tmp_path / "run")
        store.stage_info("corpus").inputs = {"cap": "9999", "markers_path": "ab12"}
        store.write_stage_atomic("corpus", [{"pmid": "1"}], note="skipped_no_abstract=0")
        text = (tmp_path / "run" / "manifest.json").read_text(encoding="utf-8")
        text = re.sub(r'"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"', '"T"', text)
        pending = {
            "status": "pending", "count": None, "bytes": None, "sha256": None,
            "started_at": None, "finished_at": None, "note": None, "inputs": None,
        }
        expected = {
            "run_id": "run",
            "stages": {
                "corpus": {
                    "status": "done",
                    "count": 1,
                    "bytes": 14,
                    "sha256": "12c8884e7e2bbac3d22247f02cff2b3601ddba4575cbc89b6807da750d372c0b",  # of '{"pmid": "1"}\n'
                    "started_at": "T",
                    "finished_at": "T",
                    "note": "skipped_no_abstract=0",
                    "inputs": {"cap": "9999", "markers_path": "ab12"},
                },
                **{name: pending for name in list(STAGES)[1:]},
            },
            "created_at": "T",
        }
        assert text == json.dumps(expected, indent=2)


ROUND_TRIP = [
    RateStat(53442, 111423),
    ABSTRACT,
    CorpusStats(per_marker_counts={"ER": 3, "PR": 0}, total_unique=3),
    StageInfo(status="done", count=4, started_at="a", finished_at="b", note='{"include": 4}'),
    RunManifest(
        run_id="r",
        stages={"corpus": StageInfo(status="running", started_at="a", inputs={"cap": "5", "max_distance": "None"})},
        created_at="c",
    ),
    CLASSIFIED,
    QUARANTINED,
    NORMALIZED,
    AGGREGATE,
]


@pytest.mark.parametrize("obj", ROUND_TRIP, ids=lambda obj: type(obj).__name__)
def test_round_trip_through_json(obj):
    assert decode(type(obj), json.loads(line(obj))) == obj


class TestDecode:
    def test_missing_optional_keys_take_field_defaults(self):
        entry = decode(QuarantineEntry, {"pmid": "1", "stage": "classify", "reason": "r"})
        assert entry.raw_output == ""
        assert decode(StageInfo, {}) == StageInfo()
        agg = decode(MarkerTumourAggregate, {k: v for k, v in encode(AGGREGATE).items() if k != "qualifier"})
        assert agg == AGGREGATE

    def test_corpus_line_with_a_fetch_time_still_decodes(self):
        """Corpora written before the fetch time left the record hold it as their last key; it is ignored."""
        assert decode(AbstractRecord, json.loads(GOLDEN_LINES[0][1][:-1] + ', "retrieved_at": "T"}')) == ABSTRACT

    def test_int_fields_decoded_with_int(self):
        assert decode(RateStat, {"positives": "3", "total": 10}) == RateStat(3, 10)

    def test_manifest_missing_a_stage_opens_with_it_pending(self, tmp_path):
        store = RunStore.create(tmp_path / "run")
        store.write_stage_atomic("corpus", [{"pmid": "1"}])
        path = tmp_path / "run" / "manifest.json"
        old = json.loads(path.read_text(encoding="utf-8"))
        del old["stages"]["aggregates"]
        del old["created_at"]
        path.write_text(json.dumps(old, indent=2), encoding="utf-8")

        manifest = RunStore.open(tmp_path / "run").manifest
        assert list(manifest.stages) == list(STAGES)
        assert manifest.stages["aggregates"] == StageInfo()
        assert manifest.stages["corpus"].status == "done"
        assert manifest.created_at == ""

    @pytest.mark.parametrize(
        "cls, record, message",
        [
            (ClassifiedAbstract, dict(encode(CLASSIFIED), label="Maybe"), "'Maybe' is not a valid ClassificationLabel"),
            (NormalizedRecord, dict(encode(NORMALIZED), positives="three"), "NormalizedRecord.positives"),
            (NormalizedRecord, dict(encode(NORMALIZED), total=None), "NormalizedRecord.total"),
            (MarkerTumourAggregate, dict(encode(AGGREGATE), rate={"positives": [1], "total": 2}), "RateStat.positives"),
            (AbstractRecord, dict(encode(ABSTRACT), pmid=21691200), "AbstractRecord.pmid"),
            (AbstractRecord, dict(encode(ABSTRACT), source_markers="ER"), "source_markers"),
            (NormalizedRecord, dict(encode(NORMALIZED), flags=[None]), "NormalizedRecord.flags"),
            (QuarantineEntry, {"stage": "parse", "reason": "r"}, "missing required key 'pmid'"),
            (CorpusStats, {"per_marker_counts": {"ER": "x"}}, "CorpusStats.per_marker_counts"),
            (StageInfo, {"count": {}}, "StageInfo.count"),
            (RateStat, {"positives": float("inf"), "total": 1}, "RateStat.positives"),
            (RateStat, ["positives", "total"], "expected an object"),
        ],
    )
    def test_bad_input_raises_validation_error(self, cls, record, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            decode(cls, record)

    def test_post_init_checks_still_run(self):
        with pytest.raises(ValidationError, match="rate above 100%"):
            decode(RateStat, {"positives": 5, "total": 3})
        with pytest.raises(ValidationError, match="source_markers must be non-empty"):
            decode(AbstractRecord, dict(encode(ABSTRACT), source_markers=[]))
