"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values here are either published reference numbers,
independently computed oracles (decimal arithmetic, linear scans,
brute-force confusion matrices), or hand-constructed fixtures.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from urllib.parse import parse_qs

import numpy as np
import pytest

from ihcmine.classify import evaluate
from ihcmine.domain import ClassificationLabel, format_percent, round_percent
from ihcmine.gateway import EmbeddingVector
from ihcmine.landscape import ConcordanceCategory, compare, load_reference_csv, summary_report
from ihcmine.normalize import Concept, ConceptIndex
from ihcmine.table_eval import Verdict, evaluate_set, score
from ihcmine.tables import parse_cell, parse_markdown_table, render_markdown

from test_cli import read_jsonl
from test_domain import checked_rate
from test_landscape import load_concordance_fixture
from test_tables import random_table

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "data" / "renal_s100a4"

# marker, positives, cohort size, printed rate at one decimal
TOP_MARKER_RATES = [
    ("VIMENTIN", 21104, 31263, "67.5"),
    ("S100", 11072, 25814, "42.9"),
    ("CD34", 21731, 37065, "58.6"),
    ("DESMIN", 8082, 31601, "25.6"),
    ("SMA", 14070, 32282, "43.6"),
    ("EMA", 12655, 23587, "53.7"),
    ("p53", 53442, 111423, "48.0"),
    ("CK7", 20700, 34953, "59.2"),
    ("SYNAPTOPHYSIN", 10721, 22618, "47.4"),
    ("CHROMOGRANIN", 14375, 31723, "45.3"),
]

# printed integer percent per concordance fixture row
CONCORDANCE_PERCENTS = {
    "ER": "69", "p53": "31", "CD3": "98", "PR": "50", "CD34": "61", "BCL2": "65",
    "HER2": "22", "DESMIN": "3", "p16": "58", "S100": "96", "SYNAPTOPHYSIN": "78",
    "SMA": "87", "CD10": "48", "BRAF": "79", "CALRETININ": "88", "CHROMOGRANIN": "83",
    "CD56": "91", "p63": "63", "AE1/AE3": "90", "EMA": "72", "CD20": "23",
    "HMB45": "93", "CD30": "97", "CK7": "91", "SOX10": "72", "CA125": "74",
    "SMAD4": "79", "CD138": "40", "WT1": "93", "CDX2": "36", "GATA3": "97",
    "TTF1": "79", "PAX8": "88", "p40": "95", "CD2": "96", "CK20": "0",
    "STAT6": "97", "BCL6": "72", "CK5": "99", "BerEP4": "58", "PLAP": "77",
    "SALL4": "96", "Brachyury": "87", "DOG1": "4", "BCL10": "31", "MNF116": "100",
    "BCL1": "95", "MUC5": "23", "CD168": "31", "BOB1": "100",
}

EXPECTED_CATEGORIES = {
    "NoReference": {"p53", "p16", "p63", "SMAD4", "CD138", "PLAP", "BCL10", "MNF116", "MUC5", "CD168"},
    "OutOfRangeNotable": {"BerEP4"},
    "OutOfRangeNear": {"HER2", "CD20", "CK5", "SALL4", "Brachyury", "STAT6"},
    "WithinRange": {
        "PR", "CD34", "BCL2", "CD10", "CALRETININ", "CD56", "AE1/AE3",
        "SOX10", "WT1", "CDX2", "GATA3", "TTF1", "BCL6", "DOG1",
    },
    "QualitativeConcordant": {
        "ER", "CD3", "DESMIN", "S100", "SYNAPTOPHYSIN", "SMA", "BRAF", "CHROMOGRANIN",
        "EMA", "HMB45", "CD30", "CK7", "CA125", "PAX8", "p40", "CD2", "CK20", "BCL1", "BOB1",
    },
}


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {detail}")


def test_c1_rate_arithmetic_reproduces_published_tables():
    start = time.perf_counter()
    for marker, positives, total, expected in TOP_MARKER_RATES:
        assert round_percent(checked_rate(positives, total), 1) == expected, marker
    for marker, tumour, positives, total in load_concordance_fixture():
        assert round_percent(checked_rate(positives, total), 0) == CONCORDANCE_PERCENTS[marker], marker
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok("C1", f"10 one-decimal rates and {len(CONCORDANCE_PERCENTS)} integer rates reproduced in {elapsed:.3f}s")


def test_c2_metrics_match_bruteforce_oracle_and_reported_row():
    from test_classify import build_labels, oracle_metrics

    rng = random.Random(424242)
    include, exclude = ClassificationLabel.INCLUDE, ClassificationLabel.EXCLUDE
    for _ in range(1000):
        preds = [include if rng.random() < 0.5 else exclude for _ in range(200)]
        golds = [include if rng.random() < 0.49 else exclude for _ in range(200)]
        metrics = evaluate(preds, golds)
        expected = oracle_metrics(preds, golds)
        assert metrics.accuracy == expected["accuracy"]
        assert metrics.precision == expected["precision"]
        assert metrics.recall == expected["recall"]
        assert metrics.f1 == expected["f1"]

    # brute-force search over integer confusion matrices on the 98/102 split
    solutions = []
    for tp in range(99):
        for tn in range(103):
            fn, fp = 98 - tp, 102 - tn
            accuracy = Fraction(tp + tn, 200)
            f1 = Fraction(2 * tp, 2 * tp + fp + fn) if (2 * tp + fp + fn) else Fraction(0)
            if format_percent(accuracy * 100, 1) == "91.5" and format_percent(f1 * 100, 1) == "91.4":
                solutions.append((tp, fp, fn, tn))
    assert solutions == [(90, 9, 8, 93)]
    preds, golds = build_labels(*solutions[0])
    metrics = evaluate(preds, golds)
    assert format_percent(metrics.accuracy * 100, 1) == "91.5"
    assert format_percent(metrics.f1 * 100, 1) == "91.4"
    ok("C2", "1000 random vectors equal the oracle exactly; (tp=90, fp=9, fn=8, tn=93) is the unique 91.5/91.4 matrix")


def test_c3_reference_extraction_fixture_verdicts():
    gold = parse_markdown_table((FIXTURES / "gold.md").read_text(), pmid="21691200")
    abstract = (FIXTURES / "abstract.txt").read_text()

    assert len(gold.rows) == 4
    assert gold.marker_columns == ["S100A4 (epithelial)", "S100A4 (stromal)"]
    cells = [
        [row.cells[name].render() for name in gold.marker_columns] for row in gold.rows
    ]
    assert cells == [["17/155", "129/155"], ["13/22", "16/22"], ["NA", "0/13"], ["NA", "0/13"]]

    fine_tuned = parse_markdown_table((FIXTURES / "pred_correct.md").read_text(), pmid="21691200")
    generic_col = parse_markdown_table((FIXTURES / "pred_partial.md").read_text(), pmid="21691200")
    baseline = parse_markdown_table((FIXTURES / "pred_wrong.md").read_text(), pmid="21691200")

    assert score(gold, fine_tuned, source_text=abstract).verdict is Verdict.CORRECT
    assert score(gold, generic_col, source_text=abstract).verdict is Verdict.PARTIALLY_CORRECT
    assert score(gold, baseline, source_text=abstract).verdict is Verdict.WRONG

    # the 83%-of-155 tolerance is what allows 128 vs 129; without it the output is not exact
    assert abs(0.83 * 155 - 128) < 1 and abs(0.83 * 155 - 129) < 1
    strict = score(gold, fine_tuned)
    assert not strict.exact and strict.matched_cells == 7
    ok("C3", "fixture verdicts Correct / PartiallyCorrect / Wrong with the percent tolerance active")


def test_c4_round_trip_and_cell_parse_robustness():
    rng = random.Random(20240503)
    for i in range(10_000):
        table = random_table(rng)
        assert parse_markdown_table(render_markdown(table), pmid=table.pmid) == table, f"iteration {i}"

    for _ in range(10_000):
        length = rng.randint(0, 30)
        text = "".join(chr(rng.randint(0, 0x10FFFF)) for _ in range(length))
        parse_cell(text)  # must never raise
    ok("C4", "10000 fuzz tables round-trip exactly; parse_cell absorbed 10000 random unicode strings")


def test_c5_nearest_neighbor_matches_linear_scan():
    rng = random.Random(31415)
    dim = 8
    concepts = [
        Concept(
            cui=f"C{i:07d}",
            name=f"name {i}",
            vector=EmbeddingVector.of([rng.random() for _ in range(dim)]),
        )
        for i in range(1000)
    ]
    index = ConceptIndex(concepts)
    for _ in range(100):
        query = EmbeddingVector.of([rng.random() for _ in range(dim)])
        q = np.asarray(query.values, dtype=np.float64)
        oracle = sorted(
            (float(np.sqrt(((np.asarray(c.vector.values, dtype=np.float64) - q) ** 2).sum())), c.cui, c.name)
            for c in concepts
        )[:5]
        hits = index.nearest(query, 5)
        assert [(d, c.cui, c.name) for c, d in hits] == oracle

    probe = concepts[371]
    top, distance = index.nearest(probe.vector, 1)[0]
    assert top.cui == probe.cui and distance == 0.0

    duplicated = ConceptIndex(
        [
            Concept(cui="C0000042", name="beta", vector=concepts[0].vector),
            Concept(cui="C0000007", name="alpha", vector=concepts[0].vector),
        ]
    )
    ordered = duplicated.nearest(concepts[0].vector, 2)
    assert [c.cui for c, _ in ordered] == ["C0000007", "C0000042"]
    ok("C5", "1000x100 exact scan agreement, distance-0 self match, deterministic tie-break")


def test_c6_concordance_fixture_categories():
    start = time.perf_counter()
    references = load_reference_csv(REPO / "data" / "reference.csv")
    results = []
    for marker, tumour, positives, total in load_concordance_fixture():
        results.append(compare(checked_rate(positives, total), references.lookup(marker, tumour)))
    by_marker = {r.marker: r.category for r in results}

    assert by_marker["TTF1"] is ConcordanceCategory.WITHIN_RANGE
    assert by_marker["STAT6"] is ConcordanceCategory.OUT_OF_RANGE_NEAR
    assert by_marker["BerEP4"] is ConcordanceCategory.OUT_OF_RANGE_NOTABLE
    notable = [m for m, c in by_marker.items() if c is ConcordanceCategory.OUT_OF_RANGE_NOTABLE]
    assert notable == ["BerEP4"]

    qualitative = [r for r in results if r.reference.kind.value in ("positive", "negative")]
    assert qualitative and all(
        r.category is ConcordanceCategory.QUALITATIVE_CONCORDANT for r in qualitative
    )
    histogram = summary_report(results)["histogram"]
    assert histogram["NoReference"] == 10
    for category, markers in EXPECTED_CATEGORIES.items():
        assert {m for m, c in by_marker.items() if c.value == category} == markers

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok("C6", f"50-row concordance fixture classified as expected in {elapsed:.3f}s")


def test_c7_verdict_histogram_formatting():
    from test_table_eval import TestEvaluateSet

    pairs = TestEvaluateSet().build_pairs(62, 28, 8)
    summary = evaluate_set(pairs)
    assert summary.histogram == {"Correct": 62, "PartiallyCorrect": 28, "Wrong": 8}
    assert summary.percents["Correct"] == "63.3"
    assert summary.percents["PartiallyCorrect"] == "28.6"
    assert summary.percents["Wrong"] == "8.2"
    ok("C7", "62/28/8 over 98 pairs formats as 63.3 / 28.6 / 8.2")


def strip_timestamps(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in record.items() if k != "retrieved_at"} for record in records]


def run_chain(demo_env, run_dir: Path) -> None:
    from ihcmine.cli import main

    for args in demo_env.all_stage_args(run_dir):
        assert main(args) == 0, args


def test_c8_pipeline_determinism_and_resume(demo_env, tmp_path):
    start = time.perf_counter()
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    run_chain(demo_env, run_a)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"

    run_chain(demo_env, run_b)
    stage_files = [
        "classified.jsonl", "tables_raw.jsonl", "tables_parsed.jsonl",
        "normalized.jsonl", "aggregates.jsonl",
    ]
    assert strip_timestamps(read_jsonl(run_a / "corpus.jsonl")) == strip_timestamps(
        read_jsonl(run_b / "corpus.jsonl")
    )
    for name in stage_files:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    for name in ("corpus_stats.json", "landscape_report.json", "comparison_report.csv", "marker_report.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    # kill mid-classify, then resume and compare against an uninterrupted sibling
    from ihcmine.cli import main

    killed = tmp_path / "run_killed"
    control = tmp_path / "run_control"
    assert main(demo_env.fetch_args(killed)) == 0
    shutil.copytree(killed, control)
    assert main(demo_env.classify_args(control)) == 0

    demo_env.llm_state.delay = 0.05
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ihcmine", *demo_env.classify_args(killed), "--concurrency", "2"],
        env=env,
        cwd=str(tmp_path),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    classified_path = killed / "classified.jsonl"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if classified_path.exists() and classified_path.read_bytes().count(b"\n") >= 8:
            break
        time.sleep(0.005)
    else:
        proc.kill()
        pytest.fail("mock classify subprocess never produced enough lines to kill")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    lines_after_kill = classified_path.read_bytes().count(b"\n")
    assert lines_after_kill < 50, "process finished before it could be killed"

    demo_env.llm_state.delay = 0.0
    assert main(demo_env.classify_args(killed)) == 0
    resumed = read_jsonl(killed / "classified.jsonl")
    straight = read_jsonl(control / "classified.jsonl")
    assert resumed == straight
    pmids = [r["pmid"] for r in resumed]
    assert len(pmids) == len(set(pmids)) == 50
    ok(
        "C8",
        f"two full runs byte-identical (timestamps aside); kill at {lines_after_kill} lines resumed to identical output",
    )


def test_c9_ingest_contracts(tmp_path):
    from ihcmine.cli import main
    from ihcmine.pubmed import EntrezClient, build_query
    from mockservers import EntrezState, run_entrez

    # per-marker cap at 9,999 against 12,000 mock hits
    state = EntrezState(markers={"BIG": [str(7_000_000 + i) for i in range(12_000)]})
    with run_entrez(state) as url:
        client = EntrezClient(base_url=url, requests_per_second=500.0, backoff_base=0.01)
        pmids = client.search_pmids(build_query("BIG"), cap=9999)
    assert len(pmids) == len(set(pmids)) == 9999

    # cross-marker dedup with union provenance, each PMID efetched once
    shared = {str(6_000_000 + i): (f"title {i}", f"body {i}") for i in range(30)}
    state = EntrezState(
        markers={"ER": list(shared)[:20], "PR": list(shared)[10:]},
        articles=shared,
    )
    markers = tmp_path / "markers.txt"
    markers.write_text("ER\nPR\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    with run_entrez(state) as url:
        args = ["fetch", "--run-dir", str(run_dir), "--markers", str(markers), "--entrez-base", url]
        assert main([*args, "--rps", "500", "--backoff", "0.01", "--batch-size", "7"]) == 0
    stats = json.loads((run_dir / "corpus_stats.json").read_text())
    assert stats["total_unique"] == 30
    corpus = read_jsonl(run_dir / "corpus.jsonl")
    both = [r for r in corpus if set(r["source_markers"]) == {"ER", "PR"}]
    assert len(both) == 10
    efetched = [
        pmid
        for _, path, query in state.requests
        if path.endswith("efetch.fcgi")
        for pmid in parse_qs(query)["id"][0].split(",")
    ]
    assert sorted(efetched) == sorted(shared)

    # request-rate ceiling observed by a timestamping mock
    rate = 25.0
    state = EntrezState(markers={"ER": [str(i) for i in range(60)]})
    with run_entrez(state) as url:
        client = EntrezClient(base_url=url, page_size=6, requests_per_second=rate, backoff_base=0.01)
        client.search_pmids(build_query("ER"), cap=9999)
    arrivals = sorted(ts for ts, _, _ in state.requests)
    assert len(arrivals) >= 10
    assert arrivals[-1] - arrivals[0] >= (len(arrivals) - 1) / rate - 0.05
    ok("C9", f"cap honored at 9999, union dedup 30 unique, {len(arrivals)} requests spaced at <= {rate}/s")
