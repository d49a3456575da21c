"""Subcommand wiring: exit codes, stage ordering errors, artifacts, settings."""

import argparse
import codecs
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import parse_qs

import pytest

from ihcmine.cli import build_parser, main
from ihcmine.codec import encode
from ihcmine.errors import ConfigError
from ihcmine.normalize import NormalizedRecord
from ihcmine.provenance import STAGES
from ihcmine.store import RunLock, RunStore

from mockservers import default_classify


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["flarb"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["eval-classify"]) == 1

    def test_extract_before_classify_names_the_producer(self, demo_env, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(demo_env.extract_args(run_dir)) == 2
        assert "classified.jsonl not found; run classify" in capsys.readouterr().err

    def test_normalize_before_extract(self, demo_env, capsys, tmp_path):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        assert main(demo_env.normalize_args(run_dir)) == 2
        assert "tables_parsed.jsonl not found; run extract" in capsys.readouterr().err

    def test_report_does_not_need_compare(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
        assert main(demo_env.report_args(run_dir)) == 0  # it reads aggregates and normalized, no report
        assert (run_dir / "marker_report.csv").exists() and not (run_dir / "comparison_report.csv").exists()


class TestFetch:
    def test_corpus_and_stats(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        corpus = read_jsonl(run_dir / "corpus.jsonl")
        assert len(corpus) == 50
        stats = json.loads((run_dir / "corpus_stats.json").read_text())
        assert stats["total_unique"] == 50
        assert sum(stats["per_marker_counts"].values()) > 50  # overlap across markers
        overlapping = [r for r in corpus if len(r["source_markers"]) > 1]
        assert overlapping, "expected at least one abstract retrieved by two markers"

    def test_repeated_marker_line_is_searched_once(self, demo_env, tmp_path, capsys):
        demo_env.markers_file.write_text("ER\nPR\nER\n", encoding="utf-8")
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert "across 2 markers" in capsys.readouterr().out
        corpus = read_jsonl(run_dir / "corpus.jsonl")
        stats = json.loads((run_dir / "corpus_stats.json").read_text())
        assert stats["per_marker_counts"] == {m: sum(m in r["source_markers"] for r in corpus) for m in ("ER", "PR")}

    def test_markers_file_with_a_byte_order_mark(self, demo_env, tmp_path):
        demo_env.markers_file.write_text("ER\nPR\n", encoding="utf-8-sig")  # as some editors save it
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        terms = [parse_qs(q)["term"][0] for _, path, q in demo_env.entrez_state.requests if path.endswith("esearch.fcgi")]
        assert terms == ["ER immunohisto*", "PR immunohisto*"]
        assert list(json.loads((run_dir / "corpus_stats.json").read_text())["per_marker_counts"]) == ["ER", "PR"]

    def test_markers_file_that_is_not_utf_8(self, demo_env, tmp_path, capsys):
        demo_env.markers_file.write_bytes(b"ER\nPR\xff\n")
        assert main(demo_env.fetch_args(tmp_path / "run")) == 2
        assert capsys.readouterr().err.startswith(f"error: {demo_env.markers_file}: not valid UTF-8")
        assert demo_env.entrez_state.requests == []

    def test_rerun_skips_done_stage(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        requests_before = len(demo_env.entrez_state.requests)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert len(demo_env.entrez_state.requests) == requests_before
        assert "already done" in capsys.readouterr().out


class TestFullChain:
    def test_artifacts_exist_and_are_consistent(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir):
            assert main(args) == 0, args

        classified = read_jsonl(run_dir / "classified.jsonl")
        corpus = read_jsonl(run_dir / "corpus.jsonl")
        assert {c["pmid"] for c in classified} == {c["pmid"] for c in corpus}
        include = [c for c in classified if c["label"] == "Include"]
        assert include and len(include) < len(classified)

        tables = read_jsonl(run_dir / "tables_parsed.jsonl")
        assert {t["pmid"] for t in tables} == {c["pmid"] for c in include}

        normalized = read_jsonl(run_dir / "normalized.jsonl")
        assert all(r["marker_cui"] and r["tumour_type_cui"] for r in normalized)

        aggregates = read_jsonl(run_dir / "aggregates.jsonl")
        assert sum(a["positives"] for a in aggregates) == sum(r["positives"] for r in normalized)

        with (run_dir / "comparison_report.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert {row["marker"] for row in rows} == {"ER", "PR", "CD34"}
        by_marker = {row["marker"]: row for row in rows}
        assert by_marker["CD34"]["category"] == "NoReference"

        with (run_dir / "marker_report.csv").open() as handle:
            marker_rows = list(csv.DictReader(handle))
        assert [int(r["n_abstracts"]) for r in marker_rows] == sorted(
            (int(r["n_abstracts"]) for r in marker_rows), reverse=True
        )

        manifest = json.loads((run_dir / "manifest.json").read_text())
        for stage in ("corpus", "classified", "tables_raw", "tables_parsed", "normalized", "aggregates"):
            info = manifest["stages"][stage]
            assert info["status"] == "done"
            assert info["count"] == len(read_jsonl(run_dir / f"{stage}.jsonl"))

    def test_all_exclude_chain_runs_through_report(self, demo_env, tmp_path, capsys):
        demo_env.llm_state.classify_fn = lambda content: "Exclude"
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir):
            assert main(args) == 0, args
        assert "extracted 0 profile tables from 0 Include abstracts" in capsys.readouterr().out
        for stage in ("tables_raw", "tables_parsed", "normalized", "aggregates"):
            assert (run_dir / f"{stage}.jsonl").read_bytes() == b""
        assert (run_dir / "marker_report.csv").read_bytes() == b"marker,n_abstracts,positives,cohort,positive_rate_percent\r\n"
        assert list(run_dir.glob(".*.partial")) == []

    def test_quarantine_relabel_is_idempotent(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        # make one abstract unparseable at classification time
        victim = "8000001"
        original_fn = demo_env.llm_state.classify_fn
        demo_env.llm_state.classify_fn = lambda content: "maybe" if victim in content else original_fn(content)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        quarantine = read_jsonl(run_dir / "quarantine.jsonl")
        assert [q["pmid"] for q in quarantine] == [victim]

        # operator relabels the quarantined record by appending a corrected line
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["stages"]["classified"]["status"] = "running"
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        before = (run_dir / "classified.jsonl").read_text()
        fixed = dict(read_jsonl(run_dir / "classified.jsonl")[0])
        fixed.update({"pmid": victim, "label": "Exclude", "raw_output": "Exclude (manual)"})
        with (run_dir / "classified.jsonl").open("a") as handle:
            handle.write(json.dumps(fixed) + "\n")

        demo_env.llm_state.classify_fn = original_fn
        calls_before = len(demo_env.llm_state.requests)
        assert main(demo_env.classify_args(run_dir)) == 0
        assert len(demo_env.llm_state.requests) == calls_before  # nothing reprocessed
        after = (run_dir / "classified.jsonl").read_text()
        assert after.startswith(before)  # previously classified lines untouched

    def test_retry_quarantined_reprocesses_after_done(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        victim = "8000001"
        original_fn = demo_env.llm_state.classify_fn
        demo_env.llm_state.classify_fn = lambda content: "maybe" if victim in content else original_fn(content)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        assert [q["pmid"] for q in read_jsonl(run_dir / "quarantine.jsonl")] == [victim]

        # plain rerun leaves the quarantined record alone
        assert main(demo_env.classify_args(run_dir)) == 0
        assert [q["pmid"] for q in read_jsonl(run_dir / "quarantine.jsonl")] == [victim]
        before = stage_info(run_dir, "classified")

        demo_env.llm_state.classify_fn = original_fn
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 0
        assert read_jsonl(run_dir / "quarantine.jsonl") == []
        classified = read_jsonl(run_dir / "classified.jsonl")
        assert victim in {c["pmid"] for c in classified}
        assert len(classified) == 50

        # the stage record covers the bytes the retry added
        data = (run_dir / "classified.jsonl").read_bytes()
        after = stage_info(run_dir, "classified")
        assert (before["count"], after["count"]) == (49, 50)
        assert after["bytes"] == len(data) and after["sha256"] == hashlib.sha256(data).hexdigest() != before["sha256"]
        assert main(demo_env.extract_args(run_dir)) == 0

    def test_retry_quarantined_after_a_kill_mid_append_to_the_quarantine(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        quarantine_under_every_tag(demo_env.llm_state)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        assert [q["pmid"] for q in read_jsonl(run_dir / "quarantine.jsonl")] == list(QUARANTINED["classify"])
        # killed while appending the second quarantine entry: classify is still running
        cut_inside_line(run_dir / "quarantine.jsonl", 1)
        set_status(run_dir, "classified", "running")

        demo_env.llm_state.classify_fn = default_classify
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 0
        assert read_jsonl(run_dir / "quarantine.jsonl") == []
        assert {c["pmid"] for c in read_jsonl(run_dir / "classified.jsonl")} >= set(QUARANTINED["classify"])
        assert stage_info(run_dir, "classified")["count"] == 50

    def test_retry_quarantined_after_extract_is_refused(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        victim = "8000001"
        original_fn = demo_env.llm_state.classify_fn
        demo_env.llm_state.classify_fn = lambda content: "maybe" if victim in content else original_fn(content)
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0
        demo_env.llm_state.classify_fn = original_fn
        names = ("classified.jsonl", "quarantine.jsonl", "manifest.json")
        before = {name: (run_dir / name).read_bytes() for name in names}

        # extract never re-reads classified, so a record relabelled Include now would get no table
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 2
        assert "must be retried before extract" in capsys.readouterr().err
        assert {name: (run_dir / name).read_bytes() for name in names} == before

    def test_quarantine_rewrite_is_fsynced_before_rename(self, demo_env, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        victim = "8000001"
        original_fn = demo_env.llm_state.classify_fn
        demo_env.llm_state.classify_fn = lambda content: "maybe" if victim in content else original_fn(content)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        demo_env.llm_state.classify_fn = original_fn

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 0

        (rename,) = [e for e in events if e[0] == "replace" and e[2] == "quarantine.jsonl"]
        assert ("fsync", rename[1]) in events[: events.index(rename)]

    def test_answer_that_is_not_utf_8_text_is_quarantined(self, demo_env, tmp_path):
        # a lone surrogate escape is valid JSON; appended to classified.jsonl it stopped every rerun
        run_dir = tmp_path / "run"
        victim = "8000001"
        demo_env.llm_state.classify_fn = lambda text: "Include \ud83d" if victim in text else default_classify(text)
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        (entry,) = read_jsonl(run_dir / "quarantine.jsonl")
        assert (entry["pmid"], entry["stage"]) == (victim, "classify")
        assert entry["reason"].startswith("gateway: chat content is not UTF-8 text")
        assert stage_info(run_dir, "classified")["count"] == 49

        demo_env.llm_state.classify_fn = default_classify
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 0
        assert read_jsonl(run_dir / "quarantine.jsonl") == []
        assert stage_info(run_dir, "classified")["count"] == 50


class TestExtract:
    def test_concurrency_overlaps_extraction_calls_without_changing_output(self, demo_env, tmp_path):
        serial, overlapped = tmp_path / "serial", tmp_path / "overlapped"
        for run_dir in (serial, overlapped):
            assert main(demo_env.fetch_args(run_dir)) == 0
            assert main(demo_env.classify_args(run_dir)) == 0
        assert main([*demo_env.extract_args(serial), "--concurrency", "1"]) == 0

        demo_env.llm_state.max_active = 0
        demo_env.llm_state.delay = 0.02
        assert main([*demo_env.extract_args(overlapped), "--concurrency", "2"]) == 0
        assert demo_env.llm_state.max_active == 2
        for name in ("tables_raw.jsonl", "tables_parsed.jsonl"):
            assert (overlapped / name).read_bytes() == (serial / name).read_bytes(), name


class TestNormalize:
    def test_empty_marker_header_is_an_unmapped_marker(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        pmid = next(r["pmid"] for r in read_jsonl(run_dir / "classified.jsonl") if r["label"] == "Include")
        extract_fn = demo_env.llm_state.extract_fn
        demo_env.llm_state.extract_fn = lambda content: (
            "| Tumor type | Tumor site | |\n| --- | --- | --- |\n| melanoma | skin | 3/10 |\n"
            if f"({pmid})" in content
            else extract_fn(content)
        )
        assert main(demo_env.extract_args(run_dir)) == 0
        assert main(demo_env.normalize_args(run_dir)) == 0
        records = read_jsonl(run_dir / "normalized.jsonl")
        blank = [r for r in records if r["pmid"] == pmid]
        assert len(blank) == 1
        assert (blank[0]["marker"], blank[0]["marker_cui"], blank[0]["flags"]) == ("", None, ["unmapped_marker"])
        assert all(r["marker_cui"] for r in records if r["pmid"] != pmid)


def normalized(pmid, tumour_cui="C0000010", flags=()):
    return NormalizedRecord(
        pmid=pmid,
        tumour_type="melanoma",
        tumour_type_cui=tumour_cui,
        tumour_type_name="melanoma" if tumour_cui else None,
        tumour_site=None,
        tumour_site_cui=None,
        tumour_site_name=None,
        marker="ER",
        base_marker="ER",
        marker_cui="C0000001",
        marker_name="ER",
        qualifier=None,
        positives=3,
        total=10,
        flags=list(flags),
    )


class TestCompare:
    @pytest.mark.parametrize(
        "row",
        [
            "ER,melanoma,range,ten,90",
            "ER,melanoma,range",
            "ER,melanoma,range,90,10",
            "ER,melanoma,positive,5,",
            "pr,Breast  Carcinoma,negative,,",
            "ER,melanoma,range,-5,200",
            "ER,melanoma,point,101,101",
        ],
        ids=[
            "non-integer-bound",
            "short-row",
            "low-above-high",
            "bound-on-qualitative",
            "repeated-key",
            "range-outside-percent",  # loaded, displayed as -5-200 and scored WithinRange
            "point-outside-percent",
        ],
    )
    def test_malformed_reference_row_is_a_stage_failure(self, demo_env, tmp_path, capsys, row):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
        reference = tmp_path / "bad_reference.csv"
        reference.write_text(f"marker,tumour,kind,low,high\nPR,breast carcinoma,positive,,\n{row}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", "--run-dir", str(run_dir), "--reference", str(reference)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {reference}:3: ")

    def test_reference_with_a_byte_order_mark(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:6]:
            assert main(args) == 0
        report = (run_dir / "landscape_report.json").read_bytes()
        reference = tmp_path / "excel_reference.csv"  # Excel's "CSV UTF-8" export
        reference.write_bytes(codecs.BOM_UTF8 + demo_env.reference_file.read_bytes())
        assert main(["compare", "--run-dir", str(run_dir), "--reference", str(reference)]) == 0
        assert (run_dir / "landscape_report.json").read_bytes() == report


class TestReport:
    def test_marker_report_counts_only_aggregated_abstracts(self, tmp_path):
        run_dir = tmp_path / "run"
        store = RunStore.create(run_dir)
        records = [
            normalized("1"),
            normalized("2", flags=["invalid_count"]),
            normalized("3", tumour_cui=None, flags=["unmapped_tumour_type"]),
        ]
        store.write_stage_atomic("normalized", map(encode, records))
        store.close()
        assert main(["aggregate", "--run-dir", str(run_dir)]) == 0
        (run_dir / "comparison_report.csv").write_text("", encoding="utf-8")
        assert main(["report", "--run-dir", str(run_dir)]) == 0

        with (run_dir / "marker_report.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [
            {"marker": "ER", "n_abstracts": "1", "positives": "3", "cohort": "10", "positive_rate_percent": "30.0"}
        ]


def finish_run(demo_env, run_dir: Path) -> None:
    for args in demo_env.all_stage_args(run_dir):
        assert main(args) == 0, args


def stage_info(run_dir: Path, stage: str) -> dict:
    return json.loads((run_dir / "manifest.json").read_text())["stages"][stage]


def set_status(run_dir: Path, stage: str, status: str) -> None:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["stages"][stage]["status"] = status
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


QUARANTINED = {  # tag -> Include abstracts of the demo corpus the mock LLM fails under it
    "classify": ("8000001", "8000031"),
    "extract": ("8000002", "8000032"),
    "parse": ("8000004", "8000034"),
}
_TITLE_PMID = re.compile(r"\((\d+)\)")


def quarantine_under_every_tag(llm_state) -> None:
    """Unlabellable answers, empty completions and tableless answers for the ``QUARANTINED`` PMIDs."""
    classify_fn, extract_fn = llm_state.classify_fn, llm_state.extract_fn

    def asks_for(tag, content):
        return any(f"({pmid})" in content for pmid in QUARANTINED[tag])

    llm_state.classify_fn = lambda content: "maybe" if asks_for("classify", content) else classify_fn(content)
    llm_state.extract_fn = lambda content: (
        " " if asks_for("extract", content) else "no table here" if asks_for("parse", content) else extract_fn(content)
    )


def cut_inside_line(path: Path, index: int) -> None:
    """Keeps the lines before ``index`` and the first half of line ``index``, as a kill mid-write leaves it."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:index]) + lines[index][: len(lines[index]) // 2])


class TestResume:
    """Every record-wise stage resumes a killed run to the bytes of an uninterrupted one."""

    @pytest.mark.parametrize(
        "stage, tag, command, upstream",
        [
            ("classified", "classify", 1, "corpus"),
            ("tables_raw", "extract", 2, "classified"),
            ("tables_parsed", "parse", 2, None),  # parsing asks the LLM nothing
        ],
    )
    def test_killed_stage_resumes_to_the_uninterrupted_bytes(self, demo_env, tmp_path, stage, tag, command, upstream):
        quarantine_under_every_tag(demo_env.llm_state)
        control, killed = tmp_path / "control", tmp_path / "killed"
        for run_dir in (control, killed):
            for args in demo_env.all_stage_args(run_dir)[: command + 1]:
                assert main(args) == 0, args

        # killed after 3 records of the stage file, while writing the stage's last quarantine entry
        stage_file, quarantine = killed / f"{stage}.jsonl", killed / "quarantine.jsonl"
        entries = read_jsonl(quarantine)
        tagged = [i for i, entry in enumerate(entries) if entry["stage"] == tag]
        assert len(tagged) == len(QUARANTINED[tag])
        written = {r["pmid"] for r in read_jsonl(stage_file)[:3]} | {entries[i]["pmid"] for i in tagged[:-1]}
        cut_inside_line(stage_file, 3)
        cut_inside_line(quarantine, tagged[-1])
        set_status(killed, stage, "running")
        if stage == "tables_raw":  # parsing had not begun
            (killed / "tables_parsed.jsonl").unlink()
            set_status(killed, "tables_parsed", "pending")

        seen = len(demo_env.llm_state.requests)
        assert main(demo_env.all_stage_args(killed)[command]) == 0
        outputs = sorted(path.name for path in control.glob("*.jsonl") if path.name != "corpus.jsonl")  # timestamped
        assert outputs == sorted(path.name for path in killed.glob("*.jsonl") if path.name != "corpus.jsonl")
        for name in outputs:
            assert (killed / name).read_bytes() == (control / name).read_bytes(), name

        # the LLM is asked once for each upstream PMID not yet written, and never for a written one
        pending = set()
        if upstream:
            pending = {r["pmid"] for r in read_jsonl(control / f"{upstream}.jsonl") if r.get("label") != "Exclude"}
        prompts = [r["body"]["messages"][-1]["content"] for r in demo_env.llm_state.requests[seen:]]
        asked = [_TITLE_PMID.search(prompt).group(1) for prompt in prompts]
        assert sorted(asked) == sorted(pending - written)


def test_every_command_recovers_the_run_once_after_taking_its_lock(tmp_path, monkeypatch):
    events = []
    acquire, recover = RunLock.acquire, RunStore.recover
    monkeypatch.setattr(RunLock, "acquire", lambda self: events.append("lock") or acquire(self))
    monkeypatch.setattr(RunStore, "recover", lambda self: events.append("recover") or recover(self))
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"pmid": "1", "label": "Include"}\n', encoding="utf-8")
    assert main(["eval-classify", "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(gold)]) == 0
    assert events == ["lock", "recover"]


class TestProvenance:
    """Each stage records the inputs it was built from; the gate reuses, re-runs or refuses."""

    def test_aggregate_reruns_when_its_setting_changes(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        capsys.readouterr()
        assert main([*demo_env.aggregate_args(run_dir), "--split-qualifiers"]) == 0
        assert "aggregated into" in capsys.readouterr().out
        assert stage_info(run_dir, "aggregates")["inputs"]["split_qualifiers"] == "True"
        assert main(demo_env.compare_args(run_dir)) == 0

    def test_normalize_reruns_on_another_dictionary_and_compare_sees_it(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        other = tmp_path / "other.tsv"
        other.write_text(demo_env.dictionary_file.read_text().replace("\tER\t", "\tESR1\t"), encoding="utf-8")
        normalize = [a if a != str(demo_env.dictionary_file) else str(other) for a in demo_env.normalize_args(run_dir)]
        capsys.readouterr()
        assert main(normalize) == 0
        assert "normalized" in capsys.readouterr().out
        assert "ESR1" in {r["marker_name"] for r in read_jsonl(run_dir / "normalized.jsonl")}

        # the aggregates were built from the old normalized output
        assert main(demo_env.compare_args(run_dir)) == 2
        assert "aggregates was built from an earlier normalized; run aggregate" in capsys.readouterr().err
        assert main(demo_env.aggregate_args(run_dir)) == 0
        assert main(demo_env.compare_args(run_dir)) == 0
        with (run_dir / "comparison_report.csv").open() as handle:
            assert "ESR1" in {row["marker"] for row in csv.DictReader(handle)}

    def test_reports_go_when_aggregate_runs_again(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        other = tmp_path / "other.tsv"
        other.write_text(demo_env.dictionary_file.read_text().replace("\tER\t", "\tESR1\t"), encoding="utf-8")
        normalize = [a if a != str(demo_env.dictionary_file) else str(other) for a in demo_env.normalize_args(run_dir)]
        assert main(normalize) == 0
        assert main(demo_env.aggregate_args(run_dir)) == 0
        reports = ("comparison_report.csv", "landscape_report.json", "marker_report.csv")
        assert not any((run_dir / name).exists() for name in reports)  # each was built from the old aggregates
        assert main(demo_env.report_args(run_dir)) == 0  # before compare
        assert not (run_dir / "comparison_report.csv").exists()
        assert main(demo_env.compare_args(run_dir)) == 0
        for name in ("comparison_report.csv", "marker_report.csv"):
            with (run_dir / name).open() as handle:
                assert "ESR1" in {row["marker"] for row in csv.DictReader(handle)}, name

    def test_normalize_writing_the_same_bytes_leaves_what_follows_current(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        before = (run_dir / "normalized.jsonl").read_bytes()
        capsys.readouterr()
        assert main([*demo_env.normalize_args(run_dir), "--max-dist", "1e9"]) == 0  # flags no mapping
        assert "skipping" not in capsys.readouterr().out
        assert stage_info(run_dir, "normalized")["inputs"]["max_distance"] == "1000000000.0"
        assert (run_dir / "normalized.jsonl").read_bytes() == before
        assert main(demo_env.aggregate_args(run_dir)) == 0
        assert "aggregate: output already done; skipping" in capsys.readouterr().out
        assert main(demo_env.compare_args(run_dir)) == 0
        assert main(demo_env.report_args(run_dir)) == 0

    def test_normalize_reruns_on_another_max_distance(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        before = stage_info(run_dir, "normalized")
        capsys.readouterr()
        assert main([*demo_env.normalize_args(run_dir), "--max-dist", "1e-4"]) == 0
        assert "skipping" not in capsys.readouterr().out
        after = stage_info(run_dir, "normalized")
        assert before["inputs"]["max_distance"] == "None" and after["inputs"]["max_distance"] == "0.0001"
        assert after["inputs"]["dictionary_path"] == before["inputs"]["dictionary_path"]

    def test_normalize_on_a_warm_cache_hashes_the_dictionary_once(self, demo_env, tmp_path, monkeypatch):
        import ihcmine.normalize
        import ihcmine.provenance
        from ihcmine.provenance import file_sha256

        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)  # its normalize wrote the dictionary's cache entry
        hashed = []

        def counted(path):
            hashed.append(path)
            return file_sha256(path)

        monkeypatch.setattr(ihcmine.provenance, "file_sha256", counted)
        monkeypatch.setattr(ihcmine.normalize, "file_sha256", counted)
        assert main([*demo_env.normalize_args(run_dir), "--max-dist", "1e-4"]) == 0
        assert hashed == [str(demo_env.dictionary_file)]

    def test_dictionary_changed_after_the_gate_hashed_it_is_a_stage_failure(self, demo_env, tmp_path, monkeypatch, capsys):
        import ihcmine.provenance

        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0
        monkeypatch.setattr(ihcmine.provenance, "file_sha256", lambda path: "0" * 64)  # the digest of other bytes
        assert main(demo_env.normalize_args(run_dir)) == 2
        assert capsys.readouterr().err == f"error: {demo_env.dictionary_file}: changed while normalize ran\n"
        assert stage_info(run_dir, "normalized")["status"] != "done"

    def test_fetch_refuses_another_markers_file(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        other = tmp_path / "other_markers.txt"
        other.write_text("ER\nPR\n", encoding="utf-8")
        fetch = [a if a != str(demo_env.markers_file) else str(other) for a in demo_env.fetch_args(run_dir)]
        requests_before = len(demo_env.entrez_state.requests)
        assert main(fetch) == 2
        assert "error: corpus was built from other inputs (markers_path)" in capsys.readouterr().err
        assert len(demo_env.entrez_state.requests) == requests_before

    def test_classify_refuses_another_model(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        assert main([*demo_env.classify_args(run_dir), "--llm-model", "other"]) == 2
        assert "error: classified was built from other inputs (llm_model)" in capsys.readouterr().err

    def test_same_inputs_skip_every_stage(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        capsys.readouterr()
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
            assert "already done; skipping" in capsys.readouterr().out, args[0]

    def test_extract_refuses_an_interrupted_classify(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        lines = (run_dir / "classified.jsonl").read_text().splitlines(keepends=True)
        (run_dir / "classified.jsonl").write_text("".join(lines[:20]))
        set_status(run_dir, "classified", "running")
        assert main(demo_env.extract_args(run_dir)) == 2
        assert "classified is not done; run classify" in capsys.readouterr().err
        assert stage_info(run_dir, "tables_raw")["status"] == "pending"

        # once classify has finished, every Include abstract gets a table
        assert main(demo_env.classify_args(run_dir)) == 0
        assert main(demo_env.extract_args(run_dir)) == 0
        include = {c["pmid"] for c in read_jsonl(run_dir / "classified.jsonl") if c["label"] == "Include"}
        assert {t["pmid"] for t in read_jsonl(run_dir / "tables_raw.jsonl")} == include

    def test_normalize_refuses_an_interrupted_extract(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0
        set_status(run_dir, "tables_parsed", "running")
        assert main(demo_env.normalize_args(run_dir)) == 2
        assert "tables_parsed is not done; run extract" in capsys.readouterr().err
        assert not (run_dir / "normalized.jsonl").exists()

    def test_extract_refuses_a_classified_file_cut_after_classify_finished(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        lines = (run_dir / "classified.jsonl").read_text().splitlines(keepends=True)
        (run_dir / "classified.jsonl").write_text("".join(lines[:20]))
        assert main(demo_env.extract_args(run_dir)) == 2
        assert "error: classified.jsonl changed after classify finished it" in capsys.readouterr().err
        assert stage_info(run_dir, "tables_raw")["status"] == "pending"

    @pytest.mark.parametrize(
        "done, cut, producer, pending",
        [(2, "corpus", "fetch", "tables_raw"), (3, "classified", "classify", "normalized")],
        ids=["extract-after-corpus-cut", "normalize-after-classified-cut"],
    )
    def test_a_read_checks_every_stage_up_to_corpus(self, demo_env, tmp_path, capsys, done, cut, producer, pending):
        run_dir = tmp_path / "run"
        commands = demo_env.all_stage_args(run_dir)
        for args in commands[:done]:
            assert main(args) == 0
        lines = (run_dir / f"{cut}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (run_dir / f"{cut}.jsonl").write_text("".join(lines[:10]), encoding="utf-8")
        requests = len(demo_env.llm_state.requests)
        capsys.readouterr()
        assert main(commands[done]) == 2
        assert capsys.readouterr().err == f"error: {cut}.jsonl changed after {producer} finished it\n"
        assert len(demo_env.llm_state.requests) == requests
        assert stage_info(run_dir, pending)["status"] == "pending"

    def test_classify_refuses_its_own_file_cut_after_it_finished(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(demo_env.fetch_args(run_dir)) == 0
        assert main(demo_env.classify_args(run_dir)) == 0
        lines = (run_dir / "classified.jsonl").read_text().splitlines(keepends=True)
        (run_dir / "classified.jsonl").write_text("".join(lines[:20]))
        assert main(demo_env.classify_args(run_dir)) == 2  # it used to skip the stage as done
        assert "error: classified.jsonl changed after classify finished it" in capsys.readouterr().err
        assert len(read_jsonl(run_dir / "classified.jsonl")) == 20

    def test_normalize_rewrites_its_own_file_cut_after_it_finished(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:4]:
            assert main(args) == 0
        whole = (run_dir / "normalized.jsonl").read_bytes()
        (run_dir / "normalized.jsonl").write_bytes(b"".join(whole.splitlines(keepends=True)[:5]))
        capsys.readouterr()
        assert main(demo_env.normalize_args(run_dir)) == 0
        assert "already done" not in capsys.readouterr().out
        assert (run_dir / "normalized.jsonl").read_bytes() == whole
        assert main(demo_env.aggregate_args(run_dir)) == 0

    def test_normalize_refuses_a_line_appended_to_done_tables(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0
        first = (run_dir / "tables_parsed.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[0]
        with (run_dir / "tables_parsed.jsonl").open("a", encoding="utf-8") as handle:
            handle.write(first)  # a whole record: nothing for recovery to cut
        assert main(demo_env.normalize_args(run_dir)) == 2
        assert "error: tables_parsed.jsonl changed after extract finished it" in capsys.readouterr().err
        assert not (run_dir / "normalized.jsonl").exists()

    def test_manifest_without_inputs_counts_as_current(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config_hash"] = "abc123"
        manifest["prompt_template_hashes"] = {"classify": "h1", "extract": "h2"}
        for info in manifest["stages"].values():
            del info["inputs"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
            assert "already done; skipping" in capsys.readouterr().out, args[0]
        assert main(demo_env.compare_args(run_dir)) == 0
        assert main(demo_env.report_args(run_dir)) == 0

    def test_manifest_written_before_early_cutoff_resumes(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        stages = manifest["stages"]
        for name, spec in STAGES.items():
            if spec.upstream:  # recorded then as the sha256 of the upstream's inputs and output
                upstream = [stages[spec.upstream]["inputs"], stages[spec.upstream]["sha256"]]
                stages[name]["inputs"][spec.upstream] = hashlib.sha256(
                    json.dumps(upstream, sort_keys=True).encode("utf-8")
                ).hexdigest()
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        requests = len(demo_env.llm_state.requests)
        capsys.readouterr()
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
            assert "already done; skipping" in capsys.readouterr().out, args[0]
        assert main(demo_env.compare_args(run_dir)) == 0
        assert main(demo_env.report_args(run_dir)) == 0
        assert len(demo_env.llm_state.requests) == requests


COMMANDS = ("fetch", "classify", "extract", "normalize", "aggregate", "compare", "report", "eval-classify", "eval-tables")


class TestRunDirResolution:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_run_dir_is_required(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([command]) == 1
        assert "the following arguments are required: --run-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", [("file", "run"), ("file",)], ids=["under-a-file", "a-file"])
    def test_run_dir_that_cannot_be_a_directory(self, tmp_path, capsys, below):
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert main(["aggregate", "--run-dir", str(tmp_path.joinpath(*below))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(tmp_path / "file") in err

    def test_truncated_manifest_is_a_stage_failure(self, tmp_path, capsys):
        run_dir = tmp_path / "run-a"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text('{"run_id": ', encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"pmid": "1", "label": "Include"}\n', encoding="utf-8")
        assert main(["eval-classify", "--run-dir", str(run_dir), "--gold", str(gold), "--pred", str(gold)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(Path("run-a") / "manifest.json") in err


def args_of(argv: list[str]) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def dests(command: str) -> set[str]:
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in subcommands.choices[command]._actions}


class TestConfigFile:
    def test_flags_over_env_over_defaults(self, monkeypatch):
        monkeypatch.setenv("LLM_MODEL", "env")
        monkeypatch.setenv("EMB_MODEL", "emb-env")
        monkeypatch.setenv("ENTREZ_BASE_URL", "http://127.0.0.1:9")
        args = args_of(["classify", "--run-dir", "r", "--llm-model", "from-flag"])
        assert (args.llm_model, args.emb_model, args.llm_base_url) == ("from-flag", "emb-env", "http://localhost:8000")
        fetch = ["fetch", "--run-dir", "r"]
        assert (args_of([*fetch, "--cap", "25"]).cap, args_of(fetch).entrez_base_url) == (25, "http://127.0.0.1:9")
        monkeypatch.setenv("LLM_MODEL", "")
        assert args_of(["classify", "--run-dir", "r"]).llm_model == "default"

    def test_every_setting_has_a_flag(self):
        # a stage records the settings it was built from off its producer's parsed flags
        for stage, spec in STAGES.items():
            assert {*spec.settings, *spec.files} <= dests(spec.producer), stage

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_shows_no_key_from_the_environment(self, monkeypatch, capsys, command):
        monkeypatch.setenv("LLM_API_KEY", "llm-secret-key")
        monkeypatch.setenv("NCBI_API_KEY", "ncbi-secret-key")
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: ihcmine {command}") and "secret" not in out

    @pytest.mark.parametrize("key", ["abc\ndef", "abc\r\nX-Injected: 1"])  # no environment can hold a NUL
    def test_llm_api_key_in_the_environment_with_control_characters_rejected(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.setenv("LLM_API_KEY", key)
        assert main(["classify", "--run-dir", str(tmp_path / "run"), "--llm-base", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert err == "error: llm_api_key must not contain CR, LF or NUL\n"
        assert not (tmp_path / "run").exists()

    def test_at_file_reads_the_flags_it_holds(self, tmp_path):
        args_file = tmp_path / "llm.args"
        args_file.write_text(
            "# the local gateway\n\n--llm-base http://127.0.0.1:9 --llm-model 'my model'\n--retries 2  # fewer\n",
            encoding="utf-8",
        )
        run = ["classify", "--run-dir", str(tmp_path / "run")]
        from_file = args_of([*run, f"@{args_file}"])
        flags = ["--llm-base", "http://127.0.0.1:9", "--llm-model", "my model", "--retries", "2"]
        assert from_file == args_of([*run, *flags])
        assert from_file.llm_model == "my model"
        assert args_of([*run, f"@{args_file}", "--retries", "5"]).retries == 5  # a later flag wins
        assert args_of([*run, "--llm-key=@secret"]).llm_api_key == "@secret"  # not a file

    def test_at_file_is_utf_8_under_an_ascii_locale(self, tmp_path):
        args_file = tmp_path / "llm.args"
        args_file.write_text("--llm-model café\n", encoding="utf-8")
        code = "import sys; from ihcmine.cli import build_parser; print(ascii(build_parser().parse_args(sys.argv[1:]).llm_model))"
        env = {**os.environ, "PYTHONPATH": "src", "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        argv = [sys.executable, "-c", code, "classify", "--run-dir", "r", f"@{args_file}"]
        result = subprocess.run(argv, cwd=Path(__file__).parent.parent, env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout) == (0, ascii("café") + "\n"), result.stderr

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("fetch", b"--llm-base http://127.0.0.1:9\n", "unrecognized arguments: --llm-base"),
            ("classify", b"--llm-model 'my model\n", "No closing quotation"),
            ("classify", b"--llm-model \xff\n", "'utf-8' codec can't"),
            ("classify", None, "No such file"),
        ],
        ids=["flags-of-another-command", "unbalanced-quote", "not-utf-8", "missing"],
    )
    def test_at_file_refused_as_a_usage_error(self, tmp_path, capsys, command, content, message):
        args_file = tmp_path / "llm.args"
        if content is not None:
            args_file.write_bytes(content)
        assert main([command, "--run-dir", str(tmp_path / "run"), f"@{args_file}"]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert command == "fetch" or str(args_file) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [*((command, flag) for flag in ("--config", "--runs-root") for command in COMMANDS), ("fetch", "--batch-size")],
    )
    def test_deleted_settings_are_not_options(self, tmp_path, capsys, command, flag):
        gold = ["--gold", "g.jsonl"]
        required = {"normalize": ["--dictionary", "d.tsv"], "eval-classify": gold, "eval-tables": gold}.get(command, [])
        assert main([command, "--run-dir", str(tmp_path / "run"), *required, flag, "x"]) == 1
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            args_of(["fetch", "--run-dir", "r", "--cap", "10000"])

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["classify", "--retries=2.5"], 1, "ihcmine classify: argument --retries: invalid int value: '2.5'"),
            (["classify", "--concurrency=0"], 2, "error: llm_concurrency must be >= 1, got 0"),
            (["fetch", "--cap=0"], 2, "error: cap must be in [1, 9999], got 0"),
            (["normalize", "--max-dist=-1"], 2, "error: max_distance must be >= 0, got -1.0"),
        ],
    )
    def test_messages_of_refused_values(self, tmp_path, capsys, argv, code, message):
        command, flag = argv
        local = "--entrez-base" if command == "fetch" else "--llm-base"  # never a real endpoint
        assert main([command, "--run-dir", str(tmp_path / "run"), local, "http://127.0.0.1:9", flag]) == code
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--backoff", "-0.5", "backoff_base"),
            ("--timeout", "0", "timeout"),
            ("--timeout", "1e10", "timeout"),  # overflowed the socket's timeout
            ("--timeout", "86401", "timeout"),
            ("--rps", "1e-300", "requests_per_second"),  # overflowed the limiter's sleep
            ("--rps", "1e-5", "requests_per_second"),  # a window of 100000 s
            ("--retries", "0", "retries"),
            ("--retries", "1001", "retries"),  # the backoff of attempt 1025 overflowed a float
        ],
    )
    def test_entrez_and_transport_settings_bounded(self, tmp_path, capsys, flag, value, field):
        local = ["--entrez-base", "http://127.0.0.1:9", "--retries", "1"]  # never the real Entrez
        assert main(["fetch", "--run-dir", str(tmp_path / "run"), *local, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be") and "Traceback" not in err

    def test_page_size_is_not_an_option(self, tmp_path, capsys):
        # one esearch per marker answers every cap; PubMed returns up to 10,000 hits at once
        assert main(["fetch", "--run-dir", str(tmp_path / "run"), "--page-size", "40"]) == 1
        assert "unrecognized arguments: --page-size 40" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, flag, key",
        [
            ("eval-tables", "--wrong-f1", "wrong_f1_threshold"),
            ("eval-tables", "--row-sim", "row_similarity_threshold"),
            ("compare", "--positive-min", "positive_concordant_min"),
            ("compare", "--negative-max", "negative_concordant_max"),
            ("compare", "--near-band", "near_band_points"),
            ("compare", "--top-k", "top_k_tumours"),
        ],
    )
    def test_analysis_thresholds_are_not_settings(self, tmp_path, capsys, command, flag, key):
        # the concordance bands and the table verdict are constants in landscape and table_eval
        run_dir = str(tmp_path / "run")
        gold = ["--gold", "g.jsonl"] if command == "eval-tables" else []
        assert main([command, "--run-dir", run_dir, *gold, flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert all(key not in dests(c) for c in COMMANDS)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["abc\ndef", "abc\r\nX-Injected: 1", "abc\0def"])
    def test_llm_api_key_with_control_characters_rejected(self, tmp_path, capsys, key):
        # it used to reach http.client, whose ValueError ended a worker thread in a traceback
        argv = ["classify", "--run-dir", str(tmp_path / "run"), "--llm-base", "http://127.0.0.1:9", "--llm-key", key]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: llm_api_key must not contain CR, LF or NUL")
        assert "abc" not in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_backoff_sleep_capped_at_the_timeout(self, demo_env, tmp_path):
        demo_env.entrez_state.fail_next = 1
        fetch = [*demo_env.fetch_args(tmp_path / "run"), "--backoff", "1e20", "--timeout", "0.2", "--retries", "2"]
        start = time.monotonic()
        assert main(fetch) == 0  # 1e20 overflowed time.sleep; 1e8 slept for years
        assert time.monotonic() - start < 5.0
        assert demo_env.entrez_state.fail_next == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag, field",
        [
            ("fetch", "--rps", "requests_per_second"),
            ("fetch", "--backoff", "backoff_base"),
            ("fetch", "--timeout", "timeout"),
            ("normalize", "--max-dist", "max_distance"),
        ],
    )
    def test_non_finite_float_settings_rejected(self, tmp_path, capsys, command, flag, field, value):
        local = ["--entrez-base", "http://127.0.0.1:9", "--retries", "1"] if command == "fetch" else []
        assert main([command, "--run-dir", str(tmp_path / "run"), *local, f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {field} must be a finite number, got {value}\n"
        assert not (tmp_path / "run").exists()


class TestEvalCommands:
    def fabricate_predictions(self, gold_path: Path, out_path: Path, flip_include: int, flip_exclude: int):
        """Copy gold labels, flipping the first N of each class."""
        records = read_jsonl(gold_path)
        flipped = []
        include_seen = exclude_seen = 0
        for record in records:
            label = record["label"]
            if label == "Include" and include_seen < flip_include:
                label, include_seen = "Exclude", include_seen + 1
            elif label == "Exclude" and exclude_seen < flip_exclude:
                label, exclude_seen = "Include", exclude_seen + 1
            flipped.append({"pmid": record["pmid"], "label": label, "raw_output": label, "model_id": "m", "prompt_hash": "h"})
        out_path.write_text("".join(json.dumps(r) + "\n" for r in flipped), encoding="utf-8")

    def test_eval_classify_reproduces_reported_metrics(self, tmp_path):
        gold = Path(__file__).parent.parent / "data" / "gold_eval.jsonl"
        preds = tmp_path / "preds.jsonl"
        self.fabricate_predictions(gold, preds, flip_include=8, flip_exclude=9)
        run_dir = tmp_path / "run"
        exit_code = main(
            ["eval-classify", "--run-dir", str(run_dir), "--gold", str(gold), "--pred", str(preds)]
        )
        assert exit_code == 0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["accuracy_percent"] == "91.5"
        assert metrics["f1_percent"] == "91.4"
        assert (metrics["tp"], metrics["fp"], metrics["fn"], metrics["tn"]) == (90, 9, 8, 93)

    def test_eval_classify_missing_prediction_fails(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"pmid": "1", "label": "Include"}\n', encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        assert main(["eval-classify", "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(preds)]) == 2

    def test_eval_tables_on_fixture_pair(self, tmp_path):
        fixtures = Path(__file__).parent / "data" / "renal_s100a4"
        from ihcmine.tables import parse_markdown_table

        gold_table = parse_markdown_table((fixtures / "gold.md").read_text(), pmid="21691200")
        pred_table = parse_markdown_table((fixtures / "pred_correct.md").read_text(), pmid="21691200")
        gold_path = tmp_path / "gold.jsonl"
        pred_path = tmp_path / "pred.jsonl"
        gold_path.write_text(json.dumps(encode(gold_table)) + "\n", encoding="utf-8")
        pred_path.write_text(json.dumps(encode(pred_table)) + "\n", encoding="utf-8")
        abstracts = tmp_path / "corpus.jsonl"
        abstracts.write_text(
            json.dumps(
                {
                    "pmid": "21691200",
                    "title": "t",
                    "abstract_text": (fixtures / "abstract.txt").read_text(),
                    "source_markers": ["S100"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        run_dir = tmp_path / "run"
        exit_code = main(
            [
                "eval-tables",
                "--run-dir",
                str(run_dir),
                "--gold",
                str(gold_path),
                "--pred",
                str(pred_path),
                "--abstracts",
                str(abstracts),
            ]
        )
        assert exit_code == 0
        report = json.loads((run_dir / "eval_report.json").read_text())
        assert report["histogram"]["Correct"] == 1
        assert report["scores"][0]["exact"] is True

    def test_invalid_utf8_mid_file_is_a_stage_failure(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(b'{"pmid": "1", "label": "Include"}\n\xff\xfe\n{"pmid": "3", "label": "Exclude"}\n')
        assert main(["eval-classify", "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(gold)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gold.jsonl:2: corrupt record" in err

    @pytest.mark.parametrize(
        "command, cut",
        [
            ("eval-classify", "--gold"),
            ("eval-classify", "--pred"),
            ("eval-tables", "--gold"),
            ("eval-tables", "--pred"),
            ("eval-tables", "--abstracts"),
        ],
    )
    def test_cut_last_line_of_an_eval_input_fails(self, tmp_path, capsys, command, cut):
        """An input file is not the run's own, so no recovery step may mend it: a cut last line is an error."""
        records = [
            {"pmid": pmid, "label": "Include", "header": [], "rows": [], "title": "t", "abstract_text": "a",
             "source_markers": ["ER"]}
            for pmid in ("1", "2", "3")
        ]
        lines = [json.dumps(record) + "\n" for record in records]
        files = {flag: tmp_path / f"{flag[2:]}.jsonl" for flag in ("--gold", "--pred", "--abstracts")}
        for path in files.values():
            path.write_text("".join(lines), encoding="utf-8")
        # the last line cut inside a multibyte character, as a killed writer leaves it
        files[cut].write_bytes("".join(lines[:2]).encode("utf-8") + '{"pmid": "3", "note": "caf\u00e9'.encode("utf-8")[:-1])
        args = [command, "--run-dir", str(tmp_path / "r"), "--gold", str(files["--gold"]), "--pred", str(files["--pred"])]
        if command == "eval-tables":
            args += ["--abstracts", str(files["--abstracts"])]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{files[cut].name}:3: corrupt record" in err

    @pytest.mark.parametrize(
        "command, gold_lines, message",
        [
            ("eval-classify", ['{"pmid": "1", "label": "Include"}', '{"pmid": "2", "lab', '{"pmid": "3", "label": "Exclude"}'],
             ":2: corrupt record"),
            ("eval-classify", ['{"pmid": "1", "label": "Include"}', '{"pmid": "2", "label": "Maybe"}'],
             "'Maybe' is not a valid ClassificationLabel"),
            ("eval-classify", ['{"pmid": "1", "label": "Include"}', '{"label": "Exclude"}'],
             "missing required key 'pmid'"),
            ("eval-tables", ['{"pmid": "1", "header": [], "rows": []}', '{"pm', '{"pmid": "3", "header": [], "rows": []}'],
             ":2: corrupt record"),
            ("eval-tables", ['{"header": ["Tumor type", "Tumor site"], "rows": []}'],
             "ProfileTable: missing required key 'pmid'"),
            ("eval-tables", ['{"pmid": 1, "header": ["Tumor type", "Tumor site"], "rows": []}'],
             "ProfileTable.pmid: expected str, got 1"),
            ("eval-tables", ['{"pmid": "1", "header": ["Tumor type", "Tumor site"], '
                             '"rows": [{"tumour_type": 7, "tumour_site": "NA", "cells": {}}]}'],
             "ProfileRow.tumour_type: expected str, got 7"),
            ("eval-tables", ['{"pmid": "1", "header": ["Tumor type", "Tumor site", "ER"], '
                             '"rows": [{"tumour_type": "melanoma", "tumour_site": "NA", "cells": {"ER": 3}}]}'],
             "ProfileRow.cells: expected str, got 3"),
            ("eval-tables", ['{"pmid": "1", "header": "Tumor type", "rows": []}'],
             "ProfileTable.header: expected list, got 'Tumor type'"),
        ],
        ids=["classify-corrupt-mid-file", "classify-unknown-label", "classify-missing-pmid",
             "tables-corrupt-mid-file", "tables-missing-pmid", "tables-integer-pmid",
             "tables-non-string-tumour-type", "tables-non-string-cell", "tables-string-header"],
    )
    def test_malformed_gold_is_a_stage_failure(self, tmp_path, capsys, command, gold_lines, message):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        assert main([command, "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(preds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gold}") and message in err

    @pytest.mark.parametrize("command", ["eval-classify", "eval-tables"])
    def test_repeated_pmid_in_an_eval_input_fails(self, tmp_path, capsys, command):
        """A gold file holding a PMID twice would be scored on one of its lines; it is refused instead."""
        records = [
            {"pmid": pmid, "label": label, "header": ["Tumor type", "Tumor site"], "rows": [], "title": "t",
             "abstract_text": "a", "source_markers": ["ER"]}
            for pmid, label in (("1", "Include"), ("1", "Exclude"), ("2", "Exclude"))
        ]
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
        unique = tmp_path / "unique.jsonl"
        unique.write_text("".join(json.dumps(record) + "\n" for record in records[1:]), encoding="utf-8")
        args = [command, "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(unique)]
        if command == "eval-tables":
            args += ["--abstracts", str(unique)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {gold}: PMID 1 appears more than once\n"


def test_benchmark_tracer_hooks_resolve():
    """perfbench/tracer.py patches ihcmine names by getattr; a rename breaks ``--trace 1``."""
    root = Path(__file__).parent.parent
    code = "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install(tracer.Tracer(stage='x'))"
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
