"""Subcommand wiring: exit codes, stage ordering errors, artifacts, config handling."""

import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ihcmine.cli import main
from ihcmine.codec import encode
from ihcmine.config import build_config, load_config_file
from ihcmine.errors import ConfigError
from ihcmine.normalize import NormalizedRecord
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

    def test_report_requires_compare(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:5]:
            assert main(args) == 0
        assert main(demo_env.report_args(run_dir)) == 2
        assert "comparison_report.csv not found; run compare" in capsys.readouterr().err


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

        demo_env.llm_state.classify_fn = original_fn
        assert main([*demo_env.classify_args(run_dir), "--retry-quarantined"]) == 0
        assert read_jsonl(run_dir / "quarantine.jsonl") == []
        classified = read_jsonl(run_dir / "classified.jsonl")
        assert victim in {c["pmid"] for c in classified}
        assert len(classified) == 50

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
        ["ER,melanoma,range,ten,90", "ER,melanoma,range", "ER,melanoma,range,90,10", "ER,melanoma,positive,5,"],
        ids=["non-integer-bound", "short-row", "low-above-high", "bound-on-qualitative"],
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

    def test_compare_thresholds_need_no_new_run(self, demo_env, tmp_path):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        assert main([*demo_env.compare_args(run_dir), "--top-k", "3"]) == 0
        assert main([*demo_env.compare_args(run_dir), "--near-band", "10"]) == 0

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

    def test_report_after_a_new_aggregate_needs_compare(self, demo_env, tmp_path, capsys):
        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)
        other = tmp_path / "other.tsv"
        other.write_text(demo_env.dictionary_file.read_text().replace("\tER\t", "\tESR1\t"), encoding="utf-8")
        normalize = [a if a != str(demo_env.dictionary_file) else str(other) for a in demo_env.normalize_args(run_dir)]
        assert main(normalize) == 0
        assert main(demo_env.aggregate_args(run_dir)) == 0
        reports = ("comparison_report.csv", "landscape_report.json", "marker_report.csv")
        assert not any((run_dir / name).exists() for name in reports)  # each was built from the old aggregates
        capsys.readouterr()
        assert main(demo_env.report_args(run_dir)) == 2
        assert "comparison_report.csv not found; run compare" in capsys.readouterr().err
        assert main(demo_env.compare_args(run_dir)) == 0
        assert main(demo_env.report_args(run_dir)) == 0
        for name in ("comparison_report.csv", "marker_report.csv"):
            with (run_dir / name).open() as handle:
                assert "ESR1" in {row["marker"] for row in csv.DictReader(handle)}, name

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
        import ihcmine.cli
        import ihcmine.normalize
        from ihcmine.store import file_sha256

        run_dir = tmp_path / "run"
        finish_run(demo_env, run_dir)  # its normalize wrote the dictionary's cache entry
        hashed = []

        def counted(path):
            hashed.append(path)
            return file_sha256(path)

        monkeypatch.setattr(ihcmine.cli, "file_sha256", counted)
        monkeypatch.setattr(ihcmine.normalize, "file_sha256", counted)
        assert main([*demo_env.normalize_args(run_dir), "--max-dist", "1e-4"]) == 0
        assert hashed == [str(demo_env.dictionary_file)]

    def test_dictionary_changed_after_the_gate_hashed_it_is_a_stage_failure(self, demo_env, tmp_path, monkeypatch, capsys):
        import ihcmine.cli

        run_dir = tmp_path / "run"
        for args in demo_env.all_stage_args(run_dir)[:3]:
            assert main(args) == 0
        monkeypatch.setattr(ihcmine.cli, "file_sha256", lambda path: "0" * 64)  # the digest of other bytes
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


class TestRunDirResolution:
    def test_same_config_reuses_directory_new_config_forces_new_one(self, demo_env, tmp_path):
        runs_root = tmp_path / "runs"
        fetch = [a for a in demo_env.fetch_args(tmp_path / "ignored") if a != "--run-dir" and a != str(tmp_path / "ignored")]
        assert main([*fetch, "--runs-root", str(runs_root)]) == 0
        dirs = sorted(runs_root.iterdir())
        assert len(dirs) == 1

        # every command but fetch uses the newest run
        classify = [a for a in demo_env.classify_args(tmp_path / "ignored") if a != "--run-dir" and a != str(tmp_path / "ignored")]
        assert main([*classify, "--runs-root", str(runs_root)]) == 0
        assert sorted(runs_root.iterdir()) == dirs
        assert (dirs[0] / "classified.jsonl").exists()

        # fetch with other corpus inputs creates a new run
        assert main([*fetch, "--runs-root", str(runs_root), "--cap", "25"]) == 0
        assert len(list(runs_root.iterdir())) == 2

    def test_commands_after_fetch_need_a_run(self, tmp_path, capsys):
        assert main(["aggregate", "--runs-root", str(tmp_path / "runs")]) == 2
        assert "no run under" in capsys.readouterr().err

    def test_truncated_manifest_is_a_stage_failure(self, tmp_path, capsys):
        runs_root = tmp_path / "runs"
        (runs_root / "run-a").mkdir(parents=True)
        (runs_root / "run-a" / "manifest.json").write_text('{"run_id": ', encoding="utf-8")
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"pmid": "1", "label": "Include"}\n', encoding="utf-8")
        assert main(["eval-classify", "--runs-root", str(runs_root), "--gold", str(gold), "--pred", str(gold)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(Path("run-a") / "manifest.json") in err


class TestConfigFile:
    def test_values_loaded_and_flags_win(self, tmp_path):
        config_file = tmp_path / "pipeline.conf"
        config_file.write_text("cap = 50\nllm_model = local-model\n# comment\n", encoding="utf-8")
        config = build_config(flag_values={"cap": 25}, config_path=config_file, env={})
        assert config.cap == 25  # flag wins
        assert config.llm_model == "local-model"

    def test_env_below_config_file(self, tmp_path):
        config_file = tmp_path / "pipeline.conf"
        config_file.write_text("llm_model = from-file\n", encoding="utf-8")
        config = build_config(config_path=config_file, env={"LLM_MODEL": "from-env"})
        assert config.llm_model == "from-file"
        config = build_config(env={"LLM_MODEL": "from-env"})
        assert config.llm_model == "from-env"

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "pipeline.conf"
        config_file.write_text("caps = 50\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(config_file)

    def test_validation_bounds(self):
        with pytest.raises(ConfigError):
            build_config(flag_values={"cap": 10_000}, env={})
        with pytest.raises(ConfigError):
            build_config(flag_values={"wrong_f1_threshold": 1.5}, env={})

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--page-size", "0", "esearch_page_size"),
            ("--page-size", "10000", "esearch_page_size"),
            ("--batch-size", "0", "efetch_batch_size"),
            ("--batch-size", "501", "efetch_batch_size"),
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
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_boolean_coercion(self, tmp_path):
        config_file = tmp_path / "pipeline.conf"
        config_file.write_text("split_qualifiers = true\n", encoding="utf-8")
        assert build_config(config_path=config_file, env={}).split_qualifiers is True


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
        gold_path.write_text(json.dumps(gold_table.to_dict()) + "\n", encoding="utf-8")
        pred_path.write_text(json.dumps(pred_table.to_dict()) + "\n", encoding="utf-8")
        abstracts = tmp_path / "corpus.jsonl"
        abstracts.write_text(
            json.dumps(
                {
                    "pmid": "21691200",
                    "title": "t",
                    "abstract_text": (fixtures / "abstract.txt").read_text(),
                    "source_markers": ["S100"],
                    "retrieved_at": "",
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
             "source_markers": ["ER"], "retrieved_at": ""}
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
             "KeyError: 'pmid'"),
        ],
        ids=["classify-corrupt-mid-file", "classify-unknown-label", "classify-missing-pmid",
             "tables-corrupt-mid-file", "tables-missing-pmid"],
    )
    def test_malformed_gold_is_a_stage_failure(self, tmp_path, capsys, command, gold_lines, message):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(line + "\n" for line in gold_lines), encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        assert main([command, "--run-dir", str(tmp_path / "r"), "--gold", str(gold), "--pred", str(preds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_benchmark_tracer_hooks_resolve():
    """perfbench/tracer.py patches ihcmine names by getattr; a rename breaks ``--trace 1``."""
    root = Path(__file__).parent.parent
    code = "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install(tracer.Tracer(stage='x'))"
    env = {**os.environ, "PYTHONPATH": "src"}
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
