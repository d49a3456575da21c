"""Output checks of one chain against the generator's ground truth.

Each check has a name and returns (passed, detail). ``KNOWN_DEFECTS`` names
checks that are reported but do not decide correctness, because ROADMAP
records the defect they expose; they stay in so the fix shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

KNOWN_DEFECTS = {
    "marker_report_n_abstracts": "marker_report.csv counts abstracts whose records aggregate dropped (ROADMAP defect)",
}
_TIMESTAMPS = ("created_at", "started_at", "finished_at")


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def artifact_digest(run_dir: Path) -> str:
    """Hash of every artifact, ignoring fetch and manifest timestamps."""
    digest = hashlib.sha256()
    for path in sorted(p for p in run_dir.iterdir() if p.is_file() and p.name != ".lock"):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in _TIMESTAMPS:
                manifest.pop(key, None)
            for info in manifest.get("stages", {}).values():
                for key in _TIMESTAMPS:
                    info.pop(key, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        elif path.name == "corpus.jsonl":
            rows = [{k: v for k, v in d.items() if k != "retrieved_at"} for d in _jsonl(path)]
            data = json.dumps(rows, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def outcomes(run_dir: Path) -> int:
    """Corpus PMIDs with a final outcome: labelled, and tabulated if Include."""
    parsed = {d["pmid"] for d in _jsonl(run_dir / "tables_parsed.jsonl")}
    return sum(
        1
        for d in _jsonl(run_dir / "classified.jsonl")
        if d["label"] == "Exclude" or d["pmid"] in parsed
    )


def run_checks(run_dir: Path, truth: dict) -> dict[str, tuple[bool, str]]:
    results: dict[str, tuple[bool, str]] = {}

    corpus = {d["pmid"]: sorted(d["source_markers"]) for d in _jsonl(run_dir / "corpus.jsonl")}
    results["corpus"] = (
        corpus == truth["source_markers"],
        f"{len(corpus)} unique PMIDs, expected {len(truth['pmids'])}",
    )

    classified = {d["pmid"]: d["label"] for d in _jsonl(run_dir / "classified.jsonl")}
    include = sorted(p for p, label in classified.items() if label == "Include")
    results["include_set"] = (
        set(classified) == set(truth["pmids"]) and include == truth["include"],
        f"{len(classified)} labelled, {len(include)} Include, expected {len(truth['include'])}",
    )

    quarantine = sorted((q["stage"], q["pmid"]) for q in _jsonl(run_dir / "quarantine.jsonl"))
    expected_q = sorted(("parse", p) for p in truth["parse_quarantined"])
    results["quarantine"] = (quarantine == expected_q, f"{len(quarantine)} left, expected {len(expected_q)}")

    aggregates = sorted(
        [a["marker_cui"], a["tumour_cui"], a["positives"], a["total"]]
        for a in _jsonl(run_dir / "aggregates.jsonl")
    )
    results["aggregates"] = (
        aggregates == truth["aggregates"],
        f"{len(aggregates)} (marker, tumour) pairs, expected {len(truth['aggregates'])}",
    )

    metrics_path = run_dir / "metrics.json"
    metrics = json.loads(metrics_path.read_text()) if metrics_path.exists() else {}
    results["eval_classify"] = (
        metrics.get("accuracy_percent") == "100.0" and metrics.get("n") == len(truth["pmids"]),
        f"accuracy {metrics.get('accuracy_percent')}% over n={metrics.get('n')}",
    )

    report_path = run_dir / "eval_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    histogram = report.get("histogram", {})
    results["eval_tables"] = (
        bool(report) and histogram.get("Correct") == report.get("count"),
        f"histogram {histogram}",
    )

    wrong = []
    rows = []
    report_csv = run_dir / "marker_report.csv"
    if report_csv.exists():
        with report_csv.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    for row in rows:
        expected = truth["marker_abstracts"].get(truth["marker_cuis"].get(row["marker"], ""), 0)
        if int(row["n_abstracts"]) != expected:
            wrong.append(f"{row['marker']}: {row['n_abstracts']} != {expected}")
    results["marker_report_n_abstracts"] = (
        bool(rows) and not wrong,
        f"{len(wrong)} of {len(rows)} markers differ" + (f" ({'; '.join(wrong[:3])})" if wrong else ""),
    )
    return results
