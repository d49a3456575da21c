"""Whole-chain metamorphic relations on the in-process demo chain.

Each test runs the chain, changes one input in a way that must not change
the results, and compares the files the changed chain writes.
"""

import hashlib
import itertools
import json
from collections import Counter

import numpy as np

from ihcmine.cli import main

from test_acceptance import run_chain

REPORTS = ["aggregates.jsonl", "corpus_stats.json", "landscape_report.json", "comparison_report.csv", "marker_report.csv"]
RECORD_FILES = ["corpus.jsonl", "classified.jsonl", "tables_raw.jsonl", "tables_parsed.jsonl", "normalized.jsonl"]


def test_permuted_markers_file_writes_the_same_reports_and_records(demo_env, tmp_path):
    """Relation 1: the order of the markers file changes only the order of the record-wise files."""
    given = tmp_path / "given"
    run_chain(demo_env, given)
    markers = demo_env.markers_file.read_text(encoding="utf-8").split()
    for order in itertools.islice(itertools.permutations(markers), 1, None):
        demo_env.markers_file.write_text("".join(f"{m}\n" for m in order), encoding="utf-8")
        permuted = tmp_path / "-".join(order)
        run_chain(demo_env, permuted)
        for name in REPORTS:
            assert (permuted / name).read_bytes() == (given / name).read_bytes(), (order, name)
        for name in RECORD_FILES:
            lines = Counter((permuted / name).read_bytes().splitlines())
            assert lines == Counter((given / name).read_bytes().splitlines()), (order, name)


def test_farther_dictionary_rows_leave_normalized_unchanged(demo_env, tmp_path):
    """Relation 4: rows farther from every surface's vector than its current match change no match.

    Every demo surface is a dictionary name, embedded to that entry's vector, so its match is at
    distance 0. New rows sit one ulp off each entry, under CUIs that sort before every demo CUI and
    so would win a tie, and far outside the unit cube that every vector of the demo lies in.
    """
    run_dir = tmp_path / "run"
    run_chain(demo_env, run_dir)
    normalized = (run_dir / "normalized.jsonl").read_bytes()
    for line in normalized.splitlines():
        record = json.loads(line)
        assert record["tumour_type"] == record["tumour_type_name"] and record["base_marker"] == record["marker_name"]
        assert record["tumour_site"] == record["tumour_site_name"]

    rows = demo_env.dictionary_file.read_text(encoding="utf-8").splitlines()
    near, far = [], []
    for i, row in enumerate(rows, start=1):
        _, name, kind, vector = row.split("\t")
        values = [float(v) for v in vector.split(",")]
        values[i % len(values)] = float(np.nextafter(values[i % len(values)], np.inf))
        near.append(f"C{i:07d}\t{name}\t{kind}\t{','.join(map(repr, values))}")
        far.append(f"C{i:07d}\tfar {name}\talias\t{','.join(repr(v - 4.0) for v in values)}")
    demo_env.dictionary_file.write_text("\n".join(near + rows[:4] + far + rows[4:]) + "\n", encoding="utf-8")
    assert main(demo_env.normalize_args(run_dir)) == 0  # the dictionary changed, so normalize runs again

    stage = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]["normalized"]
    assert stage["status"] == "done"
    assert stage["inputs"]["dictionary_path"] == hashlib.sha256(demo_env.dictionary_file.read_bytes()).hexdigest()
    assert (run_dir / "normalized.jsonl").read_bytes() == normalized
