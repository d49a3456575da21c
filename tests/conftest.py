import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from mockservers import (
    EntrezState,
    LlmState,
    demo_entrez_state,
    run_entrez,
    run_llm,
    write_demo_dictionary,
    write_demo_reference,
)

# HYPOTHESIS_PROFILE=ci runs every property test without its own example count on ten
# times the default; print_blob lets a CI failure be replayed locally.
settings.register_profile("ci", max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """A per-test XDG cache home, so no test reads or writes cache entries in the real home directory."""
    path = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(path))
    return path


@dataclass
class DemoEnv:
    root: Path
    entrez_url: str
    llm_url: str
    entrez_state: EntrezState
    llm_state: LlmState
    markers_file: Path
    dictionary_file: Path
    reference_file: Path

    def base_args(self, run_dir: Path) -> list[str]:
        return ["--run-dir", str(run_dir)]

    def fetch_args(self, run_dir: Path) -> list[str]:
        return [
            "fetch",
            *self.base_args(run_dir),
            "--markers",
            str(self.markers_file),
            "--entrez-base",
            self.entrez_url,
            "--rps",
            "500",
            "--backoff",
            "0.01",
        ]

    def classify_args(self, run_dir: Path) -> list[str]:
        return ["classify", *self.base_args(run_dir), "--llm-base", self.llm_url, "--backoff", "0.01"]

    def extract_args(self, run_dir: Path) -> list[str]:
        return ["extract", *self.base_args(run_dir), "--llm-base", self.llm_url, "--backoff", "0.01"]

    def normalize_args(self, run_dir: Path) -> list[str]:
        return [
            "normalize",
            *self.base_args(run_dir),
            "--llm-base",
            self.llm_url,
            "--dictionary",
            str(self.dictionary_file),
            "--backoff",
            "0.01",
        ]

    def aggregate_args(self, run_dir: Path) -> list[str]:
        return ["aggregate", *self.base_args(run_dir)]

    def compare_args(self, run_dir: Path) -> list[str]:
        return ["compare", *self.base_args(run_dir), "--reference", str(self.reference_file)]

    def report_args(self, run_dir: Path) -> list[str]:
        return ["report", *self.base_args(run_dir)]

    def all_stage_args(self, run_dir: Path) -> list[list[str]]:
        return [
            self.fetch_args(run_dir),
            self.classify_args(run_dir),
            self.extract_args(run_dir),
            self.normalize_args(run_dir),
            self.aggregate_args(run_dir),
            self.compare_args(run_dir),
            self.report_args(run_dir),
        ]


@pytest.fixture
def demo_env(tmp_path):
    with contextlib.ExitStack() as stack:
        entrez_state = demo_entrez_state(n=50)
        llm_state = LlmState()
        entrez_url = stack.enter_context(run_entrez(entrez_state))
        llm_url = stack.enter_context(run_llm(llm_state))
        markers_file = tmp_path / "markers.txt"
        markers_file.write_text("ER\nPR\nCD34\n", encoding="utf-8")
        dictionary_file = tmp_path / "dictionary.tsv"
        write_demo_dictionary(dictionary_file)
        reference_file = tmp_path / "reference.csv"
        write_demo_reference(reference_file)
        yield DemoEnv(
            root=tmp_path,
            entrez_url=entrez_url,
            llm_url=llm_url,
            entrez_state=entrez_state,
            llm_state=llm_state,
            markers_file=markers_file,
            dictionary_file=dictionary_file,
            reference_file=reference_file,
        )
