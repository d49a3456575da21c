#!/usr/bin/env python3
"""Run the whole pipeline end to end against local mock servers.

Creates demo_run/ in the current directory with every stage artifact, using
a 50-abstract synthetic corpus, a deterministic mock LLM, and a hash-based
mock embedder. Useful as a smoke test and as a worked example of the CLI.

Usage: python scripts/demo_pipeline.py [workdir]
"""

from __future__ import annotations

import sys
from contextlib import ExitStack
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from ihcmine.cli import main  # noqa: E402
from mockservers import (  # noqa: E402
    LlmState,
    demo_entrez_state,
    run_entrez,
    run_llm,
    write_demo_dictionary,
    write_demo_reference,
)


def run(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    markers = workdir / "markers.txt"
    markers.write_text("ER\nPR\nCD34\n", encoding="utf-8")
    dictionary = workdir / "dictionary.tsv"
    write_demo_dictionary(dictionary)
    reference = workdir / "reference.csv"
    write_demo_reference(reference)
    run_dir = workdir / "demo_run"

    with ExitStack() as stack:
        entrez_url = stack.enter_context(run_entrez(demo_entrez_state(n=50)))
        llm_url = stack.enter_context(run_llm(LlmState()))
        common = ["--run-dir", str(run_dir)]
        llm_args = workdir / "llm.args"  # the flags the three LLM stages share, read where @llm.args stands
        llm_args.write_text(f"# the mock gateway\n--llm-base {llm_url}\n--backoff 0.01\n", encoding="utf-8")
        gateway = [f"@{llm_args}"]
        stages = [
            ["fetch", *common, "--markers", str(markers), "--entrez-base", entrez_url,
             "--rps", "200", "--backoff", "0.01"],
            ["classify", *common, *gateway],
            ["extract", *common, *gateway],
            ["normalize", *common, *gateway, "--dictionary", str(dictionary)],
            ["aggregate", *common],
            ["compare", *common, "--reference", str(reference)],
            ["report", *common],
        ]
        for args in stages:
            print(f"$ ihcmine {' '.join(args)}")
            code = main(args)
            if code != 0:
                return code

    print("\nartifacts:")
    for path in sorted(run_dir.iterdir()):
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_workspace")
    sys.exit(run(target))
