"""The process entry: ``python -m ihcmine`` and the ``ihcmine`` console script.

Almost every other test calls ``ihcmine.cli.main`` in-process. These run the
entry as a stage process does, with stdout and stderr piped, so what the
entry does around ``main`` (its collector policy, then ``sys.exit``) is
checked: exit codes, every byte of output and every artifact.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ihcmine.cli import main

ROOT = Path(__file__).parent.parent


def console_script_target() -> tuple[str, str]:
    """(module, function) that ``[project.scripts]`` names for ``ihcmine``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^ihcmine = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    return module, function


def entry_commands() -> dict[str, list[str]]:
    module, function = console_script_target()
    script = f"import sys; from {module} import {function}; sys.exit({function}())"  # what an installer generates
    return {"python -m ihcmine": [sys.executable, "-m", "ihcmine"], "ihcmine": [sys.executable, "-c", script]}


def run_entry(command: list[str], args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([*command, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def artifacts(run_dir: Path) -> dict[str, object]:
    """Every file of a run, timestamps aside."""
    found: dict[str, object] = {}
    for path in sorted(run_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text(encoding="utf-8"))
            del manifest["created_at"]
            for info in manifest["stages"].values():
                del info["started_at"], info["finished_at"]
            found[path.name] = manifest
        else:
            found[path.name] = path.read_bytes()
    return found


def test_console_script_calls_the_entry_of_python_m():
    assert console_script_target() == ("ihcmine.__main__", "run")


def test_demo_chain_through_the_process_entry_matches_an_in_process_run(demo_env, tmp_path, capsys):
    in_process, piped = tmp_path / "in-process" / "run", tmp_path / "piped" / "run"
    expected = []
    for args in demo_env.all_stage_args(in_process):
        assert main(args) == 0, args
        expected.append(capsys.readouterr().out.replace(str(in_process), str(piped)))
    for args, out in zip(demo_env.all_stage_args(piped), expected):
        done = run_entry(entry_commands()["python -m ihcmine"], args, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == out and out.count("\n") == 1  # the stage's one summary line
    assert artifacts(piped) == artifacts(in_process)


@pytest.mark.parametrize("entry", ["python -m ihcmine", "ihcmine"])
def test_exit_codes_and_help_through_a_pipe(entry, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal width, and a pipe has none
    command = entry_commands()[entry]
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    done = run_entry(command, ["--help"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, help_text, "")
    assert "eval-tables" in done.stdout

    done = run_entry(command, ["flarb"], tmp_path)
    assert done.returncode == 1 and "invalid choice: 'flarb'" in done.stderr

    done = run_entry(command, ["report", "--run-dir", str(tmp_path / "run")], tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: aggregates.jsonl not found; run aggregate\n"


def test_entry_sets_the_collector_policy_and_exit_hooks_still_run(tmp_path):
    code = (
        "import atexit, gc, ihcmine.cli, ihcmine.__main__ as entry\n"
        "ihcmine.cli.main = lambda: print(gc.get_threshold() == entry._GC_THRESHOLD) or 3\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, end=''))\n"
        "entry.run()\n"
    )
    done = run_entry([sys.executable, "-c", code], [], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (3, "True\nTrue", "")


def test_main_in_process_leaves_the_collector_alone(demo_env, tmp_path):
    import ihcmine.__main__  # noqa: F401  importing the entry changes nothing either

    before = gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()
    assert main(["--help"]) == 0
    assert main(["flarb"]) == 1
    assert main(demo_env.fetch_args(tmp_path / "run")) == 0
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == 2
    assert (gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()) == before
