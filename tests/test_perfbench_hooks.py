"""The names the benchmark's tracer patches must exist in ihcmine.

``perfbench/tracer.py`` wraps ihcmine's functions by name before it runs a
traced stage, so renaming or deleting one of them breaks every traced
benchmark run. This check installs the tracer in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def test_tracer_installs_on_every_name_it_patches():
    pytest.importorskip("requests")  # the tracer hooks requests' HTTP calls
    code = "import sys; sys.path.insert(0, 'perfbench'); import tracer; tracer.install(tracer.Tracer('probe'))"
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
