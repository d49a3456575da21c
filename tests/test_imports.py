"""Which heavy dependencies a stage process loads.

Each stage runs as its own ``python -m ihcmine <stage>`` process, so what
``ihcmine.cli`` imports is paid on every stage start. numpy belongs to
normalize alone. requests belongs to no stage: every endpoint is called
through ``ihcmine.transport``, which frames HTTP/1.1 itself on ``socket``,
so a plain-HTTP stage without a proxy variable loads neither
``http.client``, ``urllib.request``, ``email`` nor ``ssl``. The other modules
below belong to the commands that use them. Each check runs in a fresh
interpreter, so modules that pytest or other tests imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ihcmine.cli import main
from ihcmine.codec import encode
from ihcmine.domain import NormalizedRecord
from ihcmine.store import RunStore
from ihcmine.tables import parse_markdown_table

from mockservers import ScriptedState, run_scripted

ROOT = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "data" / "renal_s100a4"


HEAVY = ("numpy", "requests")
PER_COMMAND = (
    "ihcmine.classify",
    "ihcmine.landscape",
    "ihcmine.table_eval",
    "concurrent.futures",
    "xml.etree.ElementTree",
    "fractions",
)
HTTP_CLIENT = ("http.client", "urllib.request", "email.parser", "ssl")


def heavy_modules_after(code: str, watched=HEAVY) -> list[str]:
    """Runs ``code`` in a new interpreter; returns which of the ``watched`` modules it left loaded."""
    script = code + f"\nimport json, sys; print(json.dumps(sorted(set({list(watched)!r}) & set(sys.modules))))"
    # without proxy variables: one loads urllib.request on purpose
    env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_neither():
    assert heavy_modules_after("import ihcmine.cli") == []


def test_cli_import_loads_no_command_module():
    assert heavy_modules_after("import ihcmine.cli", HEAVY + PER_COMMAND) == []


def test_normalize_loads_numpy_but_not_requests():
    assert heavy_modules_after("import ihcmine.normalize") == ["numpy"]


def test_stages_that_call_no_endpoint_load_neither(tmp_path):
    run_dir = tmp_path / "run"
    record = NormalizedRecord(
        pmid="1",
        tumour_type="melanoma",
        tumour_type_cui="C0000010",
        tumour_type_name="melanoma",
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
    )
    with RunStore.create(run_dir) as store:
        store.write_stage_atomic("normalized", [encode(record)])
    reference = tmp_path / "reference.csv"
    reference.write_text("marker,tumour,kind,low,high\nER,melanoma,range,10,90\n", encoding="utf-8")
    table = parse_markdown_table((FIXTURES / "gold.md").read_text(), pmid="21691200")
    tables = tmp_path / "tables.jsonl"
    tables.write_text(json.dumps(encode(table)) + "\n", encoding="utf-8")
    abstract = {
        "pmid": "21691200",
        "title": "t",
        "abstract_text": (FIXTURES / "abstract.txt").read_text(),
        "source_markers": ["S100"],
    }
    abstracts = tmp_path / "corpus.jsonl"
    abstracts.write_text(json.dumps(abstract) + "\n", encoding="utf-8")
    gold_labels = ROOT / "data" / "gold_eval.jsonl"

    run = ["--run-dir", str(run_dir)]
    landscape_commands = [["aggregate", *run], ["compare", *run, "--reference", str(reference)], ["report", *run]]
    eval_classify = [["eval-classify", *run, "--gold", str(gold_labels), "--pred", str(gold_labels)]]
    eval_tables = [["eval-tables", *run, "--gold", str(tables), "--pred", str(tables), "--abstracts", str(abstracts)]]
    for commands, not_loaded in [
        (landscape_commands, ("ihcmine.classify", "ihcmine.table_eval")),
        (eval_classify, ("ihcmine.table_eval",)),
        (eval_tables, ("ihcmine.classify",)),
    ]:
        code = f"from ihcmine.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0, argv"
        assert heavy_modules_after(code, HEAVY + not_loaded) == [], commands[0][0]
    assert (run_dir / "marker_report.csv").exists() and (run_dir / "eval_report.json").exists()


def test_stages_that_call_endpoints_never_load_requests(demo_env, tmp_path):
    commands = demo_env.all_stage_args(tmp_path / "run")[:4]
    assert [argv[0] for argv in commands] == ["fetch", "classify", "extract", "normalize"]
    code = f"from ihcmine.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0, argv"
    assert heavy_modules_after(code, HEAVY + HTTP_CLIENT) == ["numpy"]


def test_classify_and_extract_load_no_fractions(demo_env, tmp_path):
    fetch, classify, extract = demo_env.all_stage_args(tmp_path / "run")[:3]
    assert main(fetch) == 0
    code = f"from ihcmine.cli import main\nfor argv in {[classify, extract]!r}:\n    assert main(argv) == 0, argv"
    assert heavy_modules_after(code, ("fractions", "decimal")) == []


@pytest.mark.parametrize(
    "proxy_variables, loaded",
    [({}, []), ({"http_proxy": "http://127.0.0.1:9", "no_proxy": "127.0.0.1"}, sorted(HTTP_CLIENT))],
)
def test_plain_http_request_loads_no_http_client(proxy_variables, loaded):
    """Only a proxy variable brings in urllib.request, and with it http.client, email and ssl."""
    state = ScriptedState([[b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"]])
    with run_scripted(state) as url:
        code = (
            f"import os\nos.environ.update({proxy_variables!r})\n"
            f"from ihcmine.transport import HttpTransport\ntransport = HttpTransport(1, 0.01, 5.0)\n"
            f"assert transport.request('GET', {url!r} + '/') == (200, b'ok')\ntransport.close()"
        )
        assert heavy_modules_after(code, HTTP_CLIENT) == loaded
