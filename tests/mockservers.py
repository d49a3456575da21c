"""Threaded localhost mock servers: Entrez e-utils, chat completions, embeddings.

Every behavior is deterministic so pipeline runs against these mocks are
byte-reproducible: classification answers depend only on the prompt text,
extraction builds a table from sentences of the form
"<marker> was positive in X/Y cases of <tumour> (<site>).", and embeddings
are hashes of the input text.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

_STATEMENT_RE = re.compile(
    r"\b([A-Z][A-Za-z0-9]*) was positive in (\d+)/(\d+) cases of ([a-z][a-z ]*) \(([a-z][a-z ]*)\)"
)
_COUNT_RE = re.compile(r"\d+\s*/\s*\d+")


def fake_embedding(text: str, dim: int = 8) -> list[float]:
    """Deterministic unit-cube vector derived from the text hash."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    while len(digest) < 4 * dim:
        digest += hashlib.sha256(digest).digest()
    return [int.from_bytes(digest[4 * i : 4 * i + 4], "big") / 2**32 for i in range(dim)]


# -- shared server behaviour ------------------------------------------------------


@dataclass
class ServerState:
    """What both mocks share: connection handling and 429 throttling.

    By default a mock speaks HTTP/1.0 and closes each connection after one
    answer. ``keep_alive`` makes it speak HTTP/1.1 and keep connections
    open; ``drop_idle`` then closes each one after an answer without saying
    so, as a server's idle timeout would. ``connections`` counts accepted
    connections. ``throttle_next`` answers that many requests with 429 and
    a ``Retry-After: <retry_after>`` header.
    """

    keep_alive: bool = False
    drop_idle: bool = False
    connections: int = 0
    throttle_next: int = 0
    retry_after: str = "0"
    _lock: threading.Lock = field(default_factory=threading.Lock)


class _MockHandler(BaseHTTPRequestHandler):
    def setup(self) -> None:
        super().setup()
        state: ServerState = self.server.state
        with state._lock:
            state.connections += 1
        if state.keep_alive:
            self.protocol_version = "HTTP/1.1"

    def handle_one_request(self) -> None:
        super().handle_one_request()
        if self.server.state.drop_idle:
            self.close_connection = True

    def log_message(self, *args) -> None:
        pass

    def _throttled(self) -> bool:
        """Answers 429 with Retry-After if the state asks for it; True if it did."""
        state: ServerState = self.server.state
        with state._lock:
            if state.throttle_next <= 0:
                return False
            state.throttle_next -= 1
        self.send_response(429)
        self.send_header("Retry-After", state.retry_after)
        self.send_header("Content-Length", "0")
        self.end_headers()
        return True


# -- Entrez -------------------------------------------------------------------


@dataclass
class EntrezState(ServerState):
    markers: dict[str, list[str]] = field(default_factory=dict)
    articles: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    explicit_pages: dict[str, list[list[str]]] = field(default_factory=dict)
    fail_next: int = 0
    requests: list[tuple[float, str, str]] = field(default_factory=list)
    _page_calls: dict[str, int] = field(default_factory=dict)


class _EntrezHandler(_MockHandler):
    def _send(self, body: str, status: int = 200, content_type: str = "text/xml") -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        state: EntrezState = self.server.state
        parsed = urlparse(self.path)
        with state._lock:
            state.requests.append((time.monotonic(), parsed.path, parsed.query))
        if self._throttled():
            return
        with state._lock:
            if state.fail_next > 0:
                state.fail_next -= 1
                self._send("boom", status=500)
                return
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        if parsed.path.endswith("/esearch.fcgi"):
            self._do_esearch(state, params)
        elif parsed.path.endswith("/efetch.fcgi"):
            self._do_efetch(state, params)
        else:
            self._send("not found", status=404)

    def _do_esearch(self, state: EntrezState, params: dict[str, str]) -> None:
        term = params.get("term", "")
        marker = term.split(" ")[0] if term else ""
        retstart = int(params.get("retstart", "0"))
        retmax = int(params.get("retmax", "20"))
        if marker in state.explicit_pages:
            pages = state.explicit_pages[marker]
            with state._lock:
                call = state._page_calls.get(marker, 0)
                state._page_calls[marker] = call + 1
            ids = pages[call] if call < len(pages) else []
            count = sum(len(p) for p in pages)
        else:
            all_ids = state.markers.get(marker, [])
            ids = all_ids[retstart : retstart + retmax]
            count = len(all_ids)
        id_xml = "".join(f"<Id>{pmid}</Id>" for pmid in ids)
        self._send(
            f"<eSearchResult><Count>{count}</Count><RetMax>{len(ids)}</RetMax>"
            f"<RetStart>{retstart}</RetStart><IdList>{id_xml}</IdList></eSearchResult>"
        )

    def _do_efetch(self, state: EntrezState, params: dict[str, str]) -> None:
        pmids = [p for p in params.get("id", "").split(",") if p]
        articles = []
        for pmid in pmids:
            if pmid not in state.articles:
                continue
            title, abstract = state.articles[pmid]
            abstract_xml = (
                f"<Abstract><AbstractText>{abstract}</AbstractText></Abstract>" if abstract else ""
            )
            articles.append(
                f"<PubmedArticle><MedlineCitation><PMID>{pmid}</PMID>"
                f"<Article><ArticleTitle>{title}</ArticleTitle>{abstract_xml}</Article>"
                f"</MedlineCitation></PubmedArticle>"
            )
        self._send(f"<PubmedArticleSet>{''.join(articles)}</PubmedArticleSet>")


# -- chat completions + embeddings ---------------------------------------------


def default_classify(content: str) -> str:
    return "Include" if _COUNT_RE.search(content) else "Exclude"


def default_extract(content: str) -> str:
    statements = _STATEMENT_RE.findall(content)
    if not statements:
        return "No table could be produced from this abstract."
    marker = statements[0][0].strip()
    lines = [f"| Tumor type | Tumor site | {marker} |", "| --- | --- | --- |"]
    for _, positives, total, tumour, site in statements:
        lines.append(f"| {tumour.strip()} | {site.strip()} | {positives}/{total} |")
    return "\n".join(lines)


@dataclass
class LlmState(ServerState):
    classify_fn: object = default_classify
    extract_fn: object = default_extract
    emb_dim: int = 8
    delay: float = 0.0
    fail_next: int = 0
    empty_next: int = 0
    mixed_dims: bool = False
    requests: list[dict] = field(default_factory=list)
    active: int = 0
    max_active: int = 0


class _LlmHandler(_MockHandler):
    def _send_json(self, payload: dict, status: int = 200) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        state: LlmState = self.server.state
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        with state._lock:
            state.requests.append({"path": self.path, "body": body, "ts": time.monotonic()})
        if self._throttled():
            return
        with state._lock:
            if state.fail_next > 0:
                state.fail_next -= 1
                self._send_json({"error": "boom"}, status=500)
                return
            state.active += 1
            state.max_active = max(state.max_active, state.active)
        try:
            if state.delay:
                time.sleep(state.delay)
            if self.path.endswith("/embeddings"):
                texts = body["input"]
                data = []
                for i, text in enumerate(texts):
                    dim = state.emb_dim + (i % 2) if state.mixed_dims else state.emb_dim
                    data.append({"index": i, "embedding": fake_embedding(text, dim)})
                self._send_json({"data": data, "model": body.get("model", "")})
                return
            content = body["messages"][-1]["content"]
            with state._lock:
                if state.empty_next > 0:
                    state.empty_next -= 1
                    self._send_json({"choices": [{"message": {"role": "assistant", "content": "  "}}]})
                    return
            if "Answer with exactly one word" in content:
                text = state.classify_fn(content)
            else:
                text = state.extract_fn(content)
            self._send_json({"choices": [{"message": {"role": "assistant", "content": text}}]})
        finally:
            with state._lock:
                state.active -= 1


@contextmanager
def run_server(handler_cls, state):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    server.state = state
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def run_entrez(state: EntrezState):
    with run_server(_EntrezHandler, state) as url:
        yield url


@contextmanager
def run_llm(state: LlmState):
    with run_server(_LlmHandler, state) as url:
        yield url


# -- demo corpus for end-to-end runs ---------------------------------------------

DEMO_TUMOURS = [("melanoma", "skin"), ("breast carcinoma", "breast"), ("colon adenocarcinoma", "colon")]
DEMO_MARKERS = ("ER", "PR", "CD34")
DEMO_CONCEPTS = {
    "melanoma": "C0025202",
    "breast carcinoma": "C0678222",
    "colon adenocarcinoma": "C0338106",
    "skin": "C1123023",
    "breast": "C0006141",
    "colon": "C0009368",
    "ER": "C0034804",
    "PR": "C0034833",
    "CD34": "C0054964",
}


def demo_entrez_state(n: int = 50) -> EntrezState:
    """Overlapping per-marker PMID lists over a corpus of n synthetic abstracts."""
    pmids = [str(8000001 + i) for i in range(n)]
    third = max(n // 3, 1)
    state = EntrezState(
        markers={
            "ER": pmids[: 2 * third],
            "PR": pmids[third : 2 * third + third // 2],
            "CD34": pmids[2 * third :],
        }
    )
    marker_of = {}
    for marker in DEMO_MARKERS:
        for pmid in state.markers[marker]:
            marker_of.setdefault(pmid, marker)
    for i, pmid in enumerate(pmids):
        marker = marker_of[pmid]
        if i % 3 == 2:
            title = f"A review of staining practice ({pmid})"
            abstract = (
                "This review surveys immunohistochemical staining practice across laboratories "
                "and summarises methodology without reporting cohort counts."
            )
        else:
            tumour, site = DEMO_TUMOURS[i % len(DEMO_TUMOURS)]
            positives = (i % 6) + 1
            total = positives + (i % 4)
            title = f"{marker} expression in {tumour} ({pmid})"
            abstract = (
                f"We examined {total} cases of {tumour}. "
                f"{marker} was positive in {positives}/{total} cases of {tumour} ({site})."
            )
        state.articles[pmid] = (title, abstract)
    return state


def write_demo_dictionary(path, dim: int = 8) -> None:
    lines = []
    for name, cui in DEMO_CONCEPTS.items():
        vector = ",".join(repr(v) for v in fake_embedding(name, dim))
        lines.append(f"{cui}\t{name}\tcanonical\t{vector}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_demo_reference(path) -> None:
    path.write_text(
        "marker,tumour,kind,low,high\n"
        "ER,melanoma,range,10,90\n"
        "PR,breast carcinoma,positive,,\n"
        "CD34,colon adenocarcinoma,no_data,,\n",
        encoding="utf-8",
    )
