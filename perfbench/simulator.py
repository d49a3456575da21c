"""Endpoint simulator: Entrez e-utils, chat completions and embeddings on loopback.

Runs as its own process so its CPU stays out of the pipeline's rusage. It
serves the world written by ``generate.py``. Entrez answers at once; every
chat and embedding request takes the workload's ``llm_ms``. It injects the
workload's 503s keyed by a hash of the request body, answers the first
classify prompt of the abstracts the generator chose with an unparseable
label, and counts what a paid endpoint would bill. It shares no code with
the test suite's mock servers, so editing those cannot shift a baseline.

Usage: python perfbench/simulator.py WORLD_JSON
Prints ``PORT <n>`` once listening. Control endpoints, not counted:
``GET /_stats``, ``POST /_reset``, ``POST /_quit``.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse
from xml.sax.saxutils import escape

_REF_RE = re.compile(r"\[ref (\d+)\]")
_QUERY_SUFFIX = " immunohisto*"
LLM_KINDS = ("classify", "extract", "embed")
ENTREZ_KINDS = ("esearch", "efetch")
BAD_LABEL = "Unsure."


def _hash(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _tokens(text: str) -> int:
    return len(text.split())


def _unknown_vector(text: str, dim: int) -> list[float]:
    """A real embedder embeds any text; unknown surfaces get a hash-derived vector."""
    out: list[float] = []
    block = text.encode("utf-8")
    while len(out) < dim:
        block = hashlib.sha256(block).digest()
        out.extend(b / 255.0 - 0.5 for b in block)
    return out[:dim]


class _Busy:
    """Time during which at least one request of a group is in flight."""

    def __init__(self) -> None:
        self.active = 0
        self.peak = 0
        self.since = 0.0
        self.total = 0.0

    def enter(self, now: float) -> None:
        if self.active == 0:
            self.since = now
        self.active += 1
        self.peak = max(self.peak, self.active)

    def leave(self, now: float) -> None:
        self.active -= 1
        if self.active == 0:
            self.total += now - self.since


class Simulator:
    def __init__(self, world: dict):
        self.world = world
        w = world["workload"]
        self.llm_s = w["llm_ms"] / 1000.0
        self.faults = w["faults"]
        self.bad_label = set(world["bad_label"])
        self.dim = w["dim"]
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: dict[int, int] = {}
            self.answered: set[int] = set()
            self.requests = {k: 0 for k in ENTREZ_KINDS + LLM_KINDS}
            self.service_s = {k: 0.0 for k in ENTREZ_KINDS + LLM_KINDS}
            self.busy = {k: _Busy() for k in ENTREZ_KINDS + LLM_KINDS + ("llm", "entrez")}
            self.counts = {
                "retries": 0,
                "http_503": 0,
                "bad_labels": 0,
                "efetch_ids": 0,
                "prompt_tokens": 0,
                "completion_tokens": 0,
                "embed_input_tokens": 0,
            }

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "service_s": dict(self.service_s),
                "peak_in_flight": {k: b.peak for k, b in self.busy.items()},
                "busy_s": {k: b.total for k, b in self.busy.items()},
                **self.counts,
            }

    def begin(self, kind: str, key: bytes) -> tuple[int, int]:
        """Count one request; returns (body hash, earlier sightings of the body)."""
        h = _hash(key)
        group = "llm" if kind in LLM_KINDS else "entrez"
        with self.lock:
            sightings = self.seen.get(h, 0)
            self.seen[h] = sightings + 1
            if sightings:
                self.counts["retries"] += 1
            self.requests[kind] += 1
            now = time.monotonic()
            self.busy[kind].enter(now)
            self.busy[group].enter(now)
        return h, sightings

    def end(self, kind: str, started: float) -> None:
        group = "llm" if kind in LLM_KINDS else "entrez"
        with self.lock:
            now = time.monotonic()
            self.service_s[kind] += now - started
            self.busy[kind].leave(now)
            self.busy[group].leave(now)

    def inject_503(self, h: int, sightings: int) -> bool:
        if sightings == 0 and h % 1000 < self.faults["http_503_per_mille"]:
            with self.lock:
                self.counts["http_503"] += 1
            return True
        return False

    # -- responses -----------------------------------------------------------

    def esearch(self, params: dict[str, str]) -> str:
        term = params.get("term", "")
        marker = term[: -len(_QUERY_SUFFIX)] if term.endswith(_QUERY_SUFFIX) else term
        retstart = int(params.get("retstart", "0"))
        retmax = int(params.get("retmax", "20"))
        pmids = self.world["markers"].get(marker, [])
        ids = "".join(f"<Id>{p}</Id>" for p in pmids[retstart : retstart + retmax])
        body = (
            f"<eSearchResult><Count>{len(pmids)}</Count><RetMax>{retmax}</RetMax>"
            f"<RetStart>{retstart}</RetStart><IdList>{ids}</IdList></eSearchResult>"
        )
        return body

    def efetch(self, params: dict[str, str]) -> str:
        ids = [p for p in params.get("id", "").split(",") if p]
        articles = self.world["articles"]
        parts = []
        for pmid in ids:
            if pmid in articles:
                title, abstract = articles[pmid]
                parts.append(
                    f"<PubmedArticle><MedlineCitation><PMID>{pmid}</PMID><Article>"
                    f"<ArticleTitle>{escape(title)}</ArticleTitle>"
                    f"<Abstract><AbstractText>{escape(abstract)}</AbstractText></Abstract>"
                    f"</Article></MedlineCitation></PubmedArticle>"
                )
        with self.lock:
            self.counts["efetch_ids"] += len(ids)
        return f"<PubmedArticleSet>{''.join(parts)}</PubmedArticleSet>"

    def chat(self, kind: str, body: dict, h: int) -> dict | None:
        prompt = " ".join(str(m.get("content", "")) for m in body.get("messages", []))
        match = _REF_RE.search(prompt)
        if match is None:
            return None
        pmid = match.group(1)
        if kind == "classify":
            text = self.world["labels"].get(pmid)
            with self.lock:
                first_answer = h not in self.answered
                self.answered.add(h)
            if first_answer and pmid in self.bad_label:
                text = BAD_LABEL
                with self.lock:
                    self.counts["bad_labels"] += 1
        else:
            text = self.world["completions"].get(pmid)
        if text is None:
            return None
        prompt_tokens, completion_tokens = _tokens(prompt), _tokens(text)
        with self.lock:
            self.counts["prompt_tokens"] += prompt_tokens
            self.counts["completion_tokens"] += completion_tokens
        return {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
        }

    def embed(self, body: dict) -> dict:
        texts = body.get("input", [])
        if isinstance(texts, str):
            texts = [texts]
        vectors = self.world["vectors"]
        data = [
            {"index": i, "embedding": vectors.get(t) or _unknown_vector(t, self.dim)} for i, t in enumerate(texts)
        ]
        with self.lock:
            self.counts["embed_input_tokens"] += sum(_tokens(t) for t in texts)
        return {"data": data, "model": body.get("model", "")}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    wbufsize = 1 << 16  # one write per response

    def setup(self) -> None:
        super().setup()
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args) -> None:
        pass

    def _send(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _json(self, payload: dict, status: int = 200) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    def do_GET(self) -> None:
        sim: Simulator = self.server.sim
        parsed = urlparse(self.path)
        if parsed.path == "/_stats":
            self._json(sim.stats())
            return
        kind = "esearch" if parsed.path.endswith("/esearch.fcgi") else "efetch"
        if not parsed.path.endswith(f"/{kind}.fcgi"):
            self._send(404, b"not found", "text/plain")
            return
        started = time.monotonic()
        h, sightings = sim.begin(kind, self.path.encode("utf-8"))
        try:
            if sim.inject_503(h, sightings):
                self._send(503, b"busy", "text/plain")
                return
            params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
            body = sim.esearch(params) if kind == "esearch" else sim.efetch(params)
            self._send(200, body.encode("utf-8"), "text/xml")
        finally:
            sim.end(kind, started)

    def do_POST(self) -> None:
        sim: Simulator = self.server.sim
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        if self.path == "/_reset":
            sim.reset()
            self._json({"ok": True})
            return
        if self.path == "/_quit":
            self._json({"ok": True})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path.endswith("/v1/embeddings"):
            kind = "embed"
        elif self.path.endswith("/v1/chat/completions"):
            body = json.loads(raw)
            kind = "classify" if int(body.get("max_tokens", 0)) <= 16 else "extract"
        else:
            self._send(404, b"not found", "text/plain")
            return
        started = time.monotonic()
        h, sightings = sim.begin(kind, self.path.encode("utf-8") + raw)
        try:
            if sim.inject_503(h, sightings):
                self._json({"error": "overloaded"}, status=503)
                return
            body = json.loads(raw)
            payload = sim.embed(body) if kind == "embed" else sim.chat(kind, body, h)
            if payload is None:
                self._json({"error": "prompt carries no known reference"}, status=400)
                return
            if sim.llm_s:
                time.sleep(sim.llm_s)
            self._json(payload)
        finally:
            sim.end(kind, started)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[0], encoding="utf-8") as handle:
        world = json.load(handle)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.sim = Simulator(world)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
