"""Client for chat-completions and embeddings endpoints, plus prompt templates.

The wire schema is the de facto chat-completions JSON (model / messages /
max_tokens / temperature, answer in choices[0].message.content), so any
local or hosted server that speaks it works. Payloads are serialized
canonically so identical requests produce byte-identical bodies.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .domain import AbstractRecord
from .errors import EmptyOutputError, GatewayError, GatewayProtocolError, ValidationError
from .transport import RETRYABLE_STATUS, HttpTransport, TransportError

PROMPTS = {"classify": ("classify_v1.txt", 4), "extract": ("extract_v1.txt", 1024)}  # template file, token budget
SYSTEM_PROMPT = "You are a careful biomedical text mining assistant."

_PROMPT_DIR = Path(__file__).parent / "prompts"


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values)):
            raise ValidationError("embedding contains non-finite values")

    @property
    def dim(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values) -> "EmbeddingVector":
        return cls(tuple(map(float, values)))


@functools.cache
def _load_template(path: Path) -> tuple[str, str]:
    """(text, sha256) from one read, so the text sent always matches the hash recorded."""
    data = path.read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def template_hash(prompt: str) -> str:
    """The sha256 of the template file of ``prompt``, a key of ``PROMPTS``."""
    return _load_template(_PROMPT_DIR / PROMPTS[prompt][0])[1]


def _body(payload: dict) -> bytes:
    """Canonical request body; identical requests serialize identically."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


class LlmGateway:
    """Thread-safe chat and embeddings client.

    Callers may invoke chat()/embed() from many threads; each thread keeps
    its own keep-alive connection, and the caller's pool bounds how many
    requests are in flight.
    """

    def __init__(
        self,
        llm_base_url: str,
        model_id: str = "default",
        emb_base_url: str | None = None,
        emb_model_id: str | None = None,
        api_key: str | None = None,
        retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 60.0,
    ) -> None:
        self.llm_base_url = llm_base_url.rstrip("/")
        self.model_id = model_id
        self.emb_base_url = (emb_base_url or llm_base_url).rstrip("/")
        self.emb_model_id = emb_model_id or model_id
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._http = HttpTransport(retries, backoff_base, timeout)

    def close(self) -> None:
        """Closes the connections of every thread that used this gateway."""
        self._http.close()

    def _post(self, url: str, body: bytes) -> dict:
        failed = f"request to {url} failed after {self._http.retries} attempts"
        try:
            status, data = self._http.request("POST", url, body, self._headers)
        except TransportError as exc:
            raise GatewayError(f"{failed}: {exc}") from exc
        if status in RETRYABLE_STATUS:
            raise GatewayError(f"{failed}: HTTP {status} from {url}")
        if status != 200:
            raise GatewayError(f"HTTP {status} from {url}: {data.decode('utf-8', 'replace')[:200]}")
        try:
            return json.loads(data)
        except ValueError as exc:
            raise GatewayProtocolError(f"non-JSON response from {url}") from exc

    def chat(self, prompt: str, record: AbstractRecord) -> str:
        """The first completion's text for ``record`` under ``prompt`` (a key of ``PROMPTS``), trimmed at the end.

        The request carries this gateway's model, temperature 0 and the prompt's token budget.
        """
        if not record.abstract_text:
            raise ValidationError(f"record {record.pmid} has no abstract text")
        template, max_tokens = PROMPTS[prompt]
        user = _load_template(_PROMPT_DIR / template)[0]
        user = user.replace("{{TITLE}}", record.title).replace("{{ABSTRACT}}", record.abstract_text)
        messages = [{"role": "system", "content": SYSTEM_PROMPT}, {"role": "user", "content": user}]
        payload = {"model": self.model_id, "messages": messages, "max_tokens": max_tokens, "temperature": 0.0}
        data = self._post(self.llm_base_url + "/v1/chat/completions", _body(payload))
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayProtocolError(f"unexpected chat response shape: {data!r:.200}") from exc
        if text is None:
            raise EmptyOutputError("completion content was null")
        if not isinstance(text, str):
            raise GatewayProtocolError(f"chat content is not text: {text!r:.200}")
        try:
            text.encode("utf-8")  # a lone surrogate escape decodes as JSON but cannot be stored
        except UnicodeEncodeError as exc:
            raise GatewayProtocolError(f"chat content is not UTF-8 text: {exc}") from None
        text = text.rstrip()
        if not text:
            raise EmptyOutputError("completion was empty")
        return text

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        """One vector per input, order preserved, uniform dimension; the answer must index the inputs 0..n-1."""
        if not texts:
            raise ValidationError("embed() needs at least one text")
        if any(not t for t in texts):
            raise ValidationError("embed() inputs must be non-empty strings")
        payload = {"model": self.emb_model_id, "input": list(texts)}
        data = self._post(self.emb_base_url + "/v1/embeddings", _body(payload))
        try:
            items = sorted(data["data"], key=lambda item: item["index"])
            indices = [item["index"] for item in items]
            embeddings = [item["embedding"] for item in items]
            if not all(type(e) is list and {*map(type, e)} <= {int, float} for e in embeddings):  # not '12', {} or [true]
                raise TypeError("an embedding is not an array of numbers")
            vectors = [EmbeddingVector.of(e) for e in embeddings]
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:  # what float() or the vector refuse
            raise GatewayProtocolError(f"unexpected embeddings response ({exc}): {data!r:.200}") from exc
        if any(type(i) is not int for i in indices) or indices != list(range(len(texts))):  # not True, not 1.0
            raise GatewayProtocolError(f"asked for {len(texts)} embeddings, got indices {indices!r:.200}")
        dims = {v.dim for v in vectors}
        if len(dims) > 1:
            raise GatewayProtocolError(f"embedding dimensions differ within one batch: {sorted(dims)}")
        return vectors
