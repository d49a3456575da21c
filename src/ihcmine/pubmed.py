"""Entrez e-utils client: per-marker search, PMID dedup, batched abstract fetch.

Requests share one sliding-window budget per client, NCBI's policy as it
states it: at most 3 request starts in any one-second window without an API
key, 10 with one. Every attempt, retries included, counts against the window.
``transport`` retries transport errors and 429/5xx. PMIDs without an
abstract body are skipped, not errors.
"""

from __future__ import annotations

import logging
import math
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence
from urllib.parse import urlencode

from .domain import AbstractRecord
from .errors import EntrezParseError, IngestError, ValidationError
from .transport import MAX_WAIT_S, RETRYABLE_STATUS, HttpTransport, TransportError

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils"
QUERY_SUFFIX = "immunohisto*"
MAX_CAP = 9999
RPS_WITHOUT_KEY = 3.0
RPS_WITH_KEY = 10.0


@dataclass
class CorpusStats:
    per_marker_counts: dict[str, int] = field(default_factory=dict)
    total_unique: int = 0


class RateLimiter:
    """Sliding-window request budget shared by all endpoints of one client.

    With n = max(1, floor(rate)), a request starts when fewer than n requests
    started in the last n / rate seconds; otherwise it sleeps until the oldest
    of the last n starts is one window old. At 3 and 10 req/s that is at most
    rate starts in any one-second window; at any rate the long-run rate is
    ``rate``. The lock is held while a caller sleeps, so waiting callers start
    one after another.
    """

    def __init__(self, rate_per_second: float):
        if not (math.isfinite(rate_per_second) and rate_per_second > 0):
            raise ValidationError(f"rate must be positive and finite, got {rate_per_second}")
        n = min(max(1, int(rate_per_second)), sys.maxsize)
        self.window = n / rate_per_second
        if self.window > MAX_WAIT_S:  # a longer sleep overflows time.sleep, or lasts for years
            raise ValidationError(f"rate {rate_per_second} gives a {self.window:g} s window, over {MAX_WAIT_S:g} s")
        self._starts: deque[float] = deque(maxlen=n)
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            if len(self._starts) == self._starts.maxlen:
                wait = self._starts[0] + self.window - now
                if wait > 0:
                    time.sleep(wait)
                    now = time.monotonic()
            self._starts.append(now)


class EntrezClient:
    """esearch/efetch client for the PubMed XML schema."""

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        api_key: str | None = None,
        requests_per_second: float | None = None,
        batch_size: int = 200,
        retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 60.0,
    ) -> None:
        if not 1 <= batch_size <= 500:
            raise ValidationError(f"batch_size must be in [1, 500], got {batch_size}")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        rate = requests_per_second if requests_per_second is not None else (
            RPS_WITH_KEY if api_key else RPS_WITHOUT_KEY
        )
        self.limiter = RateLimiter(rate)
        self.batch_size = batch_size
        self._http = HttpTransport(retries, backoff_base, timeout)

    def close(self) -> None:
        """Closes the connections of every thread that used this client."""
        self._http.close()

    def _get(self, endpoint: str, params: dict[str, Any], context: str) -> bytes:
        if self.api_key:
            params = {**params, "api_key": self.api_key}
        url = f"{self.base_url}/{endpoint}?{urlencode(params)}"
        failed = f"{endpoint} failed after {self._http.retries} attempts ({context})"
        try:
            status, body = self._http.request("GET", url, pace=self.limiter.acquire)
        except TransportError as exc:
            raise IngestError(f"{failed}: {exc}") from exc
        if status in RETRYABLE_STATUS:
            raise IngestError(f"{failed}: HTTP {status}")
        if status != 200:
            raise IngestError(f"{endpoint} HTTP {status} ({context})")
        return body

    def search_pmids(self, marker: str, cap: int = MAX_CAP) -> list[str]:
        """Unique PMIDs for ``<marker> immunohisto*``, service order, capped: one esearch, as PubMed answers 10,000 hits at once."""
        if not marker or marker != marker.strip():
            raise ValidationError(f"marker must be non-empty with no surrounding whitespace, got {marker!r}")
        if not 1 <= cap <= MAX_CAP:
            raise ValidationError(f"cap must be in [1, {MAX_CAP}], got {cap}")
        context = f"marker={marker} retstart=0"
        term = f"{marker} {QUERY_SUFFIX}"
        body = self._get("esearch.fcgi", {"db": "pubmed", "term": term, "retmax": cap, "retstart": 0}, context)
        root = _xml_root(body, "esearch", context)
        error = root.findtext("ERROR")
        if error is not None and root.find("IdList") is None:
            raise EntrezParseError(f"esearch error ({context}): {error}")
        count = root.findtext("Count")
        try:
            hits = int(count) if count and count.isascii() and count.isdigit() else None
        except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
            hits = None
        if count and hits is None:
            raise EntrezParseError(f"esearch Count {count!r:.40} is not a number ({context})")
        ids = [node.text for node in root.findall(".//IdList/Id") if node.text]
        for pmid in ids:
            if not (pmid.isascii() and pmid.isdigit()):
                raise EntrezParseError(f"esearch Id {pmid!r:.40} is not a PMID ({context})")
        pmids = list(dict.fromkeys(ids))[:cap]
        if hits is not None:
            if hits > cap:
                logger.warning("marker %s hit the %d-abstract cap (%d hits reported)", marker, cap, hits)
            if len(pmids) < min(cap, hits):  # a short answer would silently shrink the corpus
                logger.warning("marker %s: esearch answered %d PMIDs of %d hits", marker, len(pmids), hits)
        return pmids

    def fetch_abstracts(self, sources: Mapping[str, set[str]]) -> tuple[list[AbstractRecord], list[str]]:
        """Fetch each PMID of ``sources`` once, in batches, as a record carrying its source markers.

        PMIDs lacking an abstract go to the skip list.
        """
        if not sources:
            raise ValidationError("fetch_abstracts needs at least one PMID")
        pmids = list(sources)
        records: list[AbstractRecord] = []
        skipped: list[str] = []
        for start in range(0, len(pmids), self.batch_size):
            batch = pmids[start : start + self.batch_size]
            context = f"batch={batch[0]}..{batch[-1]}"
            body = self._get(
                "efetch.fcgi",
                {"db": "pubmed", "id": ",".join(batch), "rettype": "abstract", "retmode": "xml"},
                context,
            )
            root = _xml_root(body, "efetch", context)
            found: set[str] = set()
            for article in root.findall(".//PubmedArticle"):
                pmid_node = article.find(".//MedlineCitation/PMID")
                if pmid_node is None or not pmid_node.text:
                    continue
                pmid = pmid_node.text.strip()
                if pmid not in sources or pmid in found:  # efetch may answer with a PMID twice, or one not asked for
                    continue
                found.add(pmid)
                title_node = article.find(".//Article/ArticleTitle")
                title = "".join(title_node.itertext()).strip() if title_node is not None else ""
                sections = article.findall(".//Article/Abstract/AbstractText")
                abstract = " ".join(
                    " ".join(node.itertext()).strip() for node in sections
                ).strip()
                if not abstract:
                    skipped.append(pmid)
                    continue
                records.append(
                    AbstractRecord(
                        pmid=pmid,
                        title=title,
                        abstract_text=abstract,
                        source_markers=set(sources[pmid]),
                    )
                )
            skipped.extend(p for p in batch if p not in found)
        return records, skipped


def _xml_root(body: str, what: str, context: str):
    import xml.etree.ElementTree as ET  # only fetch parses XML

    try:
        return ET.fromstring(body)
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two: an encoding expat cannot read
        raise EntrezParseError(f"{what} response not well-formed ({context})") from exc


def dedup_merge(hits: Iterable[tuple[str, Sequence[str]]]) -> dict[str, set[str]]:
    """Each PMID of the per-marker search hits once, in first-seen order, with the markers that found it."""
    sources: dict[str, set[str]] = {}
    for marker, pmids in hits:
        for pmid in pmids:
            sources.setdefault(pmid, set()).add(marker)
    return sources
