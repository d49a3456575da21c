"""Entrez e-utils client: per-marker search, batched abstract fetch, dedup.

Requests are throttled globally per client (NCBI policy: 3/s without an
API key, 10/s with one) and retried with exponential backoff on transport
errors and 429/5xx. PMIDs without an abstract body are skipped, not
errors.
"""

from __future__ import annotations

import logging
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import requests

from .domain import AbstractRecord
from .errors import EntrezParseError, IngestError, ValidationError

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils"
QUERY_SUFFIX = "immunohisto*"
MAX_CAP = 9999
RPS_WITHOUT_KEY = 3.0
RPS_WITH_KEY = 10.0
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


@dataclass(frozen=True)
class MarkerQuery:
    marker: str
    query: str


@dataclass
class CorpusStats:
    per_marker_counts: dict[str, int] = field(default_factory=dict)
    total_unique: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"per_marker_counts": dict(self.per_marker_counts), "total_unique": self.total_unique}


def build_query(marker: str) -> MarkerQuery:
    """Deterministic search term: the marker name, a space, then immunohisto*."""
    if not marker or marker != marker.strip():
        raise ValidationError(f"marker must be non-empty with no surrounding whitespace, got {marker!r}")
    return MarkerQuery(marker=marker, query=f"{marker} {QUERY_SUFFIX}")


class RateLimiter:
    """Uniform request spacing shared by all endpoints of one client."""

    def __init__(self, rate_per_second: float):
        if rate_per_second <= 0:
            raise ValidationError(f"rate must be positive, got {rate_per_second}")
        self.interval = 1.0 / rate_per_second
        self._lock = threading.Lock()
        self._next_time = 0.0

    def acquire(self) -> None:
        with self._lock:
            now = time.monotonic()
            wait = self._next_time - now
            if wait > 0:
                time.sleep(wait)
                now = time.monotonic()
            self._next_time = max(now, self._next_time) + self.interval


class EntrezClient:
    """esearch/efetch client for the PubMed XML schema."""

    def __init__(
        self,
        base_url: str = DEFAULT_BASE_URL,
        api_key: str | None = None,
        requests_per_second: float | None = None,
        page_size: int = MAX_CAP,
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
        self.page_size = page_size
        self.batch_size = batch_size
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._session = requests.Session()

    def _get(self, endpoint: str, params: dict[str, Any], context: str) -> str:
        if self.api_key:
            params = {**params, "api_key": self.api_key}
        url = f"{self.base_url}/{endpoint}"
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            self.limiter.acquire()
            try:
                response = self._session.get(url, params=params, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("%s failed (%s, attempt %d): %s", endpoint, context, attempt + 1, exc)
                continue
            if response.status_code in _RETRYABLE_STATUS:
                last_error = IngestError(f"HTTP {response.status_code}")
                logger.warning("%s HTTP %d (%s, attempt %d)", endpoint, response.status_code, context, attempt + 1)
                continue
            if response.status_code != 200:
                raise IngestError(f"{endpoint} HTTP {response.status_code} ({context})")
            return response.text
        raise IngestError(f"{endpoint} failed after {self.retries} attempts ({context}): {last_error}")

    def search_pmids(self, query: MarkerQuery, cap: int = MAX_CAP) -> list[str]:
        """Unique PMIDs for a marker query, service order, paginated, capped."""
        if not 1 <= cap <= MAX_CAP:
            raise ValidationError(f"cap must be in [1, {MAX_CAP}], got {cap}")
        pmids: list[str] = []
        seen: set[str] = set()
        retstart = 0
        total_hits: int | None = None
        while len(pmids) < cap:
            retmax = min(self.page_size, cap - len(pmids))
            context = f"marker={query.marker} retstart={retstart}"
            body = self._get(
                "esearch.fcgi",
                {"db": "pubmed", "term": query.query, "retmax": retmax, "retstart": retstart},
                context,
            )
            try:
                root = ET.fromstring(body)
            except ET.ParseError as exc:
                raise EntrezParseError(f"esearch response not well-formed ({context})") from exc
            count_node = root.find("Count")
            if count_node is not None and count_node.text:
                total_hits = int(count_node.text)
            page = [node.text for node in root.findall(".//IdList/Id") if node.text]
            if not page:
                break
            added = 0
            for pmid in page:
                if pmid not in seen and len(pmids) < cap:
                    seen.add(pmid)
                    pmids.append(pmid)
                    added += 1
            retstart += retmax
            if total_hits is not None and retstart >= total_hits:
                break
            if total_hits is None and added == 0:
                break  # server reports no total and repeats ids; stop paging
        if total_hits is not None and total_hits > cap:
            logger.warning(
                "marker %s hit the %d-abstract cap (%d hits reported)", query.marker, cap, total_hits
            )
        return pmids

    def fetch_abstracts(
        self,
        pmids: Sequence[str],
        marker: str,
        retrieved_at: str | None = None,
    ) -> tuple[list[AbstractRecord], list[str]]:
        """Fetch abstracts in batches; PMIDs lacking an abstract go to the skip list."""
        if not pmids:
            raise ValidationError("fetch_abstracts needs at least one PMID")
        timestamp = retrieved_at or time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        records: list[AbstractRecord] = []
        skipped: list[str] = []
        for start in range(0, len(pmids), self.batch_size):
            batch = list(pmids[start : start + self.batch_size])
            context = f"marker={marker} batch={batch[0]}..{batch[-1]}"
            body = self._get(
                "efetch.fcgi",
                {"db": "pubmed", "id": ",".join(batch), "rettype": "abstract", "retmode": "xml"},
                context,
            )
            try:
                root = ET.fromstring(body)
            except ET.ParseError as exc:
                raise EntrezParseError(f"efetch response not well-formed ({context})") from exc
            found: set[str] = set()
            for article in root.findall(".//PubmedArticle"):
                pmid_node = article.find(".//MedlineCitation/PMID")
                if pmid_node is None or not pmid_node.text:
                    continue
                pmid = pmid_node.text.strip()
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
                        source_markers={marker},
                        retrieved_at=timestamp,
                    )
                )
            skipped.extend(p for p in batch if p not in found)
        return records, skipped


def dedup_merge(
    batches: Iterable[tuple[str, Sequence[AbstractRecord]]],
) -> tuple[list[AbstractRecord], CorpusStats]:
    """Merge per-marker record lists into one corpus, unioning source markers.

    Keeps one record per PMID (first title wins; conflicts are logged) and
    reports raw per-marker counts next to the unique total.
    """
    merged: dict[str, AbstractRecord] = {}
    stats = CorpusStats()
    for marker, records in batches:
        stats.per_marker_counts[marker] = stats.per_marker_counts.get(marker, 0) + len(records)
        for record in records:
            existing = merged.get(record.pmid)
            if existing is None:
                merged[record.pmid] = AbstractRecord(
                    pmid=record.pmid,
                    title=record.title,
                    abstract_text=record.abstract_text,
                    source_markers=set(record.source_markers) | {marker},
                    retrieved_at=record.retrieved_at,
                )
            else:
                if existing.title != record.title:
                    logger.warning(
                        "pmid %s: conflicting titles across markers; keeping the first", record.pmid
                    )
                existing.source_markers |= set(record.source_markers) | {marker}
    corpus = list(merged.values())
    stats.total_unique = len(corpus)
    return corpus, stats
