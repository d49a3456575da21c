"""Concept dictionary index and embedding nearest-neighbor normalization.

Search is an exact Euclidean scan (no approximation); ties break by
ascending CUI then name so results are deterministic even with duplicated
vectors. Dictionary format: one entry per line,
``cui<TAB>name<TAB>kind<TAB>v1,v2,...`` with an optional fifth
semantic-type column.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import DictionaryLoadError, GatewayError, NormalizationError, ValidationError
from .gateway import EmbeddingVector, LlmGateway
from .tables import ProfileTable, split_marker_column

logger = logging.getLogger(__name__)

EMBED_CHUNK = 64


class NameKind(str, Enum):
    CANONICAL = "canonical"
    ALIAS = "alias"
    TRADE_NAME = "trade_name"


@dataclass(frozen=True)
class Concept:
    cui: str
    name: str
    kind: NameKind
    vector: EmbeddingVector
    semantic_type: str | None = None

    def __post_init__(self) -> None:
        if not self.cui or self.cui[0] != "C" or not self.cui[1:].isdigit():
            raise ValidationError(f"CUI must be 'C' followed by digits, got {self.cui!r}")


@dataclass(frozen=True)
class NormalizedEntity:
    surface: str
    cui: str
    matched_name: str
    distance: float


class ConceptIndex:
    """Immutable after load; safe for concurrent readers."""

    def __init__(self, concepts: Sequence[Concept]):
        if not concepts:
            raise DictionaryLoadError("empty dictionary")
        dims = {c.vector.dim for c in concepts}
        if len(dims) > 1:
            raise DictionaryLoadError(f"mixed vector dimensions in dictionary: {sorted(dims)}")
        self.concepts = list(concepts)
        self.dim = dims.pop()
        self._matrix = np.array([c.vector.values for c in self.concepts], dtype=np.float64)
        self._cuis = np.array([c.cui for c in self.concepts])
        self._names = np.array([c.name for c in self.concepts])

    def __len__(self) -> int:
        return len(self.concepts)

    def nearest(
        self,
        query: EmbeddingVector,
        k: int,
        semantic_type: str | None = None,
    ) -> list[tuple[Concept, float]]:
        """Exact top-k by Euclidean distance, ascending; ties by (cui, name)."""
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if query.dim != self.dim:
            raise ValidationError(f"query dim {query.dim} != index dim {self.dim}")
        q = np.asarray(query.values, dtype=np.float64)
        distances = np.sqrt(((self._matrix - q) ** 2).sum(axis=1))
        if semantic_type is not None:
            mask = np.array([c.semantic_type == semantic_type for c in self.concepts])
            candidate_idx = np.flatnonzero(mask)
        else:
            candidate_idx = np.arange(len(self.concepts))
        if candidate_idx.size == 0:
            return []
        order = np.lexsort(
            (self._names[candidate_idx], self._cuis[candidate_idx], distances[candidate_idx])
        )
        chosen = candidate_idx[order[: min(k, candidate_idx.size)]]
        return [(self.concepts[i], float(distances[i])) for i in chosen]


def load_index(path: str | Path) -> ConceptIndex:
    """Load a TSV dictionary; any malformed line fails with its line number."""
    path = Path(path)
    if not path.exists():
        raise DictionaryLoadError(f"dictionary file not found: {path}")
    concepts: list[Concept] = []
    seen: set[tuple[str, str]] = set()
    dim: int | None = None
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) not in (4, 5):
                raise DictionaryLoadError(f"{path}:{lineno}: expected 4 or 5 tab-separated fields")
            cui, name, kind_raw, vector_raw = parts[0], parts[1], parts[2], parts[3]
            semantic_type = parts[4] if len(parts) == 5 and parts[4] else None
            try:
                kind = NameKind(kind_raw)
            except ValueError:
                raise DictionaryLoadError(f"{path}:{lineno}: unknown name kind {kind_raw!r}") from None
            try:
                values = tuple(float(v) for v in vector_raw.split(","))
            except ValueError:
                raise DictionaryLoadError(f"{path}:{lineno}: unparseable vector") from None
            if not values or not all(math.isfinite(v) for v in values):
                raise DictionaryLoadError(f"{path}:{lineno}: empty or non-finite vector")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DictionaryLoadError(
                    f"{path}:{lineno}: vector dim {len(values)} != expected {dim}"
                )
            if (cui, name) in seen:
                raise DictionaryLoadError(f"{path}:{lineno}: duplicate (cui, name) pair ({cui}, {name})")
            seen.add((cui, name))
            try:
                concepts.append(
                    Concept(cui=cui, name=name, kind=kind, vector=EmbeddingVector.of(values), semantic_type=semantic_type)
                )
            except ValidationError as exc:
                raise DictionaryLoadError(f"{path}:{lineno}: {exc}") from None
    if not concepts:
        raise DictionaryLoadError("empty dictionary")
    index = ConceptIndex(concepts)
    logger.info("loaded %d dictionary entries (dim=%d) from %s", len(index), index.dim, path)
    return index


class TermNormalizer:
    """Embeds surfaces through the gateway and maps them to nearest concepts.

    Results are cached by surface string; the cache is a synchronized
    single-writer map so concurrent normalize calls stay safe.
    """

    def __init__(self, gateway: LlmGateway, index: ConceptIndex, max_distance: float | None = None):
        self.gateway = gateway
        self.index = index
        self.max_distance = max_distance
        self._cache: dict[str, NormalizedEntity] = {}
        self._lock = threading.Lock()

    def prefetch(self, surfaces: Iterable[str]) -> None:
        """Embed the distinct uncached surfaces in chunks of ``EMBED_CHUNK`` and cache their matches.

        A chunk the gateway fails is left uncached, so ``normalize_term``
        embeds its surfaces one at a time and only the failing ones go unmapped.
        """
        distinct = dict.fromkeys(surfaces)
        with self._lock:
            todo = [s for s in distinct if s.strip() and s not in self._cache]
        for start in range(0, len(todo), EMBED_CHUNK):
            chunk = todo[start : start + EMBED_CHUNK]
            try:
                vectors = self.gateway.embed(chunk)
            except GatewayError as exc:
                logger.warning("embedding %d surfaces failed, falling back to one at a time: %s", len(chunk), exc)
                continue
            for surface, vector in zip(chunk, vectors):
                self._match(surface, vector, None, surface)

    def normalize_term(self, surface: str, semantic_type: str | None = None) -> NormalizedEntity:
        if not surface or not surface.strip():
            raise ValidationError("cannot normalize an empty surface form")
        cache_key = surface if semantic_type is None else f"{semantic_type}\x00{surface}"
        with self._lock:
            cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        try:
            vector = self.gateway.embed([surface])[0]
        except GatewayError as exc:
            raise NormalizationError(f"embedding failed for {surface!r}: {exc}") from exc
        return self._match(surface, vector, semantic_type, cache_key)

    def _match(
        self, surface: str, vector: EmbeddingVector, semantic_type: str | None, cache_key: str
    ) -> NormalizedEntity:
        hits = self.index.nearest(vector, k=1, semantic_type=semantic_type)
        if not hits:
            raise NormalizationError(f"no dictionary candidates for {surface!r}")
        concept, distance = hits[0]
        entity = NormalizedEntity(surface=surface, cui=concept.cui, matched_name=concept.name, distance=distance)
        with self._lock:
            self._cache[cache_key] = entity
        return entity


@dataclass
class NormalizedRecord:
    """One (row, marker cell) of a profile table with its concept mappings."""

    pmid: str
    tumour_type: str
    tumour_type_cui: str | None
    tumour_type_name: str | None
    tumour_site: str | None
    tumour_site_cui: str | None
    tumour_site_name: str | None
    marker: str
    base_marker: str
    marker_cui: str | None
    marker_name: str | None
    qualifier: str | None
    positives: int
    total: int
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pmid": self.pmid,
            "tumour_type": self.tumour_type,
            "tumour_type_cui": self.tumour_type_cui,
            "tumour_type_name": self.tumour_type_name,
            "tumour_site": self.tumour_site,
            "tumour_site_cui": self.tumour_site_cui,
            "tumour_site_name": self.tumour_site_name,
            "marker": self.marker,
            "base_marker": self.base_marker,
            "marker_cui": self.marker_cui,
            "marker_name": self.marker_name,
            "qualifier": self.qualifier,
            "positives": self.positives,
            "total": self.total,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "NormalizedRecord":
        return cls(
            pmid=d["pmid"],
            tumour_type=d["tumour_type"],
            tumour_type_cui=d["tumour_type_cui"],
            tumour_type_name=d["tumour_type_name"],
            tumour_site=d["tumour_site"],
            tumour_site_cui=d["tumour_site_cui"],
            tumour_site_name=d["tumour_site_name"],
            marker=d["marker"],
            base_marker=d["base_marker"],
            marker_cui=d["marker_cui"],
            marker_name=d["marker_name"],
            qualifier=d["qualifier"],
            positives=int(d["positives"]),
            total=int(d["total"]),
            flags=list(d.get("flags", [])),
        )


def table_surfaces(table: ProfileTable) -> Iterator[str]:
    """The surfaces ``normalize_table`` looks up, in its lookup order (repeats included)."""
    for row in table.rows:
        for column_name, cell in row.cells.items():
            if cell.is_missing:
                continue
            if row.tumour_type.strip():
                yield row.tumour_type
            if row.tumour_site:
                yield row.tumour_site
            yield split_marker_column(column_name).base_marker


def normalize_table(table: ProfileTable, normalizer: TermNormalizer) -> list[NormalizedRecord]:
    """One record per non-missing marker cell; failures flag, never drop.

    Missing (NA) cells produce no record, since aggregation has nothing to
    sum for them. Terms the gateway cannot embed stay unnormalized with an
    unmapped flag and the raw surface preserved.
    """
    records: list[NormalizedRecord] = []
    max_distance = normalizer.max_distance

    def lookup(surface: str, flag_name: str, flags: list[str]):
        try:
            entity = normalizer.normalize_term(surface)
        except NormalizationError as exc:
            logger.warning("normalization failed for %r: %s", surface, exc)
            flags.append(f"unmapped_{flag_name}")
            return None, None
        if max_distance is not None and entity.distance > max_distance:
            flags.append(f"low_confidence_{flag_name}")
        return entity.cui, entity.matched_name

    for row in table.rows:
        for column_name, cell in row.cells.items():
            if cell.is_missing:
                continue
            flags: list[str] = []
            column = split_marker_column(column_name)
            if not cell.count.is_valid:
                flags.append("invalid_count")
            type_cui = type_name = None
            if row.tumour_type.strip():
                type_cui, type_name = lookup(row.tumour_type, "tumour_type", flags)
            else:
                flags.append("unmapped_tumour_type")
            site_cui = site_name = None
            if row.tumour_site:
                site_cui, site_name = lookup(row.tumour_site, "tumour_site", flags)
            marker_cui, marker_name = lookup(column.base_marker, "marker", flags)
            records.append(
                NormalizedRecord(
                    pmid=table.pmid,
                    tumour_type=row.tumour_type,
                    tumour_type_cui=type_cui,
                    tumour_type_name=type_name,
                    tumour_site=row.tumour_site,
                    tumour_site_cui=site_cui,
                    tumour_site_name=site_name,
                    marker=column_name,
                    base_marker=column.base_marker,
                    marker_cui=marker_cui,
                    marker_name=marker_name,
                    qualifier=column.qualifier,
                    positives=cell.count.positives,
                    total=cell.count.total,
                    flags=flags,
                )
            )
    return records
