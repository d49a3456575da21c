"""Concept dictionary index and embedding nearest-neighbor normalization.

Search is exact Euclidean (no approximation), batched: one matrix product
against precomputed squared row norms scores a batch of queries, and every
row within a rounding bound of a query's k-th best score is re-ranked with
the per-row distance, so results equal a linear scan's bit for bit. Ties
break by ascending CUI then name so results are deterministic even with
duplicated vectors. Dictionary format: one UTF-8 entry per line,
``cui<TAB>name<TAB>kind<TAB>v1,v2,...``; an optional fifth column (a
semantic type) is accepted and ignored.

The first load of a dictionary parses its text and keeps the result as one
cache entry per resolved path, ``$XDG_CACHE_HOME/ihcmine/`` (default
``~/.cache/ihcmine/``). A later load reads the entry instead when the sha256
of the file's bytes, or the digest the caller passes, equals the one it
records; any other entry is parsed over. Entries are written by ``store.atomic_file``. Deleting one, or a
``.partial`` file that a load killed mid-write left, is always safe.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .domain import NormalizedRecord
from .errors import DictionaryLoadError, GatewayError, NormalizationError, ValidationError
from .gateway import EmbeddingVector, LlmGateway
from .store import atomic_file, file_sha256
from .tables import ProfileTable, split_marker_column

logger = logging.getLogger(__name__)

EMBED_CHUNK = 64
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Concept:
    cui: str
    name: str
    vector: EmbeddingVector | None = None

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
    """Immutable after load; safe for concurrent readers.

    Row i of the float64 matrix is concept i's vector. ``matrix`` defaults
    to stacking each concept's ``vector``; ``load_index`` passes the matrix
    it parsed and builds its concepts without vectors.
    """

    def __init__(self, concepts: Sequence[Concept], matrix: np.ndarray | None = None):
        if not concepts:
            raise DictionaryLoadError("empty dictionary")
        self.concepts = list(concepts)
        if matrix is None:
            dims = {c.vector.dim for c in self.concepts}
            if len(dims) > 1:
                raise DictionaryLoadError(f"mixed vector dimensions in dictionary: {sorted(dims)}")
            matrix = np.array([c.vector.values for c in self.concepts], dtype=np.float64)
        self._matrix = matrix
        self.dim = matrix.shape[1]
        with np.errstate(over="ignore"):  # an overflowed norm disables the search's cut
            self._sq_norms = np.einsum("ij,ij->i", matrix, matrix)  # no matrix-sized temporary
        self._max_sq_norm = self._sq_norms.max()
        keys = [(c.cui, c.name) for c in self.concepts]  # Python strings: numpy's would drop trailing NULs
        self._rank = np.argsort(sorted(range(len(keys)), key=keys.__getitem__))  # row -> place in (cui, name) order

    def __len__(self) -> int:
        return len(self.concepts)

    def nearest(self, query: EmbeddingVector, k: int) -> list[tuple[Concept, float]]:
        """Exact top-k by Euclidean distance, ascending; ties by (cui, name)."""
        return self.nearest_many([query], k)[0]

    def nearest_many(self, queries: Sequence[EmbeddingVector], k: int) -> list[list[tuple[Concept, float]]]:
        """``nearest`` for each query, all scored with one matrix product.

        The caller bounds the batch: the scores take len(queries) x len(self)
        float64s.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        for query in queries:
            if query.dim != self.dim:
                raise ValidationError(f"query dim {query.dim} != index dim {self.dim}")
        if not queries:
            return []
        block = np.array([q.values for q in queries], dtype=np.float64)
        # The cut keeps every row that can reach the exact top k.  Let
        # u = eps/2, S = |q|^2 + max|m|^2 and T = |q - m|^2.  A float sum of
        # n terms is within n*u*sum|terms| of the real sum in any order, with
        # or without FMA, so G and the re-rank's float sum s of squared
        # differences each lie within (dim + 2)*eps*S of T, to first order,
        # and |G - s| <= e := 4*(dim + 4)*eps*S with a margin above 2.  The
        # k rows with the smallest G have s <= g_k + e.  A top-k row has s at
        # most the k-th smallest s, times (1 + 2*eps) when sqrt rounds the
        # two distances equal, so its G <= g_k + 2e.  When 4S overflows no
        # bound holds, the slack is infinite and every row is kept; a NaN G
        # is never cut.
        with np.errstate(over="ignore", invalid="ignore"):
            q_sq = (block * block).sum(axis=1)
            gram = q_sq[:, None] + self._sq_norms - 2.0 * (block @ self._matrix.T)
            # 2e, with 4S formed first so that its overflow gives an infinite slack
            slack = 2.0 * (self.dim + 4) * _EPS * (4.0 * (q_sq + self._max_sq_norm))
        k = min(k, gram.shape[1])
        g_k = np.partition(gram, k - 1, axis=1)[:, k - 1]
        keep = ~(gram > (g_k + slack)[:, None])
        results = []
        for q, kept in zip(block, keep):
            cand = np.flatnonzero(kept)
            distances = np.sqrt(((self._matrix[cand] - q) ** 2).sum(axis=1))
            order = np.lexsort((self._rank[cand], distances))[:k]
            results.append([(self.concepts[i], float(d)) for i, d in zip(cand[order], distances[order])])
        return results


_VECTOR_READER = {"delimiter": ",", "comments": None, "dtype": np.float64, "ndmin": 2}
_NAME_KINDS = frozenset({"canonical", "alias", "trade_name"})
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # bytes that ``surrogateescape`` kept because they are not UTF-8
_CACHE_FORMAT = 2  # raise when the entry layout changes, or the parse gives other results for the same bytes


def _vector_fields(path: Path, handle: Iterable[str], concepts: list[Concept], line_numbers: list[int]) -> Iterator[str]:
    """Checks each entry's fields but its vector; keeps its concept and line number; yields its vector field."""
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(handle, start=1):
        if not line.isascii() and _UNDECODABLE.search(line):
            raise DictionaryLoadError(f"{path}:{lineno}: not valid UTF-8")
        if line.isspace():
            continue
        parts = line.rstrip("\r\n").split("\t")
        if len(parts) not in (4, 5):
            raise DictionaryLoadError(f"{path}:{lineno}: expected 4 or 5 tab-separated fields")
        cui, name, kind, vector_raw = parts[:4]
        if kind not in _NAME_KINDS:
            raise DictionaryLoadError(f"{path}:{lineno}: unknown name kind {kind!r}")
        if not vector_raw:  # numpy's reader would skip it as a blank line
            raise DictionaryLoadError(f"{path}:{lineno}: unparseable vector")
        if (cui, name) in seen:
            raise DictionaryLoadError(f"{path}:{lineno}: duplicate (cui, name) pair ({cui}, {name})")
        seen.add((cui, name))
        try:
            concepts.append(Concept(cui=cui, name=name))
        except ValidationError as exc:
            raise DictionaryLoadError(f"{path}:{lineno}: {exc}") from None
        line_numbers.append(lineno)
        yield vector_raw


def load_index(path: str | Path, *, sha256: str | None = None) -> ConceptIndex:
    """Load a TSV dictionary; any malformed line fails with its line number.

    A valid cache entry for the file's content is read instead of the text (see ``_cached``).
    Otherwise the file is parsed in one streaming pass and the entry is written. ``sha256``
    is the digest of the content the caller means, when it has hashed the file already: the
    cache is checked against it without reading the file again, and a parse of other bytes
    is an error.
    """
    path = Path(path)
    if not path.exists():
        raise DictionaryLoadError(f"dictionary file not found: {path}")
    entry = _cache_entry(path)
    loaded = _cached(entry, path, sha256) if entry is not None else None
    if loaded is None:
        digest = hashlib.sha256()
        loaded = _parse(path, digest)
        if sha256 is not None and digest.hexdigest() != sha256:
            raise DictionaryLoadError(f"{path}: changed while normalize ran")
        if entry is not None:
            _publish(entry, digest.hexdigest(), *loaded)
    index = ConceptIndex(*loaded)
    logger.info("loaded %d dictionary entries (dim=%d) from %s", len(index), index.dim, path)
    return index


def _parse(path: Path, digest: hashlib._Hash) -> tuple[list[Concept], np.ndarray]:
    """The concepts and matrix of the file, feeding the bytes parsed to ``digest``.

    Python checks each line's other fields. numpy's C text reader parses the vector fields
    straight into the matrix with CPython's correctly rounded string-to-double, so each value
    gets the bits ``float()`` gives it, and it rejects a row whose width differs from the first.
    """
    concepts: list[Concept] = []
    line_numbers: list[int] = []
    with _open_text(path) as handle:
        vectors = _vector_fields(path, _hashed(handle, digest), concepts, line_numbers)
        first = next(vectors, None)
        if first is None:
            raise DictionaryLoadError("empty dictionary")
        try:
            matrix = np.loadtxt(itertools.chain([first], vectors), **_VECTOR_READER)
        except ValueError:
            raise _first_bad_vector(path) from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DictionaryLoadError(f"{path}:{line_numbers[int(finite.argmin())]}: empty or non-finite vector")
    return concepts, matrix


def _open_text(path: Path) -> TextIO:
    """The file's lines with their line endings; bytes that are not UTF-8 become surrogates for the line check."""
    return path.open(encoding="utf-8", errors="surrogateescape", newline="")


def _hashed(lines: Iterable[str], digest: hashlib._Hash) -> Iterator[str]:
    """The lines, each fed to ``digest`` as the bytes it was read from."""
    for line in lines:
        digest.update(line.encode("utf-8", "surrogateescape"))
        yield line


def _first_bad_vector(path: Path) -> DictionaryLoadError:
    """The error for the first vector the reader rejected, found by reading the file again row by row."""
    line_numbers: list[int] = []
    dim = None
    with _open_text(path) as handle:
        for vector_raw in _vector_fields(path, handle, [], line_numbers):
            try:
                size = np.loadtxt([vector_raw], **_VECTOR_READER).shape[1]
            except ValueError:
                return DictionaryLoadError(f"{path}:{line_numbers[-1]}: unparseable vector")
            if dim is not None and size != dim:
                return DictionaryLoadError(f"{path}:{line_numbers[-1]}: vector dim {size} != expected {dim}")
            dim = size
    return DictionaryLoadError(f"{path}: unparseable vector")  # the file changed between the two reads


def _cache_entry(path: Path) -> Path | None:
    """The cache entry of the dictionary at this resolved path, or None when there is no home to keep it in."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser("~/.cache")
        if not os.path.isabs(root):
            return None
    key = hashlib.sha256(os.fsencode(path.resolve())).hexdigest()[:32]
    return Path(root) / "ihcmine" / f"dictionary-{key}.npz"


def _cached(entry: Path, path: Path, sha256: str | None) -> tuple[list[Concept], np.ndarray] | None:
    """The concepts and matrix an entry holds, when it is whole and was written from the bytes of digest
    ``sha256`` (by default, the file's current bytes).

    The entry is an ``.npz`` of ``meta``, the UTF-8 JSON of the format version, the sha256 of
    the dictionary's bytes and each concept's [cui, name], and ``matrix``.
    Anything else counts as a miss, and the load that follows rewrites the entry.
    """
    if not entry.is_file():
        return None
    digest = sha256 or file_sha256(path)
    try:
        with open(entry, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            meta = json.loads(data["meta"].tobytes())
            if meta["format"] != _CACHE_FORMAT or meta["sha256"] != digest:
                return None
            matrix = data["matrix"]
            concepts = [Concept(cui=cui, name=name) for cui, name in meta["concepts"]]
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile, ValidationError) as exc:
        logger.debug("ignoring dictionary cache entry %s: %s", entry, exc)
        return None
    if matrix.dtype != np.float64 or matrix.ndim != 2 or matrix.shape[0] != len(concepts) or not matrix.shape[1]:
        return None
    if not concepts or not np.isfinite(matrix).all():
        return None
    return concepts, matrix


def _publish(entry: Path, digest: str, concepts: list[Concept], matrix: np.ndarray) -> None:
    """Writes the entry through ``atomic_file``; a failure costs only the cache."""
    fields = [[c.cui, c.name] for c in concepts]
    meta = json.dumps({"format": _CACHE_FORMAT, "sha256": digest, "concepts": fields}).encode("utf-8")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with atomic_file(entry, "wb") as handle:
            np.savez(handle, meta=np.frombuffer(meta, dtype=np.uint8), matrix=matrix)
    except OSError as exc:
        logger.debug("dictionary cache entry %s not written: %s", entry, exc)


class TermNormalizer:
    """Embeds surfaces through the gateway and maps them to nearest concepts.

    Results are cached by surface string. Not thread-safe: the normalize
    stage calls it from one thread.
    """

    def __init__(self, gateway: LlmGateway, index: ConceptIndex, max_distance: float | None = None):
        self.gateway = gateway
        self.index = index
        self.max_distance = max_distance
        self._cache: dict[str, NormalizedEntity] = {}

    def prefetch(self, surfaces: Iterable[str]) -> None:
        """Embed the distinct uncached surfaces in chunks of ``EMBED_CHUNK`` and cache their matches.

        Each embedded chunk is searched with one ``nearest_many`` call. A
        chunk the gateway fails is left uncached, so ``normalize_term``
        embeds its surfaces one at a time and only the failing ones go unmapped.
        """
        todo = [s for s in dict.fromkeys(surfaces) if s.strip() and s not in self._cache]
        for start in range(0, len(todo), EMBED_CHUNK):
            chunk = todo[start : start + EMBED_CHUNK]
            try:
                vectors = self.gateway.embed(chunk)
            except GatewayError as exc:
                logger.warning("embedding %d surfaces failed, falling back to one at a time: %s", len(chunk), exc)
                continue
            for surface, hits in zip(chunk, self.index.nearest_many(vectors, k=1)):
                self._remember(surface, hits)

    def normalize_term(self, surface: str) -> NormalizedEntity:
        if not surface or not surface.strip():
            raise ValidationError("cannot normalize an empty surface form")
        cached = self._cache.get(surface)
        if cached is not None:
            return cached
        try:
            vector = self.gateway.embed([surface])[0]
        except GatewayError as exc:
            raise NormalizationError(f"embedding failed for {surface!r}: {exc}") from exc
        return self._remember(surface, self.index.nearest(vector, k=1))

    def _remember(self, surface: str, hits: list[tuple[Concept, float]]) -> NormalizedEntity:
        concept, distance = hits[0]
        entity = NormalizedEntity(surface=surface, cui=concept.cui, matched_name=concept.name, distance=distance)
        self._cache[surface] = entity
        return entity


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
