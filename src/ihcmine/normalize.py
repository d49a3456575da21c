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
cache entry per resolved path, ``$XDG_CACHE_HOME/ihcmine/dictionary-<key>.bin``
(default ``~/.cache/ihcmine/``): a fixed header, then the float64 matrix, its
squared row norms, the (cui, name) tie rank, and the CUI and name text with
their offsets. A later load maps the entry read-only instead, when the sha256
of the file's bytes, or the digest the caller passes, equals the one it
records; any other entry is parsed over. A loaded index builds a ``Concept``
only for a search hit. Entries are written by ``store.atomic_file`` and only
ever replaced whole, never edited in place, since loads map them. Deleting
one is always safe, and writing one deletes the ``.partial`` files that loads
killed while writing it left.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import mmap
import os
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .domain import NormalizedRecord
from .errors import DictionaryLoadError, GatewayError, ValidationError
from .gateway import EmbeddingVector, LlmGateway
from .provenance import file_sha256
from .store import atomic_file
from .tables import ProfileTable, split_marker_column

logger = logging.getLogger(__name__)

EMBED_CHUNK = 64
_EPS = float(np.finfo(np.float64).eps)
_CUI = re.compile("C[0-9]+")


def _check_cui(cui: str) -> None:
    if not isinstance(cui, str) or not _CUI.fullmatch(cui):
        raise ValidationError(f"CUI must be 'C' followed by digits, got {cui!r}")


@dataclass(frozen=True)
class Concept:
    cui: str
    name: str
    vector: EmbeddingVector | None = None

    def __post_init__(self) -> None:
        _check_cui(self.cui)


@dataclass(frozen=True)
class NormalizedEntity:
    cui: str
    matched_name: str
    distance: float


def _sq_norms(matrix: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowed norm disables the search's cut
        return np.einsum("ij,ij->i", matrix, matrix)  # no matrix-sized temporary


def _tie_rank(keys: list[tuple[str, str]]) -> np.ndarray:
    """Row -> place in (cui, name) order. Python strings: numpy's would drop trailing NULs."""
    return np.argsort(sorted(range(len(keys)), key=keys.__getitem__))


class _Table(NamedTuple):  # not a dataclass: making one costs every import of this module about 1.3 ms
    """An index's arrays and text, as one parse computes them and one cache entry holds them."""

    matrix: np.ndarray  # n x dim float64, row i is concept i's vector
    sq_norms: np.ndarray  # squared row norms
    rank: np.ndarray  # row -> place in (cui, name) order
    text: str  # every CUI, then every name
    offsets: np.ndarray  # 2n + 1 int64: CUI i is text[offsets[i]:offsets[i + 1]], name i follows at n + i

    @classmethod
    def of(cls, keys: list[tuple[str, str]], matrix: np.ndarray) -> _Table:
        cuis = [cui for cui, _ in keys]
        names = [name for _, name in keys]
        offsets = np.cumsum([0, *map(len, cuis), *map(len, names)], dtype=np.int64)
        return cls(matrix, _sq_norms(matrix), _tie_rank(keys), "".join(cuis) + "".join(names), offsets)


class _Concepts(Sequence):
    """A loaded dictionary's concepts, each built when it is read. Names are cut by offset, so they may hold any character."""

    def __init__(self, table: _Table):
        self._text = table.text
        self._offsets = table.offsets
        self._n = len(table.rank)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Concept:
        i = range(self._n)[i]  # a list's rules: from the end when negative, IndexError out of range
        at, text = self._offsets, self._text
        return Concept(cui=text[at[i] : at[i + 1]], name=text[at[self._n + i] : at[self._n + i + 1]])


class ConceptIndex:
    """Immutable after load; safe for concurrent readers.

    Row i of the float64 matrix is concept i's vector. ``arrays`` is the
    (matrix, squared row norms, tie rank) of ``concepts``; by default they are
    computed from each concept's ``vector``.
    """

    def __init__(self, concepts: Sequence[Concept], arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        if not concepts:
            raise DictionaryLoadError("empty dictionary")
        if arrays is None:
            concepts = list(concepts)
            dims = {c.vector.dim for c in concepts}
            if len(dims) > 1:
                raise DictionaryLoadError(f"mixed vector dimensions in dictionary: {sorted(dims)}")
            matrix = np.array([c.vector.values for c in concepts], dtype=np.float64)
            arrays = matrix, _sq_norms(matrix), _tie_rank([(c.cui, c.name) for c in concepts])
        self.concepts = concepts
        self._matrix, self._sq_norms, self._rank = arrays
        self.dim = self._matrix.shape[1]
        self._max_sq_norm = self._sq_norms.max()
        self._scratch = threading.local()

    def __len__(self) -> int:
        return len(self.concepts)

    def nearest(self, query: EmbeddingVector, k: int) -> list[tuple[Concept, float]]:
        """Exact top-k by Euclidean distance, ascending; ties by (cui, name)."""
        return self.nearest_many([query], k)[0]

    def _buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This thread's scores, scratch and cut mask for ``rows`` queries.

        They grow to the largest batch seen and are reused, so a search
        allocates (and page-faults in) no len(queries) x len(self) array.
        """
        scratch = self._scratch
        size = rows * len(self)
        if getattr(scratch, "size", 0) < size:
            scratch.size = size
            scratch.scores, scratch.work = np.empty(size), np.empty(size)
            scratch.mask = np.empty(size, dtype=bool)
        shape = (rows, len(self))
        return scratch.scores[:size].reshape(shape), scratch.work[:size].reshape(shape), scratch.mask[:size].reshape(shape)

    def nearest_many(self, queries: Sequence[EmbeddingVector], k: int) -> list[list[tuple[Concept, float]]]:
        """``nearest`` for each query, all scored with one matrix product.

        The caller bounds the batch: each calling thread keeps two
        len(queries) x len(self) float64 buffers for the index's life.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        for query in queries:
            if query.dim != self.dim:
                raise ValidationError(f"query dim {query.dim} != index dim {self.dim}")
        if not queries:
            return []
        block = np.array([q.values for q in queries], dtype=np.float64)
        gram, work, keep = self._buffers(len(block))
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
            np.add(q_sq[:, None], self._sq_norms, out=gram)  # G = (|q|^2 + |m|^2) - 2 q.m
            np.matmul(block, self._matrix.T, out=work)
            work *= 2.0
            gram -= work
            # 2e, with 4S formed first so that its overflow gives an infinite slack
            slack = 2.0 * (self.dim + 4) * _EPS * (4.0 * (q_sq + self._max_sq_norm))
        k = min(k, gram.shape[1])
        np.copyto(work, gram)
        work.partition(k - 1, axis=1)
        np.greater(gram, (work[:, k - 1] + slack)[:, None], out=keep)
        np.logical_not(keep, out=keep)
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


def _vector_fields(path: Path, handle: Iterable[str], rows: dict[tuple[str, str], int]) -> Iterator[str]:
    """Checks each entry's fields but its vector; keeps its (cui, name) key and line number in ``rows``; yields its vector field."""
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
        if (cui, name) in rows:
            raise DictionaryLoadError(f"{path}:{lineno}: duplicate (cui, name) pair ({cui}, {name})")
        try:
            _check_cui(cui)
        except ValidationError as exc:
            raise DictionaryLoadError(f"{path}:{lineno}: {exc}") from None
        rows[cui, name] = lineno
        yield vector_raw


def load_index(path: str | Path, *, sha256: str | None = None) -> ConceptIndex:
    """Load a TSV dictionary; any malformed line fails with its line number.

    A valid cache entry for the file's content is mapped instead of reading the text (see ``_cached``).
    Otherwise the file is parsed in one streaming pass and the entry is written. ``sha256``
    is the digest of the content the caller means, when it has hashed the file already: the
    cache is checked against it without reading the file again, and a parse of other bytes
    is an error.
    """
    path = Path(path)
    if not path.exists():
        raise DictionaryLoadError(f"dictionary file not found: {path}")
    entry = _cache_entry(path)
    table = _cached(entry, path, sha256) if entry is not None else None
    if table is None:
        digest = hashlib.sha256()
        keys, matrix = _parse(path, digest)
        if sha256 is not None and digest.hexdigest() != sha256:
            raise DictionaryLoadError(f"{path}: changed while normalize ran")
        table = _Table.of(keys, matrix)
        if entry is not None:
            _publish(entry, digest.hexdigest(), table)
    index = ConceptIndex(_Concepts(table), (table.matrix, table.sq_norms, table.rank))
    logger.info("loaded %d dictionary entries (dim=%d) from %s", len(index), index.dim, path)
    return index


def _parse(path: Path, digest: hashlib._Hash) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Each entry's (cui, name) and the matrix of the file, feeding the bytes parsed to ``digest``.

    Python checks each line's other fields. numpy's C text reader parses the vector fields
    straight into the matrix with CPython's correctly rounded string-to-double, so each value
    gets the bits ``float()`` gives it, and it rejects a row whose width differs from the first.
    """
    rows: dict[tuple[str, str], int] = {}
    with _open_text(path) as handle:
        vectors = _vector_fields(path, _hashed(handle, digest), rows)
        first = next(vectors, None)
        if first is None:
            raise DictionaryLoadError("empty dictionary")
        try:
            matrix = np.loadtxt(itertools.chain([first], vectors), **_VECTOR_READER)
        except ValueError:
            raise _first_bad_vector(path) from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DictionaryLoadError(f"{path}:{list(rows.values())[int(finite.argmin())]}: empty or non-finite vector")
    return list(rows), matrix


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
    rows: dict[tuple[str, str], int] = {}
    dim = None
    with _open_text(path) as handle:
        for vector_raw in _vector_fields(path, handle, rows):
            lineno = next(reversed(rows.values()))
            try:
                size = np.loadtxt([vector_raw], **_VECTOR_READER).shape[1]
            except ValueError:
                return DictionaryLoadError(f"{path}:{lineno}: unparseable vector")
            if dim is not None and size != dim:
                return DictionaryLoadError(f"{path}:{lineno}: vector dim {size} != expected {dim}")
            dim = size
    return DictionaryLoadError(f"{path}: unparseable vector")  # the file changed between the two reads


# Cache entry: the header, then sections at fixed offsets: the matrix (from the
# first page), squared norms and rank (n each), text offsets (2n + 1) and the text.
_CACHE_FORMAT = 3  # raise when the entry layout changes, or the parse gives other results for the same bytes
_MAGIC = b"IHCDICT\x00"
_HEADER = struct.Struct("<8sQ64s8Q")  # magic, format, sha256 hex, n, dim, the five section starts, end of file
_PAGE = 4096
_CUIS = re.compile("(?:C[0-9]+)*")


def _sections(n: int, dim: int) -> tuple[int, int, int, int, int]:
    """Where the matrix, norms, rank, text offsets and text of an n x dim entry start."""
    norms = _PAGE + 8 * n * dim
    offsets = norms + 16 * n
    return _PAGE, norms, norms + 8 * n, offsets, offsets + 8 * (2 * n + 1)


def _cache_entry(path: Path) -> Path | None:
    """The cache entry of the dictionary at this resolved path, or None when there is no home to keep it in."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser("~/.cache")
        if not os.path.isabs(root):
            return None
    key = hashlib.sha256(os.fsencode(path.resolve())).hexdigest()[:32]
    return Path(root) / "ihcmine" / f"dictionary-{key}.bin"


def _cached(entry: Path, path: Path, sha256: str | None) -> _Table | None:
    """The table an entry holds, when it is whole and was written from the bytes of digest
    ``sha256`` (by default, the file's current bytes); anything else is a miss, and the load
    that follows rewrites the entry.

    The header must match before anything is mapped: magic, format, digest, and sections
    where an n x dim entry puts them, ending at the file's size. The mapped entry must then
    hold a finite matrix, UTF-8 text cut by ordered offsets, and well-formed CUIs, so a
    damaged entry cannot fail or poison a search. Norms, rank and names are trusted as
    written: ``atomic_file`` publishes an entry whole and nothing edits it.
    """
    if not entry.is_file():
        return None
    digest = sha256 or file_sha256(path)
    try:
        with open(entry, "rb") as handle:
            header = handle.read(_HEADER.size).ljust(_HEADER.size)  # a short file pads to a header that cannot match
            magic, version, recorded, n, dim, *starts, end = _HEADER.unpack(header)
            if (magic, version, recorded) != (_MAGIC, _CACHE_FORMAT, digest.encode()) or not n or not dim:
                return None
            if tuple(starts) != _sections(n, dim) or not starts[-1] <= end == os.fstat(handle.fileno()).st_size:
                return None
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        logger.debug("ignoring dictionary cache entry %s: %s", entry, exc)
        return None
    matrix_at, norms_at, rank_at, offsets_at, text_at = starts
    matrix = np.frombuffer(data, "<f8", n * dim, matrix_at).reshape(n, dim)
    offsets = np.frombuffer(data, "<i8", 2 * n + 1, offsets_at)
    raw = data[text_at:end]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not np.isfinite(matrix).all() or offsets[-1] != len(text) or (np.diff(offsets) < 0).any():
        return None
    # the CUI text is C-digit runs (ASCII, so its bytes are its characters), starting where offsets[:n] say
    cuis_end = int(offsets[n])
    if not _CUIS.fullmatch(text, 0, cuis_end):
        return None
    if not np.array_equal(np.flatnonzero(np.frombuffer(raw, np.uint8, cuis_end) == ord("C")), offsets[:n]):
        return None
    return _Table(matrix, np.frombuffer(data, "<f8", n, norms_at), np.frombuffer(data, "<i8", n, rank_at), text, offsets)


def _publish(entry: Path, digest: str, table: _Table) -> None:
    """Writes the entry through ``atomic_file`` and deletes the format-2 ``.npz`` entry of the same
    dictionary, which no load reads; a failure costs only the cache. The ``.partial`` files of killed
    writers of the entry go first: a live writer that loses its file fails to rename it, at the same cost."""
    n, dim = table.matrix.shape
    starts = _sections(n, dim)
    text = table.text.encode("utf-8")
    header = _HEADER.pack(_MAGIC, _CACHE_FORMAT, digest.encode(), n, dim, *starts, starts[-1] + len(text))
    sections = ((table.matrix, "<f8"), (table.sq_norms, "<f8"), (table.rank, "<i8"), (table.offsets, "<i8"))
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        for temp in entry.parent.glob(f".{entry.name}.*.partial"):
            temp.unlink(missing_ok=True)
        with atomic_file(entry, "wb") as handle:
            handle.write(header.ljust(_PAGE, b"\x00"))
            for array, dtype in sections:
                handle.write(np.ascontiguousarray(array, dtype=dtype).data)
            handle.write(text)
        entry.with_suffix(".npz").unlink(missing_ok=True)
    except OSError as exc:
        logger.debug("dictionary cache entry %s not written: %s", entry, exc)


class TermNormalizer:
    """Maps surfaces to nearest concepts: ``prefetch`` embeds and searches them, ``normalize_term`` reads the result.

    Results are cached by surface string, failures too: a surface the
    endpoint failed is not asked for again. Not thread-safe: the normalize
    stage calls it from one thread.
    """

    def __init__(self, gateway: LlmGateway, index: ConceptIndex, max_distance: float | None = None):
        self.gateway = gateway
        self.index = index
        self.max_distance = max_distance
        self._cache: dict[str, NormalizedEntity | None] = {}  # None: embedding failed

    def prefetch(self, surfaces: Iterable[str]) -> None:
        """Embed the distinct uncached non-blank surfaces in chunks of ``EMBED_CHUNK`` and cache their matches.

        A chunk the gateway fails is embedded again one surface at a time,
        so only the failing surfaces stay unmapped. The vectors a chunk got
        are searched with one ``nearest_many`` call.
        """
        todo = [s for s in dict.fromkeys(surfaces) if s.strip() and s not in self._cache]
        for start in range(0, len(todo), EMBED_CHUNK):
            chunk = todo[start : start + EMBED_CHUNK]
            try:
                vectors = dict(zip(chunk, self.gateway.embed(chunk)))
            except GatewayError as exc:
                logger.warning("embedding %d surfaces failed, falling back to one at a time: %s", len(chunk), exc)
                vectors = {}
                for surface in chunk:
                    try:
                        vectors[surface] = self.gateway.embed([surface])[0]
                    except GatewayError as exc:
                        logger.warning("embedding %r failed, it stays unmapped: %s", surface, exc)
                        self._cache[surface] = None
            for surface, hits in zip(vectors, self.index.nearest_many(list(vectors.values()), k=1)):
                concept, distance = hits[0]
                self._cache[surface] = NormalizedEntity(cui=concept.cui, matched_name=concept.name, distance=distance)

    def normalize_term(self, surface: str) -> NormalizedEntity | None:
        """What ``prefetch`` resolved ``surface`` to; None for a blank surface, a failed one, or one never prefetched."""
        return self._cache.get(surface)


def table_surfaces(table: ProfileTable) -> Iterator[str]:
    """The surfaces ``normalize_table`` looks up, in its lookup order (repeats included)."""
    for row in table.rows:
        for column_name, cell in row.cells.items():
            if cell.is_missing:
                continue
            yield row.tumour_type
            if row.tumour_site:
                yield row.tumour_site
            yield split_marker_column(column_name).base_marker


def normalize_table(table: ProfileTable, normalizer: TermNormalizer) -> list[NormalizedRecord]:
    """One record per non-missing marker cell; failures flag, never drop.

    Missing (NA) cells produce no record, since aggregation has nothing to
    sum for them. Blank terms, and terms the gateway cannot embed, stay
    unnormalized with an unmapped flag and the raw surface preserved. It
    prefetches the table's surfaces: no request after a stage-wide ``prefetch``.
    """
    normalizer.prefetch(table_surfaces(table))
    records: list[NormalizedRecord] = []
    max_distance = normalizer.max_distance

    def lookup(surface: str, flag_name: str, flags: list[str]):
        entity = normalizer.normalize_term(surface)
        if entity is None:
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
            type_cui, type_name = lookup(row.tumour_type, "tumour_type", flags)
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
