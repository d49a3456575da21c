"""Aggregate normalized profiles and compare rates against a curated reference.

Qualitative concordance bands (positive concordant at >= 50%, negative at
< 20%, indeterminate between) and the 5-point near/notable split for
out-of-range rates are pipeline conventions, kept in the constants below;
observed rates are rounded to integer percent (half-up) before any comparison.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Sequence

from .domain import NormalizedRecord, RateStat, round_percent
from .errors import ReferenceFileError, ValidationError
from .store import atomic_file

logger = logging.getLogger(__name__)

POSITIVE_CONCORDANT_MIN = 50
NEGATIVE_CONCORDANT_MAX = 20
NEAR_BAND_POINTS = 5


class ReferenceKind(str, Enum):
    RANGE = "range"
    POINT = "point"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NO_DATA = "no_data"


class ConcordanceCategory(str, Enum):
    WITHIN_RANGE = "WithinRange"
    OUT_OF_RANGE_NEAR = "OutOfRangeNear"
    OUT_OF_RANGE_NOTABLE = "OutOfRangeNotable"
    QUALITATIVE_CONCORDANT = "QualitativeConcordant"
    QUALITATIVE_DISCORDANT = "QualitativeDiscordant"
    QUALITATIVE_INDETERMINATE = "QualitativeIndeterminate"
    NO_REFERENCE = "NoReference"


@dataclass
class MarkerTumourAggregate:
    marker_cui: str
    marker_name: str
    tumour_cui: str
    tumour_name: str
    n_abstracts: int
    positives: int
    total: int
    rate: RateStat
    qualifier: str | None = None  # set only under split-qualifiers mode


@dataclass(frozen=True)
class ReferenceEntry:
    marker: str
    tumour: str
    kind: ReferenceKind
    low: int | None = None
    high: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (ReferenceKind.RANGE, ReferenceKind.POINT):
            if self.low is None or self.high is None:
                raise ReferenceFileError(
                    f"{self.marker}/{self.tumour}: kind {self.kind.value} needs low and high bounds"
                )
            if self.low > self.high:
                raise ReferenceFileError(f"{self.marker}/{self.tumour}: low {self.low} > high {self.high}")
            if self.low < 0 or self.high > 100:
                raise ReferenceFileError(f"{self.marker}/{self.tumour}: bounds {self.low}-{self.high} outside 0-100")
            if self.kind is ReferenceKind.POINT and self.low != self.high:
                raise ReferenceFileError(f"{self.marker}/{self.tumour}: point entry with low != high")
        elif self.low is not None or self.high is not None:
            raise ReferenceFileError(
                f"{self.marker}/{self.tumour}: kind {self.kind.value} must not carry bounds"
            )

    def display(self) -> str:
        if self.kind is ReferenceKind.RANGE:
            return f"{self.low}-{self.high}"
        if self.kind is ReferenceKind.POINT:
            return str(self.low)
        if self.kind is ReferenceKind.NO_DATA:
            return "no data"
        return self.kind.value


@dataclass
class ConcordanceResult:
    marker: str
    tumour: str
    observed: RateStat
    reference: ReferenceEntry
    category: ConcordanceCategory


def usable_records(records: Iterable[NormalizedRecord]) -> tuple[list[NormalizedRecord], dict[str, int]]:
    """The records aggregation sums, and the dropped counts by reason.

    A record is dropped for an invalid count, or when its marker or tumour
    type did not map to a concept. Every per-marker figure is computed over
    the same usable records, so marker totals agree with the aggregates.
    """
    usable = []
    dropped = {"invalid_count": 0, "unmapped": 0}
    for record in records:
        if "invalid_count" in record.flags:
            dropped["invalid_count"] += 1
        elif record.marker_cui is None or record.tumour_type_cui is None:
            dropped["unmapped"] += 1
        else:
            usable.append(record)
    return usable, dropped


def aggregate(
    records: Iterable[NormalizedRecord],
    split_qualifiers: bool = False,
) -> list[MarkerTumourAggregate]:
    """Sum positives/totals per (marker, tumour) pair over normalized records.

    Inputs must carry CUIs and valid counts (missing cells and flagged
    records are excluded upstream). Qualifiers collapse into the base
    marker unless split_qualifiers is set.
    """
    sums: dict[tuple, dict[str, Any]] = {}
    for record in records:
        qualifier = record.qualifier if split_qualifiers else None
        key = (record.marker_cui, record.tumour_type_cui, qualifier)
        entry = sums.setdefault(
            key,
            {
                "marker_name": record.marker_name or record.base_marker,
                "tumour_name": record.tumour_type_name or record.tumour_type,
                "positives": 0,
                "total": 0,
                "pmids": set(),
            },
        )
        entry["positives"] += record.positives
        entry["total"] += record.total
        entry["pmids"].add(record.pmid)
    out = []
    for (marker_cui, tumour_cui, qualifier), entry in sorted(
        sums.items(), key=lambda kv: (kv[0][0] or "", kv[0][1] or "", kv[0][2] or "")
    ):
        out.append(
            MarkerTumourAggregate(
                marker_cui=marker_cui,
                marker_name=entry["marker_name"],
                tumour_cui=tumour_cui,
                tumour_name=entry["tumour_name"],
                n_abstracts=len(entry["pmids"]),
                positives=entry["positives"],
                total=entry["total"],
                rate=RateStat(entry["positives"], entry["total"]),
                qualifier=qualifier,
            )
        )
    return out


@dataclass
class MarkerTotals:
    marker_cui: str
    marker_name: str
    n_abstracts: int
    positives: int
    total: int

    @property
    def rate(self) -> RateStat:
        return RateStat(self.positives, self.total)


def marker_totals(
    aggregates: Sequence[MarkerTumourAggregate],
    records: Iterable[NormalizedRecord],
) -> list[MarkerTotals]:
    """Per-marker totals, sorted by abstract count descending.

    Abstracts are counted as distinct PMIDs among the normalized records that
    were aggregated, since one abstract can report several tumours.
    """
    per_marker: dict[str, MarkerTotals] = {}
    abstract_sets: dict[str, set[str]] = {}
    for agg in aggregates:
        entry = per_marker.setdefault(
            agg.marker_cui,
            MarkerTotals(marker_cui=agg.marker_cui, marker_name=agg.marker_name, n_abstracts=0, positives=0, total=0),
        )
        entry.positives += agg.positives
        entry.total += agg.total
    for record in records:
        abstract_sets.setdefault(record.marker_cui, set()).add(record.pmid)
    for cui, pmids in abstract_sets.items():
        if cui in per_marker:
            per_marker[cui].n_abstracts = len(pmids)
    return sorted(per_marker.values(), key=lambda t: (-t.n_abstracts, t.marker_name))


def top_tumours(
    marker_cui: str,
    aggregates: Sequence[MarkerTumourAggregate],
    k: int = 5,
) -> list[MarkerTumourAggregate]:
    """The marker's k largest-cohort tumours; ties by tumour name ascending."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    mine = [a for a in aggregates if a.marker_cui == marker_cui]
    mine.sort(key=lambda a: (-a.total, a.tumour_name))
    return mine[:k]


class ReferenceTable:
    """Lookup of curated reference entries keyed by (marker, tumour), case-insensitive."""

    def __init__(self, entries: Sequence[ReferenceEntry]):
        self._by_key = {(_norm(e.marker), _norm(e.tumour)): e for e in entries}

    def lookup(self, marker: str, tumour: str) -> ReferenceEntry:
        entry = self._by_key.get((_norm(marker), _norm(tumour)))
        if entry is None:
            return ReferenceEntry(marker=marker, tumour=tumour, kind=ReferenceKind.NO_DATA)
        return entry


def _norm(text: str) -> str:
    return " ".join(text.lower().split())


def load_reference_csv(path: str | Path) -> ReferenceTable:
    """Read marker,tumour,kind,low,high rows (empty bounds for qualitative/no_data), no (marker, tumour) twice."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")  # a leading BOM, as Excel's "CSV UTF-8" writes, is dropped
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1  # the bytes after the BOM
        raise ReferenceFileError(f"{path}:{line}: not valid UTF-8") from None
    if "\0" in text:  # Python 3.10's csv module fails on it, later ones read it into a field
        line = text.count("\n", 0, text.index("\0")) + 1
        raise ReferenceFileError(f"{path}:{line}: contains a NUL byte")
    rows: dict[tuple[str, str], tuple[int, ReferenceEntry]] = {}  # key -> (line, entry)
    with io.StringIO(text, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"marker", "tumour", "kind", "low", "high"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ReferenceFileError(f"{path}: header must contain {sorted(required)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if any(row[name] is None for name in required):
                raise ReferenceFileError(f"{where}: expected {len(reader.fieldnames)} fields")
            try:
                kind = ReferenceKind(row["kind"].strip())
            except ValueError:
                raise ReferenceFileError(f"{where}: unknown kind {row['kind']!r}") from None
            try:
                low, high = (int(row[bound]) if row[bound].strip() else None for bound in ("low", "high"))
            except ValueError:
                raise ReferenceFileError(f"{where}: low and high must be integers or empty") from None
            marker, tumour = row["marker"].strip(), row["tumour"].strip()
            key = (_norm(marker), _norm(tumour))
            if key in rows:
                line, earlier = rows[key]
                raise ReferenceFileError(f"{where}: repeats {earlier.marker}/{earlier.tumour} from line {line}")
            try:
                rows[key] = reader.line_num, ReferenceEntry(marker=marker, tumour=tumour, kind=kind, low=low, high=high)
            except ReferenceFileError as exc:
                raise ReferenceFileError(f"{where}: {exc}") from None
    return ReferenceTable([entry for _, entry in rows.values()])


def select_reference_tumour(
    top: Sequence[MarkerTumourAggregate],
    references: ReferenceTable,
) -> tuple[MarkerTumourAggregate, ReferenceEntry]:
    """Pick the comparison tumour from a marker's top list.

    Preference order: largest tumour with a quantitative reference (range
    or point), else largest with a qualitative label, else the largest
    overall with no data.
    """
    if not top:
        raise ValidationError("select_reference_tumour needs a non-empty top list")
    looked_up = [(agg, references.lookup(agg.marker_name, agg.tumour_name)) for agg in top]
    for agg, entry in looked_up:
        if entry.kind in (ReferenceKind.RANGE, ReferenceKind.POINT):
            return agg, entry
    for agg, entry in looked_up:
        if entry.kind in (ReferenceKind.POSITIVE, ReferenceKind.NEGATIVE):
            return agg, entry
    return looked_up[0]


def compare(observed: RateStat, reference: ReferenceEntry) -> ConcordanceResult:
    """Classify an observed rate against one reference entry.

    The observed rate is rounded to an integer percent first. Range/point
    references are within-range inclusive of the bounds; misses within
    NEAR_BAND_POINTS of the closest bound are near, the rest notable.
    """
    if reference.kind is ReferenceKind.NO_DATA:
        return ConcordanceResult(
            marker=reference.marker,
            tumour=reference.tumour,
            observed=observed,
            reference=reference,
            category=ConcordanceCategory.NO_REFERENCE,
        )
    if observed.total == 0:
        raise ValidationError(
            f"{reference.marker}/{reference.tumour}: observed rate undefined (total = 0)"
        )
    r = int(round_percent(observed, 0))
    if reference.kind in (ReferenceKind.RANGE, ReferenceKind.POINT):
        if reference.low <= r <= reference.high:
            category = ConcordanceCategory.WITHIN_RANGE
        else:
            distance = reference.low - r if r < reference.low else r - reference.high
            category = (
                ConcordanceCategory.OUT_OF_RANGE_NEAR
                if distance <= NEAR_BAND_POINTS
                else ConcordanceCategory.OUT_OF_RANGE_NOTABLE
            )
    elif reference.kind is ReferenceKind.POSITIVE:
        if r >= POSITIVE_CONCORDANT_MIN:
            category = ConcordanceCategory.QUALITATIVE_CONCORDANT
        elif r >= NEGATIVE_CONCORDANT_MAX:
            category = ConcordanceCategory.QUALITATIVE_INDETERMINATE
        else:
            category = ConcordanceCategory.QUALITATIVE_DISCORDANT
    else:  # NEGATIVE
        category = (
            ConcordanceCategory.QUALITATIVE_CONCORDANT
            if r < NEGATIVE_CONCORDANT_MAX
            else ConcordanceCategory.QUALITATIVE_DISCORDANT
        )
    return ConcordanceResult(
        marker=reference.marker,
        tumour=reference.tumour,
        observed=observed,
        reference=reference,
        category=category,
    )


def summary_report(results: Sequence[ConcordanceResult]) -> dict[str, Any]:
    """Category histogram plus per-marker comparison rows."""
    histogram = {category.value: 0 for category in ConcordanceCategory}
    rows = []
    for result in results:
        histogram[result.category.value] += 1
        percent = (
            round_percent(result.observed, 0) if result.observed.total > 0 else None
        )
        rows.append(
            {
                "marker": result.marker,
                "tumour": result.tumour,
                "positives": result.observed.positives,
                "total": result.observed.total,
                "observed_percent": percent,
                "reference": result.reference.display(),
                "category": result.category.value,
            }
        )
    return {"histogram": histogram, "rows": rows}


def write_comparison_csv(report: dict[str, Any], path: str | Path) -> None:
    """The rows of a ``summary_report`` as CSV."""
    with atomic_file(path) as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=["marker", "tumour", "positives", "total", "observed_percent", "reference", "category"],
        )
        writer.writeheader()
        writer.writerows(report["rows"])
