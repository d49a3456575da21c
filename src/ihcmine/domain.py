"""Shared value types and exact-rational rate arithmetic.

Rates are kept as integer (positives, total) pairs and only turned into
decimal strings at report time, so re-aggregation never accumulates
floating-point drift. Percent rounding is half-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from fractions import Fraction


class ClassificationLabel(str, Enum):
    INCLUDE = "Include"
    EXCLUDE = "Exclude"


@dataclass(frozen=True)
class PositivityCount:
    """An X/Y cell: X positive cases out of Y tested.

    Instances may hold out-of-range values (e.g. parsed from a malformed
    model table); use :attr:`is_valid` where the invariant
    positives <= total, total >= 1 matters.
    """

    positives: int
    total: int

    @property
    def is_valid(self) -> bool:
        return self.total >= 1 and 0 <= self.positives <= self.total


@dataclass(frozen=True)
class CellValue:
    """A table cell: either a count or missing (rendered as the token NA)."""

    count: PositivityCount | None = None

    @property
    def is_missing(self) -> bool:
        return self.count is None

    def render(self) -> str:
        if self.count is None:
            return "NA"
        return f"{self.count.positives}/{self.count.total}"


MISSING = CellValue(None)


@dataclass(frozen=True)
class RateStat:
    """Exact positivity rate: 100 * positives / total, kept as a rational."""

    positives: int
    total: int

    def __post_init__(self) -> None:
        if self.positives < 0 or self.total < 0:
            raise ValidationError(f"negative count in rate {self.positives}/{self.total}")
        if self.total > 0 and self.positives > self.total:
            raise ValidationError(f"rate above 100%: {self.positives}/{self.total}")

    @property
    def rate_percent(self) -> Fraction | None:
        from fractions import Fraction  # not at module level: every stage imports this module

        if self.total == 0:
            return None
        return Fraction(100 * self.positives, self.total)


def format_percent(value: Fraction, decimals: int) -> str:
    """Half-up decimal string of a non-negative rational, deterministic."""
    from fractions import Fraction

    if decimals not in (0, 1):
        raise ValidationError(f"decimals must be 0 or 1, got {decimals}")
    if value < 0:
        raise ValidationError("cannot format a negative percentage")
    scale = 10 ** decimals
    quantized = math.floor(value * scale + Fraction(1, 2))
    if decimals == 0:
        return str(quantized)
    return f"{quantized // scale}.{quantized % scale}"


def round_percent(rate: RateStat, decimals: int) -> str:
    """Render a rate as a percent string with 0 or 1 decimals, half-up."""
    percent = rate.rate_percent
    if percent is None:
        raise ValidationError("rate is undefined for total = 0")
    return format_percent(percent, decimals)


@dataclass
class AbstractRecord:
    """One PubMed abstract plus which marker queries retrieved it."""

    pmid: str
    title: str
    abstract_text: str
    source_markers: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not (self.pmid.isascii() and self.pmid.isdigit()):
            raise ValidationError(f"pmid must be a non-empty string of ASCII digits, got {self.pmid!r}")
        if not self.source_markers:
            raise ValidationError(f"record {self.pmid}: source_markers must be non-empty")


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
