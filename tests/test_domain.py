"""Rate arithmetic, rounding oracle agreement, and serialization round trips."""

import json
import random
from decimal import ROUND_HALF_UP, Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ihcmine.codec import decode, encode
from ihcmine.domain import (
    MISSING,
    AbstractRecord,
    CellValue,
    ClassificationLabel,
    PositivityCount,
    RateStat,
    format_percent,
    round_percent,
)
from ihcmine.errors import ValidationError

getcontext().prec = 60


def checked_rate(positives: int, total: int) -> RateStat:
    """The exact rate of a count that must be valid."""
    assert PositivityCount(positives, total).is_valid, (positives, total)
    return RateStat(positives, total)


def decimal_percent(positives: int, total: int, decimals: int) -> str:
    """Independent rounding oracle on the decimal module."""
    quantum = Decimal("1") if decimals == 0 else Decimal("0.1")
    value = (Decimal(100 * positives) / Decimal(total)).quantize(quantum, rounding=ROUND_HALF_UP)
    return str(value)


class TestComputeRate:
    def test_reported_one_decimal_rates(self):
        assert round_percent(checked_rate(53442, 111423), 1) == "48.0"
        assert round_percent(checked_rate(21104, 31263), 1) == "67.5"

    def test_zero_positives(self):
        assert round_percent(checked_rate(0, 13), 0) == "0"

    def test_exact_fraction(self):
        assert checked_rate(1, 3).rate_percent == Fraction(100, 3)

    @given(total=st.integers(min_value=1, max_value=10_000), data=st.data())
    def test_monotone_in_positives(self, total, data):
        a = data.draw(st.integers(min_value=0, max_value=total))
        b = data.draw(st.integers(min_value=0, max_value=total))
        low, high = sorted((a, b))
        assert checked_rate(low, total).rate_percent <= checked_rate(high, total).rate_percent


class TestRoundPercent:
    def test_one_decimal(self):
        assert round_percent(checked_rate(8082, 31601), 1) == "25.6"

    def test_integer(self):
        assert round_percent(checked_rate(3410, 4315), 0) == "79"

    def test_zero(self):
        assert round_percent(checked_rate(0, 13), 0) == "0"

    def test_half_up_at_boundary(self):
        assert round_percent(checked_rate(1, 2), 0) == "50"
        assert format_percent(Fraction(495, 10), 0) == "50"
        assert format_percent(Fraction(45, 1000) * 100, 1) == "4.5"

    def test_bad_decimals_rejected(self):
        with pytest.raises(ValidationError):
            round_percent(checked_rate(1, 2), 2)

    def test_undefined_rate_rejected(self):
        with pytest.raises(ValidationError):
            round_percent(RateStat(0, 0), 0)

    def test_agrees_with_decimal_oracle_on_random_pairs(self):
        rng = random.Random(1729)
        for _ in range(1000):
            total = rng.randint(1, 200_000)
            positives = rng.randint(0, total)
            rate = checked_rate(positives, total)
            for decimals in (0, 1):
                assert round_percent(rate, decimals) == decimal_percent(positives, total, decimals), (
                    positives,
                    total,
                    decimals,
                )


class TestCellValue:
    def test_missing_renders_na(self):
        assert MISSING.render() == "NA"

    def test_count_renders_fraction(self):
        assert CellValue(PositivityCount(17, 155)).render() == "17/155"

    def test_is_missing(self):
        assert MISSING.is_missing
        assert not CellValue(PositivityCount(0, 1)).is_missing


class TestSerialization:
    def test_abstract_record_round_trip(self):
        record = AbstractRecord(
            pmid="21691200",
            title="S100A4 in renal tumours",
            abstract_text="Stromal staining was seen in 83% of cases.",
            source_markers={"S100", "CD34"},
        )
        reloaded = decode(AbstractRecord, json.loads(json.dumps(encode(record))))
        assert reloaded == record

    def test_rate_stat_round_trip(self):
        rate = RateStat(53442, 111423)
        assert decode(RateStat, json.loads(json.dumps(encode(rate)))) == rate

    def test_label_values(self):
        assert {label.value for label in ClassificationLabel} == {"Include", "Exclude"}

    def test_pmid_must_be_digits(self):
        with pytest.raises(ValidationError):
            AbstractRecord(pmid="abc", title="", abstract_text="x", source_markers={"ER"})

    def test_pmid_must_be_ascii_digits(self):
        with pytest.raises(ValidationError):  # Arabic-Indic digits, which str.isdigit() accepts
            AbstractRecord(pmid="\u0661\u0662", title="", abstract_text="x", source_markers={"ER"})

    def test_source_markers_must_be_non_empty(self):
        with pytest.raises(ValidationError):
            AbstractRecord(pmid="123", title="", abstract_text="x", source_markers=set())
