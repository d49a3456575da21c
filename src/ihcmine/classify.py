"""Include/Exclude classification stage and its metrics.

Unparseable completions are quarantined, never silently mapped to Exclude:
defaulting would bias recall. Metrics are exact rationals with Include as
the positive class.
"""

from __future__ import annotations

import logging
import re
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from .domain import AbstractRecord, ClassificationLabel
from .errors import GatewayError, UnparseableLabelError, ValidationError
from .gateway import LlmGateway, template_hash

if TYPE_CHECKING:
    from fractions import Fraction

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[A-Za-z]+")

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ClassifiedAbstract:
    pmid: str
    label: ClassificationLabel
    raw_output: str
    model_id: str
    prompt_hash: str


@dataclass
class QuarantineEntry:
    pmid: str
    stage: str
    reason: str
    raw_output: str = ""


def parse_label(raw: str) -> ClassificationLabel:
    """Case-insensitive match of the first alphabetic token against include/exclude."""
    m = _TOKEN_RE.search(raw)
    token = m.group(0).lower() if m else ""
    if token == "include":
        return ClassificationLabel.INCLUDE
    if token == "exclude":
        return ClassificationLabel.EXCLUDE
    raise UnparseableLabelError(f"completion {raw!r} contains neither Include nor Exclude")


def map_ordered(items: Iterable[T], fn: Callable[[T], R], max_workers: int) -> Iterator[R]:
    """``fn`` over ``items`` on a thread pool, yielding results in input order.

    At most ``2 * max_workers`` calls are submitted ahead of the consumer,
    so a long input never has all its futures queued at once. The caller's
    thread receives every result, which keeps it the only store writer. If
    ``fn`` raises, or the consumer stops early (an exception, Ctrl-C,
    ``close()``), calls not yet started are cancelled.
    """
    window = 2 * max_workers
    pending: deque[Future[R]] = deque()
    pool = ThreadPoolExecutor(max_workers=max_workers)
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def iter_classified(
    records: Iterable[AbstractRecord],
    gateway: LlmGateway,
    max_workers: int = 4,
) -> Iterator[ClassifiedAbstract | QuarantineEntry]:
    """Classify records, yielding results in input order as they complete."""
    prompt_digest = template_hash("classify")

    def one(record: AbstractRecord) -> ClassifiedAbstract | QuarantineEntry:
        try:
            raw = gateway.chat("classify", record)
        except GatewayError as exc:
            return QuarantineEntry(pmid=record.pmid, stage="classify", reason=f"gateway: {exc}")
        try:
            label = parse_label(raw)
        except UnparseableLabelError as exc:
            return QuarantineEntry(pmid=record.pmid, stage="classify", reason=str(exc), raw_output=raw)
        return ClassifiedAbstract(
            pmid=record.pmid,
            label=label,
            raw_output=raw,
            model_id=gateway.model_id,
            prompt_hash=prompt_digest,
        )

    yield from map_ordered(records, one, max_workers)


@dataclass(frozen=True)
class ClassificationMetrics:
    """Confusion counts and exact-rational derived metrics; Include is positive."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> Fraction:
        return _ratio(self.tp + self.tn, self.n)

    @property
    def precision(self) -> Fraction:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> Fraction:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> Fraction:
        return _ratio(2 * self.tp, 2 * self.tp + self.fp + self.fn)


def _ratio(numerator: int, denominator: int) -> Fraction:
    """The exact ratio, or 0 for a zero denominator."""
    from fractions import Fraction  # not at module level: classify and extract load this module

    return Fraction(numerator, denominator) if denominator else Fraction(0)


def evaluate(
    preds: Sequence[ClassificationLabel],
    golds: Sequence[ClassificationLabel],
) -> ClassificationMetrics:
    """Confusion-matrix metrics over PMID-aligned label vectors."""
    if len(preds) != len(golds):
        raise ValidationError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    tp = fp = fn = tn = 0
    for pred, gold in zip(preds, golds):
        if gold is ClassificationLabel.INCLUDE:
            if pred is ClassificationLabel.INCLUDE:
                tp += 1
            else:
                fn += 1
        else:
            if pred is ClassificationLabel.INCLUDE:
                fp += 1
            else:
                tn += 1
    return ClassificationMetrics(tp=tp, fp=fp, fn=fn, tn=tn)
