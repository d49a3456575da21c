"""Label parsing, corpus classification with a stub gateway, the ordered runner, metrics oracle."""

import random
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ihcmine.classify import (
    ClassifiedAbstract,
    QuarantineEntry,
    evaluate,
    iter_classified,
    map_ordered,
    parse_label,
)
from ihcmine.codec import decode, encode
from ihcmine.domain import AbstractRecord, ClassificationLabel, format_percent
from ihcmine.errors import GatewayError, UnparseableLabelError, ValidationError

INCLUDE = ClassificationLabel.INCLUDE
EXCLUDE = ClassificationLabel.EXCLUDE


class StubGateway:
    """Returns a canned completion per pmid (matched from the prompt text)."""

    model_id = "stub-model"

    def __init__(self, outputs, fail_for=()):
        self.outputs = outputs
        self.fail_for = set(fail_for)

    def chat(self, request):
        for pmid, output in self.outputs.items():
            if f"pmid:{pmid}" in request.user_prompt:
                if pmid in self.fail_for:
                    raise GatewayError("injected outage")
                return output
        raise AssertionError("prompt did not mention a known pmid")


def record(pmid):
    return AbstractRecord(
        pmid=pmid,
        title=f"Study {pmid}",
        abstract_text=f"Abstract body pmid:{pmid} with counts 5/10.",
        source_markers={"ER"},
    )


class TestParseLabel:
    def test_include(self):
        assert parse_label("Include") is INCLUDE

    def test_exclude_with_noise(self):
        assert parse_label("  exclude.") is EXCLUDE

    def test_case_insensitive(self):
        assert parse_label("INCLUDE\n") is INCLUDE

    def test_unparseable(self):
        with pytest.raises(UnparseableLabelError):
            parse_label("maybe")

    def test_first_token_only(self):
        with pytest.raises(UnparseableLabelError):
            parse_label("I would Include this")


def classify_all(records, gateway, max_workers=4):
    results = list(iter_classified(records, gateway, max_workers=max_workers))
    classified = [r for r in results if isinstance(r, ClassifiedAbstract)]
    quarantined = [r for r in results if isinstance(r, QuarantineEntry)]
    counts = {
        "include": sum(1 for c in classified if c.label is INCLUDE),
        "exclude": sum(1 for c in classified if c.label is EXCLUDE),
        "quarantined": len(quarantined),
    }
    return classified, quarantined, counts


class TestClassifyCorpus:
    def test_counts(self):
        pmids = [str(100 + i) for i in range(10)]
        outputs = {p: ("Include" if i < 6 else "Exclude") for i, p in enumerate(pmids)}
        records = [record(p) for p in pmids]
        classified, quarantined, counts = classify_all(records, StubGateway(outputs))
        assert counts == {"include": 6, "exclude": 4, "quarantined": 0}
        assert [c.pmid for c in classified] == pmids
        assert all(c.model_id == "stub-model" and c.prompt_hash for c in classified)

    def test_empty_corpus(self):
        _, _, counts = classify_all([], StubGateway({}))
        assert counts == {"include": 0, "exclude": 0, "quarantined": 0}

    def test_unparseable_output_quarantined(self):
        records = [record("1"), record("2")]
        outputs = {"1": "Include", "2": "maybe"}
        classified, quarantined, counts = classify_all(records, StubGateway(outputs))
        assert counts == {"include": 1, "exclude": 0, "quarantined": 1}
        assert quarantined[0].pmid == "2"
        assert quarantined[0].raw_output == "maybe"

    def test_gateway_failure_quarantined_with_reason(self):
        records = [record("1"), record("2")]
        outputs = {"1": "Include", "2": "Exclude"}
        _, quarantined, counts = classify_all(records, StubGateway(outputs, fail_for={"2"}))
        assert counts["quarantined"] == 1
        assert "gateway" in quarantined[0].reason

    def test_serialization_round_trip(self):
        item = ClassifiedAbstract(pmid="1", label=INCLUDE, raw_output="Include", model_id="m", prompt_hash="h")
        assert decode(ClassifiedAbstract, encode(item)) == item
        entry = QuarantineEntry(pmid="2", stage="classify", reason="r", raw_output="maybe")
        assert decode(QuarantineEntry, encode(entry)) == entry


class TestMapOrdered:
    def test_input_order_kept_when_later_items_finish_first(self):
        finished = []
        lock = threading.Lock()

        def slow_first(i):
            time.sleep(0.02 * (5 - i))
            with lock:
                finished.append(i)
            return i * 10

        assert list(map_ordered(range(6), slow_first, max_workers=6)) == [0, 10, 20, 30, 40, 50]
        assert finished[0] != 0  # the runner really did finish later items first

    def test_at_most_two_windows_of_workers_submitted_before_first_result(self):
        pulled = []

        def items():
            for i in range(100):
                pulled.append(i)
                yield i

        results = map_ordered(items(), lambda i: i, max_workers=3)
        assert next(results) == 0
        assert len(pulled) <= 2 * 3 + 1  # one window, plus the item whose arrival pops the first result
        assert list(results) == list(range(1, 100))

    def test_exception_stops_submission_after_the_window(self):
        called = []
        lock = threading.Lock()
        k, workers = 5, 2

        def fn(i):
            with lock:
                called.append(i)
            if i == k:
                raise RuntimeError("boom")
            return i

        results = map_ordered(range(1000), fn, max_workers=workers)
        with pytest.raises(RuntimeError, match="boom"):
            list(results)
        assert max(called) < k + 2 * workers

    def test_closing_early_cancels_queued_work(self):
        started = []
        gate = threading.Event()

        def fn(i):
            started.append(i)
            if i > 0:
                gate.wait(5)
            return i

        # two workers, window four: after 0 is consumed, 1 and 2 are queued or block the
        # workers until the gate opens, and 3 cannot start before then
        results = map_ordered(range(50), fn, max_workers=2)
        assert next(results) == 0
        opener = threading.Timer(0.2, gate.set)
        opener.start()
        results.close()  # as on Ctrl-C in the consumer
        opener.join(5)
        assert not opener.is_alive()
        assert 0 in started and max(started) <= 2


def oracle_metrics(preds, golds):
    """Brute-force confusion matrix counted pairwise, exact rationals."""
    tp = sum(1 for p, g in zip(preds, golds) if p is INCLUDE and g is INCLUDE)
    fp = sum(1 for p, g in zip(preds, golds) if p is INCLUDE and g is EXCLUDE)
    fn = sum(1 for p, g in zip(preds, golds) if p is EXCLUDE and g is INCLUDE)
    tn = sum(1 for p, g in zip(preds, golds) if p is EXCLUDE and g is EXCLUDE)
    n = len(preds)
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
        "accuracy": Fraction(tp + tn, n) if n else Fraction(0),
        "precision": Fraction(tp, tp + fp) if tp + fp else Fraction(0),
        "recall": Fraction(tp, tp + fn) if tp + fn else Fraction(0),
        "f1": Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0),
    }


def build_labels(tp, fp, fn, tn):
    golds = [INCLUDE] * (tp + fn) + [EXCLUDE] * (fp + tn)
    preds = [INCLUDE] * tp + [EXCLUDE] * fn + [INCLUDE] * fp + [EXCLUDE] * tn
    return preds, golds


class TestEvaluate:
    def test_reconstructed_confusion_matrix(self):
        # the one integer matrix over a 98/102 split that rounds to 91.5 / 91.4
        preds, golds = build_labels(tp=90, fp=9, fn=8, tn=93)
        metrics = evaluate(preds, golds)
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (90, 9, 8, 93)
        assert format_percent(metrics.accuracy * 100, 1) == "91.5"
        assert format_percent(metrics.f1 * 100, 1) == "91.4"

    def test_all_correct(self):
        preds, golds = build_labels(tp=10, fp=0, fn=0, tn=10)
        metrics = evaluate(preds, golds)
        assert metrics.accuracy == 1
        assert metrics.f1 == 1

    def test_all_predicted_exclude(self):
        preds, golds = build_labels(tp=0, fp=0, fn=98, tn=102)
        metrics = evaluate(preds, golds)
        assert metrics.accuracy == Fraction(102, 200)
        assert metrics.f1 == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate([INCLUDE], [INCLUDE, EXCLUDE])

    def test_matches_oracle_on_random_vectors(self):
        rng = random.Random(31337)
        for _ in range(300):
            n = 200
            preds = [INCLUDE if rng.random() < 0.5 else EXCLUDE for _ in range(n)]
            golds = [INCLUDE if rng.random() < 0.49 else EXCLUDE for _ in range(n)]
            metrics = evaluate(preds, golds)
            expected = oracle_metrics(preds, golds)
            assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (
                expected["tp"],
                expected["fp"],
                expected["fn"],
                expected["tn"],
            )
            assert metrics.accuracy == expected["accuracy"]
            assert metrics.precision == expected["precision"]
            assert metrics.recall == expected["recall"]
            assert metrics.f1 == expected["f1"]

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=50))
    def test_f1_invariant_under_pair_permutation(self, pairs):
        preds = [INCLUDE if p else EXCLUDE for p, _ in pairs]
        golds = [INCLUDE if g else EXCLUDE for _, g in pairs]
        rng = random.Random(12)
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled = evaluate([preds[i] for i in order], [golds[i] for i in order])
        straight = evaluate(preds, golds)
        assert shuffled.f1 == straight.f1
        assert shuffled.accuracy == straight.accuracy
