"""Pipeline orchestration: one subcommand per stage.

Exit codes: 0 success, 1 usage error, 2 stage failure. Each stage reads the
previous stage's output from the run directory that ``--run-dir`` names and
writes its own; a stage read that is missing, unfinished or stale, or was
built from such a stage, fails with its producer (``provenance``).

Each setting is declared once, on its flag in ``build_parser``: its default,
its environment variable and its bounds. A flag beats the environment
variable, which beats the default; an empty variable is ignored. A value out
of bounds exits 2 before any run directory exists.

Every stage is its own process, so this module imports at load time only
what every command uses, plus the names a tracer patches here
(``dedup_merge``, ``extract_table``, ``parse_markdown_table``); a command
imports the rest itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .codec import decode, encode
from .domain import AbstractRecord, ClassificationLabel, NormalizedRecord, format_percent, round_percent
from .errors import ConfigError, GatewayError, PipelineError, TableNotFoundError, ValidationError
from .pubmed import DEFAULT_BASE_URL, MAX_CAP, CorpusStats, EntrezClient, dedup_merge
from .provenance import current_inputs, gate, require_stage
from .store import RunLock, RunStore, atomic_file, iter_jsonl
from .tables import ProfileTable, extract_table, parse_markdown_table
from .transport import MAX_RETRIES, MAX_WAIT_S

if TYPE_CHECKING:
    from .gateway import LlmGateway

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve 2 for stage failures
        raise UsageError(f"{self.prog}: {message}")

    def parse_known_args(self, args: list[str] | None = None, namespace: argparse.Namespace | None = None):
        """Replaces each ``@file`` argument by its flags: UTF-8 lines, split as a POSIX shell would, ``#`` comments dropped."""
        import shlex

        expanded = []
        for arg in sys.argv[1:] if args is None else args:
            if not arg.startswith("@"):
                expanded.append(arg)
                continue
            try:
                lines = Path(arg[1:]).read_text(encoding="utf-8").splitlines()
                expanded.extend(word for line in lines for word in shlex.split(line, comments=True))
            except (OSError, ValueError) as exc:  # ValueError: an unbalanced quote, or bytes that are not UTF-8
                raise UsageError(f"{self.prog}: cannot read {arg}: {exc}") from None
        return super().parse_known_args(expanded, namespace)


def _checked(name: str, convert: Callable[[str], Any], ok: Callable[[Any], bool], bound: str) -> Callable[[str], Any]:
    """A flag type: ``convert``, then ``ConfigError`` for a float that is not finite or a value not ``ok``."""

    def check(text: str) -> Any:
        value = convert(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value}")
        if not ok(value):
            raise ConfigError(f"{name} must be {bound}, got {value}")
        return value

    check.__name__ = convert.__name__  # what argparse names in "invalid int value"
    return check


def _api_key(text: str) -> str:
    if any(c in text for c in "\r\n\0"):
        raise ConfigError("llm_api_key must not contain CR, LF or NUL")  # the key itself stays out of the message
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--run-dir", dest="run_dir", required=True, help="run directory")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _add_transport_flags(parser: argparse.ArgumentParser) -> None:
    retries = _checked("retries", int, lambda n: 1 <= n <= MAX_RETRIES, f"in [1, {MAX_RETRIES}]")
    parser.add_argument("--retries", dest="retries", type=retries, default=3)
    backoff = _checked("backoff_base", float, lambda s: s >= 0, ">= 0")
    parser.add_argument("--backoff", dest="backoff_base", type=backoff, default=1.0)
    timeout = _checked("timeout", float, lambda s: 0 < s <= MAX_WAIT_S, f"in (0, {MAX_WAIT_S:g}] seconds")
    parser.add_argument("--timeout", dest="timeout", type=timeout, default=60.0)


def _add_gateway_flags(parser: argparse.ArgumentParser) -> None:
    llm_base_url = os.environ.get("LLM_BASE_URL") or "http://localhost:8000"
    parser.add_argument("--llm-base", dest="llm_base_url", default=llm_base_url, help="chat-completions base URL")
    parser.add_argument("--llm-model", dest="llm_model", default=os.environ.get("LLM_MODEL") or "default")
    parser.add_argument("--llm-key", dest="llm_api_key", type=_api_key, default=os.environ.get("LLM_API_KEY") or None)
    emb_base_url = os.environ.get("EMB_BASE_URL") or None  # None: the chat endpoint's
    parser.add_argument("--emb-base", dest="emb_base_url", default=emb_base_url, help="embeddings base URL")
    parser.add_argument("--emb-model", dest="emb_model", default=os.environ.get("EMB_MODEL") or None)
    concurrency = _checked("llm_concurrency", int, lambda n: n >= 1, ">= 1")
    parser.add_argument("--concurrency", dest="llm_concurrency", type=concurrency, default=4)
    _add_transport_flags(parser)


def build_parser() -> _Parser:
    """The command line. A setting's flag holds its default, its environment variable and its bounds."""
    parser = _Parser(prog="ihcmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="search PubMed per marker and build the deduplicated corpus")
    _add_common(p)
    p.add_argument(
        "--markers", dest="markers_path", default="data/markers.txt", help="file with one marker name per line"
    )
    cap = _checked("cap", int, lambda n: 1 <= n <= MAX_CAP, f"in [1, {MAX_CAP}]")
    p.add_argument("--cap", dest="cap", type=cap, default=MAX_CAP, help=f"max abstracts per marker (<= {MAX_CAP})")
    entrez_base_url = os.environ.get("ENTREZ_BASE_URL") or DEFAULT_BASE_URL
    p.add_argument("--entrez-base", dest="entrez_base_url", default=entrez_base_url)
    p.add_argument("--ncbi-key", dest="ncbi_api_key", default=os.environ.get("NCBI_API_KEY") or None)
    window = f"at least 1/{MAX_WAIT_S:g} (one request per window of at most {MAX_WAIT_S:g} s)"
    rps = _checked("requests_per_second", float, lambda r: r >= 1 / MAX_WAIT_S, window)
    # unset: 3/s, or 10/s with an API key
    p.add_argument("--rps", dest="requests_per_second", type=rps, help="request budget per second")
    _add_transport_flags(p)

    p = sub.add_parser("classify", help="label corpus abstracts Include/Exclude via the LLM")
    _add_common(p)
    _add_gateway_flags(p)
    p.add_argument("--retry-quarantined", action="store_true", help="reprocess quarantined PMIDs")

    p = sub.add_parser("extract", help="extract a profile table per Include abstract")
    _add_common(p)
    _add_gateway_flags(p)

    p = sub.add_parser("normalize", help="map tumour/marker surfaces to dictionary concepts")
    _add_common(p)
    _add_gateway_flags(p)
    p.add_argument("--dictionary", dest="dictionary_path", required=True, help="concept dictionary TSV")
    max_distance = _checked("max_distance", float, lambda d: d >= 0, ">= 0")
    p.add_argument("--max-dist", dest="max_distance", type=max_distance, help="flag mappings beyond this distance")

    p = sub.add_parser("aggregate", help="sum positives/cohorts per (marker, tumour)")
    _add_common(p)
    p.add_argument("--split-qualifiers", dest="split_qualifiers", action="store_true")

    p = sub.add_parser("compare", help="compare aggregated rates against the curated reference")
    _add_common(p)
    reference_help = "reference CSV (marker,tumour,kind,low,high)"
    p.add_argument("--reference", dest="reference_path", default="data/reference.csv", help=reference_help)

    p = sub.add_parser("report", help="write the marker totals report")
    _add_common(p)

    p = sub.add_parser("eval-classify", help="score predictions against gold Include/Exclude labels")
    _add_common(p)
    p.add_argument("--gold", required=True, help="gold JSONL with pmid and label fields")
    p.add_argument("--pred", help="predictions JSONL (default: run's classified.jsonl)")

    p = sub.add_parser("eval-tables", help="score predicted tables against gold tables")
    _add_common(p)
    p.add_argument("--gold", required=True, help="gold tables JSONL")
    p.add_argument("--pred", help="predicted tables JSONL (default: run's tables_parsed.jsonl)")
    p.add_argument("--abstracts", help="corpus JSONL for percent-tolerance context (default: run's corpus.jsonl)")

    return parser


def _make_gateway(args: argparse.Namespace) -> LlmGateway:
    from .gateway import LlmGateway

    return LlmGateway(
        llm_base_url=args.llm_base_url,
        model_id=args.llm_model,
        emb_base_url=args.emb_base_url,
        emb_model_id=args.emb_model,
        api_key=args.llm_api_key,
        retries=args.retries,
        backoff_base=args.backoff_base,
        timeout=args.timeout,
    )


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    with atomic_file(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- stage commands -----------------------------------------------------------


def cmd_fetch(args: argparse.Namespace, store: RunStore) -> int:
    markers_file = Path(args.markers_path)
    try:
        text = markers_file.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise PipelineError(f"{markers_file}: not valid UTF-8: {exc}") from None
    lines = (line.strip() for line in text.splitlines())
    markers = list(dict.fromkeys(m for m in lines if m and not m.startswith("#")))
    if not markers:
        raise PipelineError(f"markers file {markers_file} is empty")

    client = EntrezClient(
        base_url=args.entrez_base_url,
        api_key=args.ncbi_api_key,
        requests_per_second=args.requests_per_second,
        retries=args.retries,
        backoff_base=args.backoff_base,
        timeout=args.timeout,
    )
    try:
        hits = []
        for marker in markers:
            pmids = client.search_pmids(marker, cap=args.cap)
            logger.info("marker %s: %d PMIDs", marker, len(pmids))
            hits.append((marker, pmids))
        sources = dedup_merge(hits)
        corpus, skipped = client.fetch_abstracts(sources) if sources else ([], [])
    finally:
        client.close()
    if skipped:
        logger.info("%d of %d unique PMIDs had no abstract", len(skipped), len(sources))
    stats = CorpusStats(per_marker_counts=dict.fromkeys(markers, 0), total_unique=len(corpus))
    for record in corpus:
        for marker in record.source_markers:
            stats.per_marker_counts[marker] += 1
    _write_json(store.run_dir / "corpus_stats.json", encode(stats))
    count = store.write_stage_atomic("corpus", map(encode, corpus), note=f"skipped_no_abstract={len(skipped)}")
    print(f"fetched {count} unique abstracts across {len(markers)} markers")
    return 0


def _record_stage(
    store: RunStore, stage: str, tag: str, records: Iterable[dict[str, Any]], results: Callable[[Iterator], Iterable]
) -> None:
    """Runs a record-wise stage from where an earlier run of it stopped.

    ``results`` maps the upstream records not yet written, in order, to one result each:
    a ``QuarantineEntry`` tagged ``tag``, or the stage's record as a dict or a dataclass.
    A PMID written to the stage file or quarantined under ``tag`` is skipped.
    """
    from .classify import QuarantineEntry

    store.start_stage(stage)
    skip = store.processed_ids(stage) | {q["pmid"] for q in store.iter_records("quarantine") if q["stage"] == tag}
    for result in results(record for record in records if record["pmid"] not in skip):
        target = "quarantine" if isinstance(result, QuarantineEntry) else stage
        store.append(target, result if isinstance(result, dict) else encode(result))


def cmd_classify(args: argparse.Namespace, store: RunStore) -> int:
    from . import classify as classify_mod

    if args.retry_quarantined:
        # extract never re-reads classified, so an abstract relabelled Include now would get no table
        status = store.stage_info("tables_raw").status
        if status != "pending":
            raise PipelineError(f"tables_raw is {status}; quarantined classify records must be retried before extract")
        entries = [decode(classify_mod.QuarantineEntry, d) for d in store.iter_records("quarantine")]
        keep = [q for q in entries if q.stage != "classify"]
        if store.stage_done("classified"):  # only --retry-quarantined gets past the gate to a done stage
            if len(keep) == len(entries):
                print("no quarantined classify records to retry")
                return 0
            store.reopen_stage("classified")
        store.write_aux_atomic("quarantine", map(encode, keep))

    gateway = _make_gateway(args)

    def classified(pending: Iterator[dict[str, Any]]) -> Iterator[Any]:
        records = (decode(AbstractRecord, d) for d in pending)
        return classify_mod.iter_classified(records, gateway, max_workers=args.llm_concurrency)

    try:
        _record_stage(store, "classified", "classify", store.iter_records("corpus"), classified)
    finally:
        gateway.close()
    counts = {"include": 0, "exclude": 0, "quarantined": 0}
    for record in store.iter_records("classified"):
        counts["include" if record["label"] == "Include" else "exclude"] += 1
    counts["quarantined"] = sum(1 for q in store.iter_records("quarantine") if q["stage"] == "classify")
    store.mark_done("classified", note=json.dumps(counts, sort_keys=True))
    print(f"classified: {counts['include']} Include, {counts['exclude']} Exclude, {counts['quarantined']} quarantined")
    return 0


def cmd_extract(args: argparse.Namespace, store: RunStore) -> int:
    from . import classify as classify_mod

    corpus = {d["pmid"]: d for d in store.iter_records("corpus")}
    include_pmids = [
        d["pmid"] for d in store.iter_records("classified") if d["label"] == ClassificationLabel.INCLUDE.value
    ]

    if not store.stage_done("tables_raw"):
        for pmid in include_pmids:
            if pmid not in corpus:
                logger.warning("pmid %s classified but missing from corpus", pmid)
        gateway = _make_gateway(args)

        def extract_one(d: dict[str, Any]) -> dict[str, str] | classify_mod.QuarantineEntry:
            record = decode(AbstractRecord, d)
            try:
                return {"pmid": record.pmid, "markdown": extract_table(record, gateway)}
            except GatewayError as exc:
                return classify_mod.QuarantineEntry(pmid=record.pmid, stage="extract", reason=f"gateway: {exc}")

        includes = (corpus[pmid] for pmid in include_pmids if pmid in corpus)
        extracted = functools.partial(classify_mod.map_ordered, fn=extract_one, max_workers=args.llm_concurrency)
        try:
            _record_stage(store, "tables_raw", "extract", includes, extracted)
        finally:
            gateway.close()
        store.mark_done("tables_raw")

    if not store.stage_done("tables_parsed"):
        store.stage_info("tables_parsed").inputs = current_inputs("tables_parsed", args, store)  # tables_raw is done

        def parse_one(raw: dict[str, Any]) -> ProfileTable | classify_mod.QuarantineEntry:
            try:
                return parse_markdown_table(raw["markdown"], pmid=raw["pmid"])
            except TableNotFoundError as exc:
                return classify_mod.QuarantineEntry(
                    pmid=raw["pmid"], stage="parse", reason=str(exc), raw_output=raw["markdown"]
                )

        raw_tables = store.iter_records("tables_raw")
        _record_stage(store, "tables_parsed", "parse", raw_tables, functools.partial(map, parse_one))
        store.mark_done("tables_parsed")
    parsed = store.stage_info("tables_parsed").count or 0
    print(f"extracted {parsed} profile tables from {len(include_pmids)} Include abstracts")
    return 0


def cmd_normalize(args: argparse.Namespace, store: RunStore) -> int:
    from . import normalize as normalize_mod  # numpy: loaded only by the stage that searches vectors

    recorded = store.stage_info("normalized").inputs["dictionary_path"]  # the digest the gate just took
    index = normalize_mod.load_index(args.dictionary_path, sha256=recorded)
    gateway = _make_gateway(args)
    normalizer = normalize_mod.TermNormalizer(gateway, index, max_distance=args.max_distance)

    def tables():
        return (decode(ProfileTable, d) for d in store.iter_records("tables_parsed"))

    try:
        normalizer.prefetch(surface for table in tables() for surface in normalize_mod.table_surfaces(table))
        records = (record for table in tables() for record in normalize_mod.normalize_table(table, normalizer))
        count = store.write_stage_atomic("normalized", map(encode, records))
    finally:
        gateway.close()
    print(f"normalized {count} marker-cell records against {len(index)} dictionary entries")
    return 0


def cmd_aggregate(args: argparse.Namespace, store: RunStore) -> int:
    from . import landscape as landscape_mod

    usable, dropped = landscape_mod.usable_records(
        decode(NormalizedRecord, d) for d in store.iter_records("normalized")
    )
    if any(dropped.values()):
        logger.warning(
            "aggregate: dropped %d invalid-count and %d unmapped records",
            dropped["invalid_count"],
            dropped["unmapped"],
        )
    aggregates = landscape_mod.aggregate(usable, split_qualifiers=args.split_qualifiers)
    # the reports built from the aggregates replaced here go first: no manifest entry would mark them stale
    for name in ("comparison_report.csv", "landscape_report.json", "marker_report.csv"):
        (store.run_dir / name).unlink(missing_ok=True)
    count = store.write_stage_atomic(
        "aggregates", map(encode, aggregates), note=json.dumps(dropped, sort_keys=True)
    )
    print(f"aggregated into {count} (marker, tumour) pairs")
    return 0


def cmd_compare(args: argparse.Namespace, store: RunStore) -> int:
    from . import landscape as landscape_mod

    require_stage(store, "aggregates")
    reference_path = Path(args.reference_path)
    if not reference_path.exists():
        raise PipelineError(f"reference file not found: {reference_path}")
    references = landscape_mod.load_reference_csv(reference_path)
    aggregates = [decode(landscape_mod.MarkerTumourAggregate, d) for d in store.iter_records("aggregates")]
    markers: dict[str, str] = {}
    for agg in aggregates:
        markers.setdefault(agg.marker_cui, agg.marker_name)
    results = []
    for marker_cui in sorted(markers, key=lambda cui: markers[cui]):
        top = landscape_mod.top_tumours(marker_cui, aggregates)
        if not top:
            continue
        chosen, entry = landscape_mod.select_reference_tumour(top, references)
        results.append(landscape_mod.compare(chosen.rate, entry))
    report = landscape_mod.summary_report(results)
    _write_json(store.run_dir / "landscape_report.json", report)
    landscape_mod.write_comparison_csv(report, store.run_dir / "comparison_report.csv")
    print(f"compared {len(results)} markers: " + json.dumps(report["histogram"], sort_keys=True))
    return 0


def cmd_report(args: argparse.Namespace, store: RunStore) -> int:
    import csv

    from . import landscape as landscape_mod

    require_stage(store, "aggregates")  # and so the normalized output they were built from
    aggregates = [decode(landscape_mod.MarkerTumourAggregate, d) for d in store.iter_records("aggregates")]
    usable, _ = landscape_mod.usable_records(
        decode(NormalizedRecord, d) for d in store.iter_records("normalized")
    )
    totals = landscape_mod.marker_totals(aggregates, records=usable)
    out = store.run_dir / "marker_report.csv"
    with atomic_file(out) as handle:
        writer = csv.writer(handle)
        writer.writerow(["marker", "n_abstracts", "positives", "cohort", "positive_rate_percent"])
        for t in totals:
            writer.writerow([t.marker_name, t.n_abstracts, t.positives, t.total, round_percent(t.rate, 1)])
    print(f"wrote {out} ({len(totals)} markers)")
    return 0


@dataclass
class _LabelLine:
    """What eval-classify reads from a gold or prediction line; other keys are ignored."""

    pmid: str
    label: ClassificationLabel


def _read_by_pmid(path: Path, decode_record: Callable[[Any], Any]) -> dict[str, Any]:
    """Decoded records of an evaluation input file, by PMID; a bad or repeated record names the file."""
    records: dict[str, Any] = {}
    try:
        for record in map(decode_record, iter_jsonl(path)):
            if records.setdefault(record.pmid, record) is not record:
                raise ValidationError(f"PMID {record.pmid} appears more than once")
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return records


def _gold_and_pred(
    args: argparse.Namespace, store: RunStore, stage: str, decode_record: Callable[[Any], Any], what: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Gold and predicted records by PMID; every gold PMID must have a prediction."""
    gold_path = Path(args.gold)
    if not gold_path.exists():
        raise PipelineError(f"gold file not found: {gold_path}")
    pred_path = Path(args.pred) if args.pred else require_stage(store, stage)
    if not pred_path.exists():
        raise PipelineError(f"prediction file not found: {pred_path}")
    golds, preds = _read_by_pmid(gold_path, decode_record), _read_by_pmid(pred_path, decode_record)
    missing = sorted(set(golds) - set(preds))
    if missing:
        raise ValidationError(f"{len(missing)} gold PMIDs have no {what} (first: {missing[:5]})")
    return golds, preds


def cmd_eval_classify(args: argparse.Namespace, store: RunStore) -> int:
    from . import classify as classify_mod

    labels = functools.partial(decode, _LabelLine)
    golds, preds = _gold_and_pred(args, store, "classified", labels, "prediction")
    ordered = sorted(golds)
    metrics = classify_mod.evaluate([preds[p].label for p in ordered], [golds[p].label for p in ordered])
    payload = {
        "n": metrics.n,
        "tp": metrics.tp,
        "fp": metrics.fp,
        "fn": metrics.fn,
        "tn": metrics.tn,
        "accuracy_percent": format_percent(metrics.accuracy * 100, 1),
        "precision_percent": format_percent(metrics.precision * 100, 1),
        "recall_percent": format_percent(metrics.recall * 100, 1),
        "f1_percent": format_percent(metrics.f1 * 100, 1),
    }
    _write_json(store.run_dir / "metrics.json", payload)
    print(
        f"n={metrics.n} accuracy={payload['accuracy_percent']}% f1={payload['f1_percent']} "
        f"(tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn})"
    )
    return 0


def cmd_eval_tables(args: argparse.Namespace, store: RunStore) -> int:
    from . import table_eval

    tables = functools.partial(decode, ProfileTable)
    golds, preds = _gold_and_pred(args, store, "tables_parsed", tables, "predicted table")

    abstracts_path = Path(args.abstracts) if args.abstracts else require_stage(store, "corpus")
    abstracts = _read_by_pmid(abstracts_path, functools.partial(decode, AbstractRecord))
    texts = {pmid: record.abstract_text for pmid, record in abstracts.items()}

    pairs = [(golds[p], preds[p]) for p in sorted(golds)]
    summary = table_eval.evaluate_set(pairs, source_texts=texts)
    _write_json(store.run_dir / "eval_report.json", summary.to_dict())
    print(
        f"pairs={summary.count} " + " ".join(f"{k}={summary.percents[k]}%" for k in summary.percents)
    )
    return 0


_COMMANDS = {
    "fetch": cmd_fetch,
    "classify": cmd_classify,
    "extract": cmd_extract,
    "normalize": cmd_normalize,
    "aggregate": cmd_aggregate,
    "compare": cmd_compare,
    "report": cmd_report,
    "eval-classify": cmd_eval_classify,
    "eval-tables": cmd_eval_tables,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        run_dir = Path(args.run_dir)
        lock = RunLock(run_dir)
        lock.acquire()
        try:
            with RunStore.open_or_create(run_dir) as store:
                store.recover()
                if gate(args, store) and not getattr(args, "retry_quarantined", False):
                    print(f"{args.command}: output already done; skipping")
                    return 0
                return _COMMANDS[args.command](args, store)
        finally:
            lock.release()
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (PipelineError, OSError) as exc:  # a flag's ConfigError; a run directory that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2
