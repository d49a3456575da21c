"""Pipeline orchestration: one subcommand per stage.

Exit codes: 0 success, 1 usage error, 2 stage failure. Each stage reads
the previous stage's output from the run directory and writes its own; an
upstream stage that is missing, unfinished or stale fails with its producer.

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
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from .codec import decode, encode
from .config import PipelineConfig, build_config
from .domain import AbstractRecord, ClassificationLabel, NormalizedRecord, format_percent, round_percent
from .errors import GatewayError, PipelineError, TableNotFoundError, ValidationError
from .pubmed import CorpusStats, EntrezClient, build_query, dedup_merge
from .store import RunLock, RunStore, StageInfo, atomic_file, file_sha256, iter_jsonl
from .tables import ProfileTable, extract_table, parse_markdown_table

if TYPE_CHECKING:
    from .gateway import LlmGateway

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve 2 for stage failures
        raise UsageError(f"{self.prog}: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--run-dir", dest="run_dir", help="run directory (default: derived under --runs-root)")
    parser.add_argument("--runs-root", dest="runs_root", help="root for auto-created run directories")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _add_gateway_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--llm-base", dest="llm_base_url", help="chat-completions base URL")
    parser.add_argument("--llm-model", dest="llm_model")
    parser.add_argument("--llm-key", dest="llm_api_key")
    parser.add_argument("--emb-base", dest="emb_base_url", help="embeddings base URL")
    parser.add_argument("--emb-model", dest="emb_model")
    parser.add_argument("--concurrency", dest="llm_concurrency", type=int)
    parser.add_argument("--retries", dest="retries", type=int)
    parser.add_argument("--backoff", dest="backoff_base", type=float)
    parser.add_argument("--timeout", dest="timeout", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="ihcmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="search PubMed per marker and build the deduplicated corpus")
    _add_common(p)
    p.add_argument("--markers", dest="markers_path", help="file with one marker name per line")
    p.add_argument("--cap", dest="cap", type=int, help="max abstracts per marker (<= 9999)")
    p.add_argument("--entrez-base", dest="entrez_base_url")
    p.add_argument("--ncbi-key", dest="ncbi_api_key")
    p.add_argument("--rps", dest="requests_per_second", type=float, help="request budget per second")
    p.add_argument("--page-size", dest="esearch_page_size", type=int)
    p.add_argument("--batch-size", dest="efetch_batch_size", type=int)
    p.add_argument("--retries", dest="retries", type=int)
    p.add_argument("--backoff", dest="backoff_base", type=float)
    p.add_argument("--timeout", dest="timeout", type=float)

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
    p.add_argument("--dictionary", dest="dictionary_path", help="concept dictionary TSV")
    p.add_argument("--max-dist", dest="max_distance", type=float, help="flag mappings beyond this distance")

    p = sub.add_parser("aggregate", help="sum positives/cohorts per (marker, tumour)")
    _add_common(p)
    p.add_argument("--split-qualifiers", dest="split_qualifiers", action="store_const", const=True)

    p = sub.add_parser("compare", help="compare aggregated rates against the curated reference")
    _add_common(p)
    p.add_argument("--reference", dest="reference_path", help="reference CSV (marker,tumour,kind,low,high)")
    p.add_argument("--top-k", dest="top_k_tumours", type=int)
    p.add_argument("--positive-min", dest="positive_concordant_min", type=int)
    p.add_argument("--negative-max", dest="negative_concordant_max", type=int)
    p.add_argument("--near-band", dest="near_band_points", type=int)

    p = sub.add_parser("report", help="write marker totals and comparison report files")
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
    p.add_argument("--wrong-f1", dest="wrong_f1_threshold", type=float)
    p.add_argument("--row-sim", dest="row_similarity_threshold", type=float)

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return build_config(flag_values=flag_values, config_path=args.config)


class _Stage(NamedTuple):  # what a stage's output is built from, besides its upstream's output
    producer: str  # the command that writes it
    upstream: str | None
    settings: tuple[str, ...] = ()  # config fields, recorded as str(value)
    files: tuple[str, ...] = ()  # config fields naming files, recorded by content hash
    template: str | None = None  # name of a gateway prompt-template constant, recorded by content hash
    rerun: bool = False  # re-run on changed inputs: whole output, nothing record-wise downstream


_STAGES = {
    "corpus": _Stage("fetch", None, ("cap",), ("markers_path",)),
    "classified": _Stage("classify", "corpus", ("llm_model",), template="CLASSIFY_TEMPLATE"),
    "tables_raw": _Stage("extract", "classified", ("llm_model",), template="EXTRACT_TEMPLATE"),
    "tables_parsed": _Stage("extract", "tables_raw"),
    "normalized": _Stage("normalize", "tables_parsed", ("emb_model", "max_distance"), ("dictionary_path",), rerun=True),
    "aggregates": _Stage("aggregate", "normalized", ("split_qualifiers",), rerun=True),
}


def _file_sha256(name: str, path: str | None) -> str:
    if path is None:
        raise PipelineError(f"{name} is not set")
    try:
        return file_sha256(path)
    except OSError as exc:
        raise PipelineError(f"{name}: cannot read {path}: {exc.strerror}") from None


def _inputs(stage: str, config: PipelineConfig, store: RunStore | None) -> dict[str, str]:
    """The inputs ``stage`` would be built from now: settings, file hashes, upstream fingerprint."""
    spec = _STAGES[stage]
    inputs = {name: str(getattr(config, name)) for name in spec.settings}
    inputs.update((name, _file_sha256(name, getattr(config, name))) for name in spec.files)
    if spec.template:
        from . import gateway

        inputs["prompt_template"] = gateway.template_hash(getattr(gateway, spec.template))
    if spec.upstream:
        inputs[spec.upstream] = store.stage_info(spec.upstream).fingerprint()
    return inputs


def _resolve_run_dir(command: str, config: PipelineConfig) -> Path:
    """--run-dir, else under --runs-root: fetch's run with the same corpus inputs, or the newest run."""
    if config.run_dir:
        return Path(config.run_dir)
    root = Path(config.runs_root)
    runs = sorted(manifest.parent for manifest in root.glob("*/manifest.json"))
    if command != "fetch":
        if not runs:
            raise PipelineError(f"no run under {root}; run fetch")
        return runs[-1]
    fingerprint = StageInfo(inputs=_inputs("corpus", config, None)).fingerprint()
    for run in reversed(runs):
        if RunStore.open(run).manifest.stages["corpus"].fingerprint() == fingerprint:
            return run
    return root / f"run-{time.strftime('%Y%m%d-%H%M%S')}-{fingerprint[:6]}"


def _require_stage(store: RunStore, stage: str) -> Path:
    """Path of a stage's output that may be read: done, and built from its upstream's current output."""
    spec, info, path = _STAGES[stage], store.stage_info(stage), store.path(stage)
    if not path.exists():
        raise PipelineError(f"{stage}.jsonl not found; run {spec.producer}")
    if info.status != "done":
        raise PipelineError(f"{stage} is not done; run {spec.producer}")
    if spec.upstream and info.inputs and info.inputs.get(spec.upstream) != store.stage_info(spec.upstream).fingerprint():
        raise PipelineError(f"{stage} was built from an earlier {spec.upstream}; run {spec.producer}")
    return path


def _gate(command: str, config: PipelineConfig, store: RunStore) -> bool:
    """Checks the stages ``command`` writes against their recorded inputs; True when all are done and current.

    A done stage recorded without inputs counts as current. Changed inputs restart a ``rerun``
    stage and are refused for any other, whose records cannot be mixed with records of other inputs.
    """
    outputs = [stage for stage, spec in _STAGES.items() if spec.producer == command]
    if outputs and _STAGES[outputs[0]].upstream:
        _require_stage(store, _STAGES[outputs[0]].upstream)
    current = bool(outputs)
    for stage in outputs:
        info, inputs = store.stage_info(stage), _inputs(stage, config, store)
        if info.inputs is None or info.status == "pending":
            if info.status != "done":
                info.inputs, current = inputs, False
            continue
        changed = sorted(k for k in info.inputs.keys() | inputs.keys() if info.inputs.get(k) != inputs.get(k))
        if changed and not _STAGES[stage].rerun:
            raise PipelineError(f"{stage} was built from other inputs ({', '.join(changed)})")
        if changed:
            logger.info("%s: inputs changed (%s); re-running", stage, ", ".join(changed))
            store.manifest.stages[stage] = StageInfo(inputs=inputs)
        current = current and not changed and info.status == "done"
    return current


def _make_gateway(config: PipelineConfig) -> LlmGateway:
    from .gateway import LlmGateway

    return LlmGateway(
        llm_base_url=config.llm_base_url,
        model_id=config.llm_model,
        emb_base_url=config.emb_base_url,
        emb_model_id=config.emb_model,
        api_key=config.llm_api_key,
        retries=config.retries,
        backoff_base=config.backoff_base,
        timeout=config.timeout,
    )


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    with atomic_file(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- stage commands -----------------------------------------------------------


def cmd_fetch(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    markers_file = Path(config.markers_path)
    lines = (line.strip() for line in markers_file.read_text(encoding="utf-8").splitlines())
    markers = list(dict.fromkeys(m for m in lines if m and not m.startswith("#")))
    if not markers:
        raise PipelineError(f"markers file {markers_file} is empty")

    client = EntrezClient(
        base_url=config.entrez_base_url,
        api_key=config.ncbi_api_key,
        requests_per_second=config.requests_per_second,
        page_size=config.esearch_page_size,
        batch_size=config.efetch_batch_size,
        retries=config.retries,
        backoff_base=config.backoff_base,
        timeout=config.timeout,
    )
    try:
        hits = []
        for marker in markers:
            pmids = client.search_pmids(build_query(marker), cap=config.cap)
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


def cmd_classify(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
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

    gateway = _make_gateway(config)

    def classified(pending: Iterator[dict[str, Any]]) -> Iterator[Any]:
        records = (decode(AbstractRecord, d) for d in pending)
        return classify_mod.iter_classified(records, gateway, max_workers=config.llm_concurrency)

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


def cmd_extract(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    from . import classify as classify_mod

    corpus = {d["pmid"]: d for d in store.iter_records("corpus")}
    include_pmids = [
        d["pmid"] for d in store.iter_records("classified") if d["label"] == ClassificationLabel.INCLUDE.value
    ]

    if not store.stage_done("tables_raw"):
        for pmid in include_pmids:
            if pmid not in corpus:
                logger.warning("pmid %s classified but missing from corpus", pmid)
        gateway = _make_gateway(config)

        def extract_one(d: dict[str, Any]) -> dict[str, str] | classify_mod.QuarantineEntry:
            record = decode(AbstractRecord, d)
            try:
                return {"pmid": record.pmid, "markdown": extract_table(record, gateway)}
            except GatewayError as exc:
                return classify_mod.QuarantineEntry(pmid=record.pmid, stage="extract", reason=f"gateway: {exc}")

        includes = (corpus[pmid] for pmid in include_pmids if pmid in corpus)
        extracted = functools.partial(classify_mod.map_ordered, fn=extract_one, max_workers=config.llm_concurrency)
        try:
            _record_stage(store, "tables_raw", "extract", includes, extracted)
        finally:
            gateway.close()
        store.mark_done("tables_raw")

    if not store.stage_done("tables_parsed"):

        def parse_one(raw: dict[str, Any]) -> dict[str, Any] | classify_mod.QuarantineEntry:
            try:
                return parse_markdown_table(raw["markdown"], pmid=raw["pmid"]).to_dict()
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


def cmd_normalize(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    from . import normalize as normalize_mod  # numpy: loaded only by the stage that searches vectors

    recorded = store.stage_info("normalized").inputs["dictionary_path"]  # the digest the gate just took
    index = normalize_mod.load_index(config.dictionary_path, sha256=recorded)
    gateway = _make_gateway(config)
    normalizer = normalize_mod.TermNormalizer(gateway, index, max_distance=config.max_distance)

    def tables():
        return (ProfileTable.from_dict(d) for d in store.iter_records("tables_parsed"))

    try:
        normalizer.prefetch(surface for table in tables() for surface in normalize_mod.table_surfaces(table))
        records = (record for table in tables() for record in normalize_mod.normalize_table(table, normalizer))
        count = store.write_stage_atomic("normalized", map(encode, records))
    finally:
        gateway.close()
    print(f"normalized {count} marker-cell records against {len(index)} dictionary entries")
    return 0


def cmd_aggregate(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
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
    aggregates = landscape_mod.aggregate(usable, split_qualifiers=config.split_qualifiers)
    # the reports built from the aggregates replaced here go first, so compare must run again before report
    for name in ("comparison_report.csv", "landscape_report.json", "marker_report.csv"):
        (store.run_dir / name).unlink(missing_ok=True)
    count = store.write_stage_atomic(
        "aggregates", map(encode, aggregates), note=json.dumps(dropped, sort_keys=True)
    )
    print(f"aggregated into {count} (marker, tumour) pairs")
    return 0


def cmd_compare(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    from . import landscape as landscape_mod

    _require_stage(store, "aggregates")
    reference_path = Path(config.reference_path)
    if not reference_path.exists():
        raise PipelineError(f"reference file not found: {reference_path}")
    references = landscape_mod.load_reference_csv(reference_path)
    aggregates = [decode(landscape_mod.MarkerTumourAggregate, d) for d in store.iter_records("aggregates")]
    markers: dict[str, str] = {}
    for agg in aggregates:
        markers.setdefault(agg.marker_cui, agg.marker_name)
    results = []
    for marker_cui in sorted(markers, key=lambda cui: markers[cui]):
        top = landscape_mod.top_tumours(marker_cui, aggregates, k=config.top_k_tumours)
        if not top:
            continue
        chosen, entry = landscape_mod.select_reference_tumour(top, references)
        results.append(
            landscape_mod.compare(
                chosen.rate,
                entry,
                positive_min=config.positive_concordant_min,
                negative_max=config.negative_concordant_max,
                near_band=config.near_band_points,
            )
        )
    report = landscape_mod.summary_report(results)
    _write_json(store.run_dir / "landscape_report.json", report)
    landscape_mod.write_comparison_csv(results, store.run_dir / "comparison_report.csv")
    print(f"compared {len(results)} markers: " + json.dumps(report["histogram"], sort_keys=True))
    return 0


def cmd_report(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    import csv

    from . import landscape as landscape_mod

    _require_stage(store, "aggregates")  # current aggregates imply a done normalized they were built from
    if not (store.run_dir / "comparison_report.csv").exists():
        raise PipelineError("comparison_report.csv not found; run compare")
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
    print(f"wrote {out} ({len(totals)} markers) and comparison_report.csv")
    return 0


@dataclass
class _LabelLine:
    """What eval-classify reads from a gold or prediction line; other keys are ignored."""

    pmid: str
    label: ClassificationLabel


def _read_by_pmid(path: Path, decode_record: Callable[[Any], Any]) -> dict[str, Any]:
    """Decoded records of an evaluation input file, by PMID; a bad record names the file."""
    try:
        return {record.pmid: record for record in map(decode_record, iter_jsonl(path))}
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _gold_and_pred(
    args: argparse.Namespace, store: RunStore, stage: str, decode_record: Callable[[Any], Any], what: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Gold and predicted records by PMID; every gold PMID must have a prediction."""
    gold_path = Path(args.gold)
    if not gold_path.exists():
        raise PipelineError(f"gold file not found: {gold_path}")
    pred_path = Path(args.pred) if args.pred else _require_stage(store, stage)
    if not pred_path.exists():
        raise PipelineError(f"prediction file not found: {pred_path}")
    golds, preds = _read_by_pmid(gold_path, decode_record), _read_by_pmid(pred_path, decode_record)
    missing = sorted(set(golds) - set(preds))
    if missing:
        raise ValidationError(f"{len(missing)} gold PMIDs have no {what} (first: {missing[:5]})")
    return golds, preds


def cmd_eval_classify(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
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


def cmd_eval_tables(config: PipelineConfig, store: RunStore, args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import table_eval

    golds, preds = _gold_and_pred(args, store, "tables_parsed", ProfileTable.from_dict, "predicted table")

    abstracts_path = Path(args.abstracts) if args.abstracts else _require_stage(store, "corpus")
    abstracts = _read_by_pmid(abstracts_path, functools.partial(decode, AbstractRecord))
    texts = {pmid: record.abstract_text for pmid, record in abstracts.items()}

    pairs = [(golds[p], preds[p]) for p in sorted(golds)]
    summary = table_eval.evaluate_set(
        pairs,
        source_texts=texts,
        wrong_threshold=Fraction(config.wrong_f1_threshold).limit_denominator(10**6),
        row_threshold=config.row_similarity_threshold,
    )
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _config_from_args(args)
        run_dir = _resolve_run_dir(args.command, config)
        lock = RunLock(run_dir)
        lock.acquire()
        try:
            with RunStore.open_or_create(run_dir) as store:
                store.recover()
                if _gate(args.command, config, store) and not getattr(args, "retry_quarantined", False):
                    print(f"{args.command}: output already done; skipping")
                    return 0
                return _COMMANDS[args.command](config, store, args)
        finally:
            lock.release()
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2

