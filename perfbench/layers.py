"""Per-layer metrics of one traced chain, from spans, simulator counters and rusage.

A layer is a module of ``src/ihcmine``; a span belongs to the layer named
before the first dot of its name. Self time is a span's duration minus the
time of its child spans in the same thread. ``classify.iter_classified``
only waits for the worker threads whose gateway spans are counted already,
so it counts towards no layer's share.

Layer shares are wall-time shares. Gateway spans overlap in time when
classify runs them in worker threads, so the gateway layer's time is the
union of its outermost spans' intervals, not the sum of their self times.
The other layers run in one thread at a time, so their self times add up.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

from tracer import FIELDS

LAYERS = ("cli", "pubmed", "gateway", "classify", "tables", "normalize", "store", "landscape", "table_eval")
STAGES = ("fetch", "classify", "extract", "normalize", "aggregate", "compare", "report", "eval-classify", "eval-tables")
GATEWAY_STAGES = ("classify", "extract", "normalize")
WAIT_SPANS = frozenset({"classify.iter_classified"})


def load_spans(path: Path) -> list[dict]:
    """One process's spans; ids are qualified with the file name, so they stay unique across stages."""
    with path.open(encoding="utf-8") as handle:
        spans = [dict(zip(FIELDS, json.loads(line))) for line in handle if line.strip()]
    for span in spans:
        span["id"] = (path.stem, span["id"])
        if span["parent"] is not None:
            span["parent"] = (path.stem, span["parent"])
    return spans


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    stage_runs: list[tuple[str, float, float]],
    spans: list[dict],
    sim: dict,
    records: dict[str, int],
    n_unique: int,
    bytes_written: int,
) -> dict[str, float]:
    """``stage_runs`` holds (stage, wall_s, cpu_s) per process; ``records`` the work per stage."""
    m: dict[str, float] = {}
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    for stage, w, c in stage_runs:
        wall[stage] += w
        cpu[stage] += c
    for stage in STAGES:
        m[f"cli.{stage}.wall_s"] = wall[stage]
        m[f"cli.{stage}.cpu_s"] = cpu[stage]
        m[f"cli.{stage}.records_per_s"] = records[stage] / wall[stage] if wall[stage] else 0.0

    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by_name[name]]

    def self_sum(*names: str) -> float:
        return sum(s["self"] for name in names for s in by_name[name])

    requests = sim["requests"]
    m["pubmed.esearch.requests"] = requests["esearch"]
    m["pubmed.efetch.requests"] = requests["efetch"]
    m["pubmed.efetch.pmids_per_unique"] = sim["efetch_ids"] / n_unique
    m["pubmed.ratelimit.wait_s"] = sum(durations("pubmed.ratelimit"))
    m["pubmed.parse.self_s"] = self_sum("pubmed.search_pmids", "pubmed.fetch_abstracts")

    chat_ms = [d * 1000 for d in durations("gateway.chat")]
    m["gateway.chat.calls"] = len(chat_ms)
    m["gateway.chat.latency_ms.p50"] = _percentile(chat_ms, 0.50) if chat_ms else 0.0
    m["gateway.chat.latency_ms.p99"] = _percentile(chat_ms, 0.99) if chat_ms else 0.0
    m["gateway.embed.calls"] = len(by_name["gateway.embed"])
    m["gateway.embed.texts_per_call"] = _mean([s["note"] for s in by_name["gateway.embed"]])
    llm_requests = sum(requests[k] for k in ("classify", "extract", "embed"))
    client_s = sum(durations("gateway.chat")) + sum(durations("gateway.embed"))
    service_s = sum(sim["service_s"][k] for k in ("classify", "extract", "embed"))
    m["gateway.overhead_ms_per_request"] = (client_s - service_s) * 1000 / llm_requests if llm_requests else 0.0
    m["gateway.in_flight.peak"] = sim["peak_in_flight"]["llm"]
    m["gateway.in_flight.extract_peak"] = sim["peak_in_flight"]["extract"]
    m["gateway.retries"] = sim["retries"]
    gateway_wall = sum(wall[s] for s in GATEWAY_STAGES)
    m["gateway.busy_share"] = sim["busy_s"]["llm"] / gateway_wall if gateway_wall else 0.0

    m["classify.records"] = records["classify"]
    m["classify.include_ratio"] = records["extract"] / records["classify"] if records["classify"] else 0.0
    m["classify.quarantined"] = sum(1 for s in by_name["classify.parse_label"] if s["error"])

    parse_s = durations("tables.parse_markdown_table")
    m["tables.extract.calls"] = len(by_name["tables.extract_table"])
    m["tables.parse.us_per_table"] = _mean(parse_s) * 1e6
    m["tables.parse.quarantined"] = sum(1 for s in by_name["tables.parse_markdown_table"] if s["error"])

    terms = by_name["normalize.normalize_term"]
    term_ids = {s["id"] for s in terms}
    embedded = {s["parent"] for s in by_name["gateway.embed"] if s["parent"] in term_ids}
    m["normalize.load_index_s"] = sum(durations("normalize.load_index"))
    m["normalize.nearest.calls"] = len(by_name["normalize.nearest"])
    m["normalize.nearest.ms_per_query"] = _mean(durations("normalize.nearest")) * 1000
    m["normalize.cache_hit_ratio"] = 1 - len(embedded) / len(terms) if terms else 0.0
    m["normalize.surfaces_unique"] = len({s["note"] for s in terms})

    m["store.append.calls"] = len(by_name["store.append"])
    m["store.append.us_per_call"] = _mean(durations("store.append")) * 1e6
    m["store.read.records"] = sum(s["note"] for s in by_name["store.iter_records"])
    m["store.read.self_s"] = self_sum("store.iter_records")
    m["store.processed_ids_s"] = sum(durations("store.processed_ids"))
    m["store.mark_done_s"] = sum(durations("store.mark_done"))
    m["store.bytes_written"] = bytes_written

    layer_self: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["name"] not in WAIT_SPANS and not span["name"].startswith("gateway."):
            layer_self[span["name"].split(".")[0]] += span["self"]
    gateway_ids = {s["id"] for s in spans if s["name"].startswith("gateway.")}
    layer_self["gateway"] = _union_s(
        [(s["start"], s["end"]) for s in spans if s["name"].startswith("gateway.") and s["parent"] not in gateway_ids]
    )
    m["landscape.self_s"] = layer_self["landscape"]
    m["table_eval.evaluate_set_s"] = sum(durations("table_eval.evaluate_set"))
    total_self = sum(layer_self[layer] for layer in LAYERS)
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = layer_self[layer] / total_self if total_self else 0.0
    return m
