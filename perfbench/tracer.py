"""Traced stage runner: wraps the layers' public functions, then runs the CLI.

Usage: python perfbench/tracer.py SPANS_OUT <ihcmine subcommand and flags>

Each wrapper records one span: name, start, end, id, parent id, thread,
trace id (the PMID when an argument carries a record, else the parent's,
else the stage), self time and an optional note (a count or a key). Names
are patched where they are looked up, so ``cli``'s ``from .tables import``
bindings are patched in ``ihcmine.cli``. HTTP calls made by ``requests``
become ``<layer>.http`` children of the gateway or Entrez span that made
them. Spans stay in memory and are written as JSON lines at exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

FIELDS = ("name", "start", "end", "id", "parent", "thread", "trace", "self", "note", "error")


class Tracer:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _trace_id(self, args: tuple, parent: list | None) -> str:
        for arg in args:
            pmid = getattr(arg, "pmid", None)
            if pmid is None and isinstance(arg, dict):
                pmid = arg.get("pmid")
            if isinstance(pmid, str):
                return pmid
        return parent[2] if parent else self.stage

    def _open(self, name: str | None, args: tuple) -> tuple[list, list | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if name is None:  # an HTTP call takes the layer of its caller
            name = (parent[3].split(".")[0] if parent else "cli") + ".http"
        frame = [next(self._ids), 0.0, self._trace_id(args, parent), name]
        stack.append(frame)
        return frame, parent

    def _close(self, frame: list, parent: list | None, start: float, busy: float, note: Any, error: str | None) -> None:
        self._stack().pop()
        end = time.perf_counter()
        if parent is not None:
            parent[1] += busy
        self.spans.append(
            (frame[3], start, end, frame[0], parent[0] if parent else None, threading.get_ident(),
             frame[2], busy - frame[1], note, error)
        )

    def wrap(self, name: str | None, fn: Callable, note: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._open(name, args)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                busy = time.perf_counter() - start
                self._close(frame, parent, start, busy, note(args, kwargs) if note else None, error)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Span over a generator's life; its time is what its own next() calls take."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0, self._trace_id(args, parent), name]
            start = time.perf_counter()
            busy = 0.0
            items = 0
            try:
                while True:
                    stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        dt = time.perf_counter() - t0
                        stack.pop()
                        busy += dt
                        if parent is not None:
                            parent[1] += dt
                    items += 1
                    yield item
            finally:
                gen.close()
                self.spans.append(
                    (name, start, time.perf_counter(), frame[0], parent[0] if parent else None,
                     threading.get_ident(), frame[2], busy - frame[1], items, None)
                )

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _first_arg(args: tuple, kwargs: dict):
    """The first argument after ``self``, however it was passed."""
    return args[1] if len(args) > 1 else next(iter(kwargs.values()), None)


def _first_len(args: tuple, kwargs: dict) -> int:
    return len(_first_arg(args, kwargs) or ())


def install(tracer: Tracer) -> None:
    import requests

    from ihcmine import classify, cli, gateway, landscape, normalize, pubmed, store, table_eval

    plain = [
        (pubmed.EntrezClient, "search_pmids", "pubmed.search_pmids", None),
        (pubmed.EntrezClient, "fetch_abstracts", "pubmed.fetch_abstracts", _first_len),
        (pubmed.RateLimiter, "acquire", "pubmed.ratelimit", None),
        (cli, "dedup_merge", "pubmed.dedup_merge", None),
        (gateway.LlmGateway, "chat", "gateway.chat", None),
        (gateway.LlmGateway, "embed", "gateway.embed", _first_len),
        (requests.Session, "request", None, None),
        (classify, "parse_label", "classify.parse_label", None),
        (classify, "evaluate", "classify.evaluate", None),
        (cli, "extract_table", "tables.extract_table", None),
        (cli, "parse_markdown_table", "tables.parse_markdown_table", None),
        (normalize, "load_index", "normalize.load_index", None),
        (normalize, "normalize_table", "normalize.normalize_table", None),
        (normalize.TermNormalizer, "normalize_term", "normalize.normalize_term", _first_arg),
        (normalize.ConceptIndex, "nearest", "normalize.nearest", None),
        (store.RunStore, "append", "store.append", None),
        (store.RunStore, "processed_ids", "store.processed_ids", None),
        (store.RunStore, "mark_done", "store.mark_done", None),
        (store.RunStore, "write_stage_atomic", "store.write_stage_atomic", None),
        (store.RunStore, "write_aux_atomic", "store.write_aux_atomic", None),
        (store.RunStore, "save_manifest", "store.save_manifest", None),
        (store.RunStore, "repair_tail", "store.repair_tail", None),
        (landscape, "aggregate", "landscape.aggregate", None),
        (landscape, "marker_totals", "landscape.marker_totals", None),
        (landscape, "top_tumours", "landscape.top_tumours", None),
        (landscape, "select_reference_tumour", "landscape.select_reference_tumour", None),
        (landscape, "compare", "landscape.compare", None),
        (landscape, "summary_report", "landscape.summary_report", None),
        (landscape, "write_comparison_csv", "landscape.write_comparison_csv", None),
        (landscape, "load_reference_csv", "landscape.load_reference_csv", None),
        (table_eval, "evaluate_set", "table_eval.evaluate_set", None),
    ]
    for owner, attr, name, note in plain:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))
    generators = [
        (classify, "iter_classified", "classify.iter_classified"),
        (store.RunStore, "iter_records", "store.iter_records"),
    ]
    for owner, attr, name in generators:
        setattr(owner, attr, tracer.wrap_generator(name, getattr(owner, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer(stage=cli_args[0])
    install(tracer)
    from ihcmine import cli

    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
