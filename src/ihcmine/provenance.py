"""What each stage file is built from, and when a command may reuse, re-run or read it.

A done stage's fingerprint is its output's sha256, so a re-run that writes the same bytes leaves
every stage built from it current (early cutoff). A read walks from the stage it reads up to
``corpus`` and checks each stage on the way against the manifest, with one ``stat`` per file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

from .errors import PipelineError

if TYPE_CHECKING:
    from .store import RunStore

logger = logging.getLogger(__name__)


class Stage(NamedTuple):  # what a stage's output is built from, besides its upstream's output
    producer: str  # the command that writes it
    upstream: str | None
    settings: tuple[str, ...] = ()  # flag dests, recorded as str(value)
    files: tuple[str, ...] = ()  # flag dests naming files, recorded by content hash
    template: bool = False  # the producer's prompt template, recorded by content hash
    rerun: bool = False  # re-run on changed inputs: whole output, nothing record-wise downstream


STAGES = {
    "corpus": Stage("fetch", None, ("cap",), ("markers_path",)),
    "classified": Stage("classify", "corpus", ("llm_model",), template=True),
    "tables_raw": Stage("extract", "classified", ("llm_model",), template=True),
    "tables_parsed": Stage("extract", "tables_raw"),
    "normalized": Stage("normalize", "tables_parsed", ("emb_model", "max_distance"), ("dictionary_path",), rerun=True),
    "aggregates": Stage("aggregate", "normalized", ("split_qualifiers",), rerun=True),
}


def _json_sha256(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class StageInfo:
    status: str = "pending"  # pending | running | done
    count: int | None = None  # count, bytes and sha256: the stage file's lines, size and digest once done
    bytes: int | None = None
    sha256: str | None = None
    started_at: str | None = None
    finished_at: str | None = None
    note: str | None = None
    inputs: dict[str, str] | None = None  # None: recorded before stages kept their inputs

    def fingerprint(self) -> str:
        """The output's sha256 once recorded, else a sha256 of the inputs: what a downstream stage records."""
        return self.sha256 if self.sha256 is not None else _json_sha256(self.inputs)

    def matches(self, recorded: str | None) -> bool:
        """Whether a downstream record of this stage is its fingerprint, or the form used before early cutoff."""
        return recorded in (self.fingerprint(), _json_sha256([self.inputs, self.sha256]))


def _blocks(path: str | Path) -> Iterator[memoryview]:
    """A file's bytes, read in 1 MiB blocks into one reused buffer: each block is a prefix of it (``block.obj``), valid until the next."""
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            yield view[:size]


def file_digest(path: str | Path) -> tuple[int, int, str]:
    """(newline count, size, hex sha256) of a file's bytes."""
    digest, lines, total = hashlib.sha256(), 0, 0
    for block in _blocks(path):
        digest.update(block)
        lines += block.obj.count(b"\n", 0, len(block))
        total += len(block)
    return lines, total, digest.hexdigest()


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    for block in _blocks(path):
        digest.update(block)
    return digest.hexdigest()


def _file_sha256(name: str, path: str) -> str:
    try:
        return file_sha256(path)
    except OSError as exc:
        raise PipelineError(f"{name}: cannot read {path}: {exc.strerror}") from None


def current_inputs(stage: str, args: argparse.Namespace, store: RunStore) -> dict[str, str]:
    """The inputs ``stage`` would be built from now: settings, file hashes, upstream fingerprint."""
    spec = STAGES[stage]
    inputs = {name: str(getattr(args, name)) for name in spec.settings}
    inputs.update((name, _file_sha256(name, getattr(args, name))) for name in spec.files)
    if spec.template:
        from .gateway import template_hash

        inputs["prompt_template"] = template_hash(spec.producer)
    if spec.upstream:  # a recorded upstream value that still matches is kept, in either form
        upstream, recorded = store.stage_info(spec.upstream), (store.stage_info(stage).inputs or {}).get(spec.upstream)
        inputs[spec.upstream] = recorded if upstream.matches(recorded) else upstream.fingerprint()
    return inputs


def _changed(store: RunStore, stage: str) -> bool:
    """Whether a stage's file is gone or no longer of the size recorded when its producer finished it."""
    info = store.stage_info(stage)
    try:
        return info.bytes is not None and store.path(stage).stat().st_size != info.bytes
    except FileNotFoundError:
        return True


def require_stage(store: RunStore, stage: str) -> Path:
    """Path of a stage's output that may be read: done, of its recorded size and built from current upstreams.

    Each stage up to ``corpus`` is checked in turn; one recorded without inputs ends the walk.
    """
    name = stage
    while True:
        spec, info = STAGES[name], store.stage_info(name)
        if info.status != "done":
            what = f"{name} is not done" if store.path(name).exists() else f"{name}.jsonl not found"
            raise PipelineError(f"{what}; run {spec.producer}")
        if _changed(store, name):  # the one stat of a done stage's file
            raise PipelineError(f"{name}.jsonl changed after {spec.producer} finished it")
        if not (spec.upstream and info.inputs):
            return store.path(stage)
        if not store.stage_info(spec.upstream).matches(info.inputs.get(spec.upstream)):
            raise PipelineError(f"{name} was built from an earlier {spec.upstream}; run {spec.producer}")
        name = spec.upstream


def gate(args: argparse.Namespace, store: RunStore) -> bool:
    """Checks the stages the command writes against their recorded inputs; True when all are done and current.

    A done stage recorded without inputs counts as current. Changed inputs, or a done file that
    changed since, restart a ``rerun`` stage and are refused for any other, whose records cannot
    be mixed with records of other inputs.
    """
    command = args.command
    outputs = [stage for stage, spec in STAGES.items() if spec.producer == command]
    if outputs and STAGES[outputs[0]].upstream:
        require_stage(store, STAGES[outputs[0]].upstream)
    current = bool(outputs)
    for stage in outputs:
        info, inputs = store.stage_info(stage), current_inputs(stage, args, store)
        if info.status == "done" and _changed(store, stage):
            if not STAGES[stage].rerun:
                raise PipelineError(f"{stage}.jsonl changed after {command} finished it")
            logger.info("%s.jsonl changed after %s finished it; re-running", stage, command)
            info = store.manifest.stages[stage] = StageInfo()
        if info.inputs is None or info.status == "pending":
            if info.status != "done":
                info.inputs, current = inputs, False
            continue
        changed = sorted(k for k in info.inputs.keys() | inputs.keys() if info.inputs.get(k) != inputs.get(k))
        if changed and not STAGES[stage].rerun:
            raise PipelineError(f"{stage} was built from other inputs ({', '.join(changed)})")
        if changed:
            logger.info("%s: inputs changed (%s); re-running", stage, ", ".join(changed))
            store.manifest.stages[stage] = StageInfo(inputs=inputs)
        current = current and not changed and info.status == "done"
    return current
