"""Append-only JSONL run store with a manifest for idempotent resume.

Each stage owns one JSONL file under the run directory. Record-wise stages
append and flush per record so a killed run loses at most a partial
trailing line, which is truncated away on reopen. Every whole file (a
whole-output stage, a quarantine rewrite, the manifest, a report, a
dictionary cache entry) is written by ``atomic_file``, so it holds its old
bytes or its new ones. A stage is marked done once its file is synced, and
then rejects further appends. Each stage's manifest entry records the
inputs it was built from: its own settings, the content hashes of its
input files and its upstream stage's fingerprint. The CLI checks them
before it reuses, re-runs or reads a stage.

``iter_jsonl`` is the one JSONL reader, for stage files and for the
evaluation commands' gold and prediction files alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from .codec import decode, encode
from .errors import StageStateError, StoreError, ValidationError

logger = logging.getLogger(__name__)

STAGES = ("corpus", "classified", "tables_raw", "tables_parsed", "normalized", "aggregates")
AUX_FILES = ("quarantine",)

_MANIFEST_NAME = "manifest.json"
_UMASK = os.umask(0o022)  # read once, so atomic_file gives its files the mode open() would
os.umask(_UMASK)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


@dataclass
class StageInfo:
    status: str = "pending"  # pending | running | done
    count: int | None = None
    started_at: str | None = None
    finished_at: str | None = None
    note: str | None = None
    inputs: dict[str, str] | None = None  # None: recorded before stages kept their inputs

    def fingerprint(self) -> str:
        """sha256 of the recorded inputs; a downstream stage records it as its upstream input."""
        return hashlib.sha256(json.dumps(self.inputs, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    run_id: str
    stages: dict[str, StageInfo] = field(default_factory=dict)
    created_at: str = ""

    def __post_init__(self) -> None:
        # a manifest written before a stage existed still opens, with that stage pending
        for name in STAGES:
            self.stages.setdefault(name, StageInfo())


def _jsonl_line(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


@contextlib.contextmanager
def atomic_file(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on a unique ``.<name>.*.partial`` file beside ``path``, renamed over ``path`` when the block ends.

    Text mode is UTF-8 without newline translation. The file, then its directory, is synced.
    If the block raises, the temp file is removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    fd, temp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".partial", dir=path.parent)
    try:
        text = "b" not in mode
        with open(fd, mode, encoding="utf-8" if text else None, newline="" if text else None) as handle:
            os.chmod(temp, 0o666 & ~_UMASK)
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _write_jsonl(path: Path, records: Iterable[dict[str, Any]]) -> int:
    """Writes ``records`` to ``path`` through ``atomic_file``; returns the record count."""
    count = 0
    with atomic_file(path) as handle:
        for count, record in enumerate(records, 1):
            handle.write(_jsonl_line(record))
    return count


def iter_jsonl(path: str | Path) -> Iterator[Any]:
    """Records of a JSONL file; an absent file yields nothing and blank lines are skipped.

    Lines are decoded one at a time, so invalid UTF-8 counts as corruption of
    its line. A corrupt last line (a write cut short by a crash) is ignored with
    a warning; a corrupt line anywhere else raises ``StoreError`` naming ``path:line``.
    """
    path = Path(path)
    if not path.exists():
        return
    lines = path.read_bytes().splitlines()  # the line breaks of text mode: \n, \r\n and \r
    for idx, line in enumerate(lines):
        if not line:
            continue
        try:
            yield json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            if idx == len(lines) - 1:
                logger.warning("ignoring corrupt trailing line in %s", path)
                return
            raise StoreError(f"{path}:{idx + 1}: corrupt record mid-file") from exc


class RunStore:
    """Single writer per stage file; completed stages may be read concurrently."""

    def __init__(self, run_dir: str | Path, manifest: RunManifest):
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self._handles: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, run_dir: str | Path) -> "RunStore":
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = run_dir / _MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(f"run directory {run_dir} already has a manifest")
        manifest = RunManifest(run_id=run_dir.name, created_at=_utc_now())
        store = cls(run_dir, manifest)
        store.save_manifest()
        return store

    @classmethod
    def open(cls, run_dir: str | Path) -> "RunStore":
        run_dir = Path(run_dir)
        manifest_path = run_dir / _MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no manifest in {run_dir}")
        try:
            manifest = decode(RunManifest, json.loads(manifest_path.read_text(encoding="utf-8")))
        except (ValueError, ValidationError) as exc:  # ValueError: bad JSON or UTF-8
            raise StoreError(f"{manifest_path}: unreadable manifest: {exc}") from exc
        return cls(run_dir, manifest)

    @classmethod
    def open_or_create(cls, run_dir: str | Path) -> "RunStore":
        if (Path(run_dir) / _MANIFEST_NAME).exists():
            return cls.open(run_dir)
        return cls.create(run_dir)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save_manifest(self) -> None:
        with atomic_file(self.run_dir / _MANIFEST_NAME) as handle:
            handle.write(json.dumps(encode(self.manifest), indent=2))

    # -- paths ---------------------------------------------------------------

    def path(self, stage: str) -> Path:
        if stage not in STAGES and stage not in AUX_FILES:
            raise StoreError(f"unknown stage {stage!r}")
        return self.run_dir / f"{stage}.jsonl"

    def stage_info(self, stage: str) -> StageInfo:
        return self.manifest.stages.setdefault(stage, StageInfo())

    def stage_done(self, stage: str) -> bool:
        return self.stage_info(stage).status == "done"

    # -- recovery ------------------------------------------------------------

    def repair_tail(self, stage: str) -> None:
        """Drop a partial or non-JSON trailing line left by a crash."""
        path = self.path(stage)
        if not path.exists() or path.stat().st_size == 0:
            return
        data = path.read_bytes()
        truncated = False
        if not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            data = data[:cut]
            truncated = True
        while data:
            cut = data.rfind(b"\n", 0, len(data) - 1) + 1
            last_line = data[cut:]
            try:
                json.loads(last_line.decode("utf-8"))
                break
            except (ValueError, UnicodeDecodeError):
                data = data[:cut]
                truncated = True
        if truncated:
            logger.warning("dropping corrupt trailing line from %s", path)
            os.truncate(path, len(data))  # in place: a kill or full disk midway cannot lose the kept records

    # -- record-wise stages ----------------------------------------------------

    def start_stage(self, stage: str) -> None:
        info = self.stage_info(stage)
        if info.status == "done":
            raise StageStateError(f"stage {stage!r} is already done")
        self.repair_tail(stage)
        info.status = "running"
        if info.started_at is None:
            info.started_at = _utc_now()
        self.save_manifest()

    def reopen_stage(self, stage: str) -> None:
        """Deliberate done -> running transition (e.g. retrying quarantined records)."""
        info = self.stage_info(stage)
        info.status = "running"
        info.finished_at = None
        self.save_manifest()

    def append(self, stage: str, record: dict[str, Any]) -> None:
        """Append one record line and flush before acknowledging."""
        if stage in self.manifest.stages and self.stage_info(stage).status == "done":
            raise StageStateError(f"stage {stage!r} is done; appends are rejected")
        handle = self._handles.get(stage)
        if handle is None:
            handle = self.path(stage).open("a", encoding="utf-8")
            self._handles[stage] = handle
        try:
            handle.write(_jsonl_line(record))
            handle.flush()
        except OSError as exc:
            raise StoreError(f"write to {self.path(stage)} failed: {exc}") from exc

    def mark_done(self, stage: str, note: str | None = None) -> None:
        """Syncs the stage file, creating it when no record was written, then records the stage done."""
        with self._handles.pop(stage, None) or self.path(stage).open("ab") as handle:  # appends are flushed
            os.fsync(handle.fileno())
        self._finish(stage, sum(1 for _ in self.iter_records(stage)), note)

    def _finish(self, stage: str, count: int, note: str | None) -> None:
        info = self.stage_info(stage)
        info.status = "done"
        info.count = count
        info.finished_at = _utc_now()
        if note:
            info.note = note
        self.save_manifest()

    # -- whole-output stages -----------------------------------------------------

    def write_stage_atomic(self, stage: str, records: Iterable[dict[str, Any]], note: str | None = None) -> int:
        """Write a complete stage output via temp file + rename."""
        self.start_stage(stage)
        count = _write_jsonl(self.path(stage), records)
        self._finish(stage, count, note)
        return count

    def write_aux_atomic(self, name: str, records: Iterable[dict[str, Any]]) -> int:
        """Rewrite an auxiliary file (e.g. quarantine) without manifest bookkeeping."""
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        return _write_jsonl(self.path(name), records)

    # -- reads ---------------------------------------------------------------

    def iter_records(self, stage: str) -> Iterator[dict[str, Any]]:
        return iter_jsonl(self.path(stage))

    def processed_ids(self, stage: str) -> set[str]:
        """PMIDs already emitted for a stage; an absent file is an empty set."""
        return {record["pmid"] for record in self.iter_records(stage) if "pmid" in record}


class RunLock:
    """One subcommand per run directory; stale locks from dead PIDs are reclaimed."""

    def __init__(self, run_dir: str | Path):
        self.path = Path(run_dir) / ".lock"

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                break
            except FileExistsError:
                if self._holder_alive():
                    raise StoreError(f"run directory is locked by a live process ({self.path})") from None
                logger.warning("removing stale lock %s", self.path)
                self.path.unlink(missing_ok=True)
        else:
            raise StoreError(f"could not acquire lock {self.path}")
        for temp in self.path.parent.glob(".*.partial"):  # left by a writer killed inside atomic_file
            logger.warning("removing %s left by an interrupted write", temp)
            temp.unlink(missing_ok=True)

    def _holder_alive(self) -> bool:
        try:
            pid = int(self.path.read_text().strip())
        except (OSError, ValueError):
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True
        return True

    def release(self) -> None:
        self.path.unlink(missing_ok=True)
