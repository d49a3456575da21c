"""Append-only JSONL run store with a manifest for idempotent resume.

Each stage owns one JSONL file under the run directory. Record-wise stages append and
flush per record, so a killed run leaves at most a partial trailing line. Every whole
file (a whole-output stage, a quarantine rewrite, the manifest, a report, a dictionary
cache entry) is written by ``atomic_file``: it holds its old bytes or its new ones,
beside at most a ``.partial`` file. ``RunStore.recover`` removes both leftovers, once
per command, before any stage file is read. A stage is marked done once its file is synced; its
manifest entry (``provenance.StageInfo``) then records the file's line count, size and sha256,
from one pass over the bytes, and the stage rejects further appends.

``iter_jsonl`` is the one JSONL reader, for stage files and for the
evaluation commands' gold and prediction files alike. ``RunLock`` lets one
subcommand at a time use a run directory.
"""

from __future__ import annotations

import contextlib
import fcntl
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
from .provenance import STAGES, StageInfo, file_digest

logger = logging.getLogger(__name__)

AUX_FILES = ("quarantine",)

_MANIFEST_NAME = "manifest.json"
_TAIL_BLOCK = 1 << 16
_UMASK = os.umask(0o022)  # read once, so atomic_file gives its files the mode open() would
os.umask(_UMASK)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


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


def _line_start(handle: IO[bytes], end: int) -> int:
    """The offset just past the last newline before ``end``, or 0; reads back in bounded blocks."""
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        handle.seek(start)
        found = handle.read(end - start).rfind(b"\n")
        if found >= 0:
            return start + found + 1
        end = start
    return 0


def _write_jsonl(path: Path, records: Iterable[dict[str, Any]]) -> None:
    with atomic_file(path) as handle:
        handle.writelines(map(_jsonl_line, records))


def iter_jsonl(path: str | Path) -> Iterator[Any]:
    """Records of a JSONL file, read as a stream; an absent file yields nothing and blank lines are skipped.

    Lines end at \\n, \\r\\n or \\r, and each is decoded by itself, so invalid UTF-8 counts as
    corruption of its line. Any corrupt line, the last one too, raises ``StoreError`` naming ``path:line``.
    """
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:  # a byte that is not UTF-8 -> a surrogate
        for lineno, line in enumerate(handle, 1):
            if line == "\n":
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # raises on a surrogate
                record = json.loads(line)
            except ValueError as exc:  # UnicodeError is a ValueError
                raise StoreError(f"{path}:{lineno}: corrupt record") from exc
            yield record


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

    def recover(self) -> None:
        """Deletes killed writers' ``.partial`` files and the torn tails of the quarantine and of stages not done."""
        for temp in self.run_dir.glob(".*.partial"):
            logger.warning("removing %s left by an interrupted write", temp)
            temp.unlink(missing_ok=True)
        for name in (*AUX_FILES, *(stage for stage in STAGES if not self.stage_done(stage))):
            self.repair_tail(name)

    def repair_tail(self, stage: str) -> None:
        """Drop a partial or non-JSON trailing line left by a crash, reading only the lines it inspects."""
        path = self.path(stage)
        if not path.exists():
            return
        with path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
            end = _line_start(handle, size)  # a last line without its newline is cut off
            while end:
                start = _line_start(handle, end - 1)
                handle.seek(start)
                try:
                    json.loads(handle.read(end - start).decode("utf-8"))
                    break
                except ValueError:  # UnicodeDecodeError is a ValueError
                    end = start
        if end < size:
            logger.warning("dropping corrupt trailing line from %s", path)
            os.truncate(path, end)  # in place: a kill or full disk midway cannot lose the kept records

    # -- record-wise stages ----------------------------------------------------

    def start_stage(self, stage: str) -> None:
        info = self.stage_info(stage)
        if info.status == "done":
            raise StageStateError(f"stage {stage!r} is already done")
        info.status = "running"
        if info.started_at is None:
            info.started_at = _utc_now()
        self.save_manifest()

    def reopen_stage(self, stage: str) -> None:
        """Deliberate done -> running transition (e.g. retrying quarantined records)."""
        info = self.stage_info(stage)
        info.status = "running"
        info.count = info.bytes = info.sha256 = info.finished_at = None
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
        self._finish(stage, note)

    def _finish(self, stage: str, note: str | None) -> None:
        info = self.stage_info(stage)
        info.status = "done"
        info.count, info.bytes, info.sha256 = file_digest(self.path(stage))
        info.finished_at = _utc_now()
        if note:
            info.note = note
        self.save_manifest()

    # -- whole-output stages -----------------------------------------------------

    def write_stage_atomic(self, stage: str, records: Iterable[dict[str, Any]], note: str | None = None) -> int:
        """Write a complete stage output via temp file + rename."""
        self.start_stage(stage)
        _write_jsonl(self.path(stage), records)
        self._finish(stage, note)
        return self.stage_info(stage).count

    def write_aux_atomic(self, name: str, records: Iterable[dict[str, Any]]) -> None:
        """Rewrite an auxiliary file (e.g. quarantine) without manifest bookkeeping."""
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        _write_jsonl(self.path(name), records)

    # -- reads ---------------------------------------------------------------

    def iter_records(self, stage: str) -> Iterator[dict[str, Any]]:
        return iter_jsonl(self.path(stage))

    def processed_ids(self, stage: str) -> set[str]:
        """PMIDs already emitted for a stage; an absent file is an empty set."""
        return {record["pmid"] for record in self.iter_records(stage) if "pmid" in record}


class RunLock:
    """One subcommand per run directory: an exclusive ``flock`` on ``.lock``.

    The kernel drops the lock when its holder exits or is killed, so a ``.lock``
    file left behind is harmless. The PID written into it is for humans only.
    """

    def __init__(self, run_dir: str | Path):
        self.path = Path(run_dir) / ".lock"
        self._fd: int | None = None

    def acquire(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while self._fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self._fd = fd
            except BlockingIOError:
                raise StoreError(f"run directory is locked by a live process ({self.path})") from None
            except FileNotFoundError:
                pass
            finally:
                if self._fd != fd:  # not locked, or a releaser unlinked the file after our open: try again
                    os.close(fd)
        os.ftruncate(self._fd, 0)
        os.write(self._fd, str(os.getpid()).encode("ascii"))

    def release(self) -> None:
        self.path.unlink(missing_ok=True)  # before the close, so a waiter that opened this file tries again
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
