"""Append-only JSONL run store with a manifest for idempotent resume.

Each stage owns one JSONL file under the run directory. Record-wise stages
append and flush per record so a killed run loses at most a partial
trailing line, which is truncated away on reopen; whole-output stages
(fetch, normalize, aggregate) commit via temp-file rename. A stage marked
done rejects further appends and a differing config hash refuses to reuse
the directory, so results never silently mix configurations.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import StageStateError, StoreError

logger = logging.getLogger(__name__)

STAGES = ("corpus", "classified", "tables_raw", "tables_parsed", "normalized", "aggregates")
AUX_FILES = ("quarantine",)

_MANIFEST_NAME = "manifest.json"


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


@dataclass
class StageInfo:
    status: str = "pending"  # pending | running | done
    count: int | None = None
    started_at: str | None = None
    finished_at: str | None = None
    note: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "count": self.count,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StageInfo":
        return cls(
            status=d.get("status", "pending"),
            count=d.get("count"),
            started_at=d.get("started_at"),
            finished_at=d.get("finished_at"),
            note=d.get("note"),
        )


@dataclass
class RunManifest:
    run_id: str
    config_hash: str
    prompt_template_hashes: dict[str, str] = field(default_factory=dict)
    stages: dict[str, StageInfo] = field(default_factory=lambda: {s: StageInfo() for s in STAGES})
    created_at: str = field(default_factory=_utc_now)

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "config_hash": self.config_hash,
            "prompt_template_hashes": dict(self.prompt_template_hashes),
            "stages": {name: info.to_dict() for name, info in self.stages.items()},
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunManifest":
        stages = {name: StageInfo.from_dict(info) for name, info in d.get("stages", {}).items()}
        for name in STAGES:
            stages.setdefault(name, StageInfo())
        return cls(
            run_id=d["run_id"],
            config_hash=d["config_hash"],
            prompt_template_hashes=dict(d.get("prompt_template_hashes", {})),
            stages=stages,
            created_at=d.get("created_at", ""),
        )


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class RunStore:
    """Single writer per stage file; completed stages may be read concurrently."""

    def __init__(self, run_dir: str | Path, manifest: RunManifest):
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self._handles: dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        run_dir: str | Path,
        config_hash: str,
        prompt_template_hashes: dict[str, str] | None = None,
        run_id: str | None = None,
    ) -> "RunStore":
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = run_dir / _MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(f"run directory {run_dir} already has a manifest")
        manifest = RunManifest(
            run_id=run_id or run_dir.name,
            config_hash=config_hash,
            prompt_template_hashes=prompt_template_hashes or {},
        )
        store = cls(run_dir, manifest)
        store.save_manifest()
        return store

    @classmethod
    def open(cls, run_dir: str | Path) -> "RunStore":
        run_dir = Path(run_dir)
        manifest_path = run_dir / _MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no manifest in {run_dir}")
        manifest = RunManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
        return cls(run_dir, manifest)

    @classmethod
    def open_or_create(
        cls,
        run_dir: str | Path,
        config_hash: str,
        prompt_template_hashes: dict[str, str] | None = None,
    ) -> "RunStore":
        manifest_path = Path(run_dir) / _MANIFEST_NAME
        if manifest_path.exists():
            store = cls.open(run_dir)
            if store.manifest.config_hash != config_hash:
                raise StoreError(
                    f"run directory {run_dir} was created with a different configuration "
                    f"(hash {store.manifest.config_hash} != {config_hash}); use a new run directory"
                )
            return store
        return cls.create(run_dir, config_hash, prompt_template_hashes)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save_manifest(self) -> None:
        _atomic_write_text(self.run_dir / _MANIFEST_NAME, json.dumps(self.manifest.to_dict(), indent=2))

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
            with path.open("wb") as handle:
                handle.write(data)

    # -- record-wise stages ----------------------------------------------------

    def start_stage(self, stage: str, note: str | None = None) -> None:
        info = self.stage_info(stage)
        if info.status == "done":
            raise StageStateError(f"stage {stage!r} is already done")
        self.repair_tail(stage)
        info.status = "running"
        if info.started_at is None:
            info.started_at = _utc_now()
        if note:
            info.note = note
        self.save_manifest()

    def reopen_stage(self, stage: str, note: str | None = None) -> None:
        """Deliberate done -> running transition (e.g. retrying quarantined records)."""
        info = self.stage_info(stage)
        info.status = "running"
        info.finished_at = None
        if note:
            info.note = note
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
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            handle.flush()
        except OSError as exc:
            raise StoreError(f"write to {self.path(stage)} failed: {exc}") from exc

    def mark_done(self, stage: str, note: str | None = None) -> None:
        handle = self._handles.pop(stage, None)
        if handle is not None:
            handle.close()
        info = self.stage_info(stage)
        info.status = "done"
        info.count = sum(1 for _ in self.iter_records(stage))
        info.finished_at = _utc_now()
        if note:
            info.note = note
        self.save_manifest()

    # -- whole-output stages -----------------------------------------------------

    def write_stage_atomic(self, stage: str, records: Iterable[dict[str, Any]], note: str | None = None) -> int:
        """Write a complete stage output via temp file + rename."""
        info = self.stage_info(stage)
        if info.status == "done":
            raise StageStateError(f"stage {stage!r} is already done")
        info.status = "running"
        info.started_at = info.started_at or _utc_now()
        self.save_manifest()
        path = self.path(stage)
        tmp = path.with_suffix(".jsonl.partial")
        count = 0
        with tmp.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        info.status = "done"
        info.count = count
        info.finished_at = _utc_now()
        if note:
            info.note = note
        self.save_manifest()
        return count

    def write_aux_atomic(self, name: str, records: Iterable[dict[str, Any]]) -> int:
        """Rewrite an auxiliary file (e.g. quarantine) without manifest bookkeeping."""
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.close()
        path = self.path(name)
        tmp = path.with_suffix(".jsonl.partial")
        count = 0
        with tmp.open("w", encoding="utf-8") as out:
            for record in records:
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
                count += 1
        os.replace(tmp, path)
        return count

    # -- reads ---------------------------------------------------------------

    def iter_records(self, stage: str) -> Iterator[dict[str, Any]]:
        path = self.path(stage)
        if not path.exists():
            return
        with path.open(encoding="utf-8") as handle:
            lines = handle.readlines()
        for idx, line in enumerate(lines):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            try:
                yield json.loads(stripped)
            except ValueError as exc:
                if idx == len(lines) - 1:
                    logger.warning("ignoring corrupt trailing line in %s", path)
                    return
                raise StoreError(f"{path}:{idx + 1}: corrupt record mid-file") from exc

    def read_records(self, stage: str) -> list[dict[str, Any]]:
        return list(self.iter_records(stage))

    def processed_ids(self, stage: str, id_field: str = "pmid") -> set[str]:
        """PMIDs already emitted for a stage; an absent file is an empty set."""
        return {record[id_field] for record in self.iter_records(stage) if id_field in record}


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
                return
            except FileExistsError:
                if self._holder_alive():
                    raise StoreError(f"run directory is locked by a live process ({self.path})") from None
                logger.warning("removing stale lock %s", self.path)
                try:
                    self.path.unlink()
                except FileNotFoundError:
                    pass
        raise StoreError(f"could not acquire lock {self.path}")

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
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
