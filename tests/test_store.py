"""Run-store appends, crash recovery, manifest state machine, locking."""

import contextlib
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ihcmine.errors import StageStateError, StoreError
from ihcmine.store import RunLock, RunStore, atomic_file


@pytest.fixture
def store(tmp_path):
    with RunStore.create(tmp_path / "run1") as store:
        yield store


class TestAppend:
    def test_append_then_read(self, store):
        store.start_stage("classified")
        store.append("classified", {"pmid": "1", "label": "Include"})
        assert list(store.iter_records("classified")) == [{"pmid": "1", "label": "Include"}]

    def test_order_preserved(self, store):
        store.start_stage("classified")
        store.append("classified", {"pmid": "1"})
        store.append("classified", {"pmid": "2"})
        assert [r["pmid"] for r in store.iter_records("classified")] == ["1", "2"]

    def test_append_after_done_rejected(self, store):
        store.start_stage("classified")
        store.append("classified", {"pmid": "1"})
        store.mark_done("classified")
        with pytest.raises(StageStateError):
            store.append("classified", {"pmid": "2"})
        with pytest.raises(StageStateError):
            store.start_stage("classified")

    def test_mark_done_without_records_creates_the_file(self, store):
        store.start_stage("tables_raw")
        store.mark_done("tables_raw")
        assert store.path("tables_raw").read_bytes() == b""
        assert store.manifest.stages["tables_raw"].count == 0

    def test_mark_done_records_line_count(self, store):
        store.start_stage("classified")
        for i in range(5):
            store.append("classified", {"pmid": str(i)})
        store.mark_done("classified")
        assert store.manifest.stages["classified"].count == 5
        assert store.stage_done("classified")

    def test_flush_visible_before_done(self, store):
        store.start_stage("classified")
        store.append("classified", {"pmid": "1"})
        raw = store.path("classified").read_text()
        assert raw.endswith("\n") and json.loads(raw.splitlines()[0])["pmid"] == "1"


class TestProcessedIds:
    def test_fresh_run_empty(self, store):
        assert store.processed_ids("classified") == set()

    def test_five_records(self, store):
        store.start_stage("classified")
        for i in range(5):
            store.append("classified", {"pmid": str(i)})
        assert store.processed_ids("classified") == {"0", "1", "2", "3", "4"}

    def test_partial_trailing_line_ignored(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\n{"pmid": "2"}\n{"pmid": "3"', encoding="utf-8")
        assert store.processed_ids("classified") == {"1", "2"}

    def test_corrupt_mid_file_raises(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\nnot json\n{"pmid": "3"}\n', encoding="utf-8")
        with pytest.raises(StoreError):
            store.processed_ids("classified")

    def test_invalid_utf8_mid_file_raises_naming_the_line(self, store):
        path = store.path("classified")
        path.write_bytes(b'{"pmid": "1"}\n\xff\xfe\n{"pmid": "3"}\n')
        with pytest.raises(StoreError, match=r"classified\.jsonl:2: corrupt record mid-file"):
            store.processed_ids("classified")

    def test_last_line_cut_inside_a_multibyte_character_ignored(self, store):
        path = store.path("classified")
        path.write_bytes('{"pmid": "1"}\n{"pmid": "2", "note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1])
        assert store.processed_ids("classified") == {"1"}

    def test_crlf_and_cr_line_breaks_read_as_before(self, store):
        path = store.path("classified")
        path.write_bytes(b'{"pmid": "1"}\r\n{"pmid": "2"}\r{"pmid": "3"}\n')
        assert store.processed_ids("classified") == {"1", "2", "3"}


class TestRecovery:
    def test_start_stage_truncates_partial_tail(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\n{"pmid": "2"', encoding="utf-8")
        store.start_stage("classified")
        assert path.read_text() == '{"pmid": "1"}\n'
        store.append("classified", {"pmid": "2"})
        assert store.processed_ids("classified") == {"1", "2"}

    def test_repair_handles_complete_but_invalid_tail(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\ngarbage line\n', encoding="utf-8")
        store.start_stage("classified")
        assert path.read_text() == '{"pmid": "1"}\n'

    def test_repair_that_cannot_write_keeps_complete_records(self, store, monkeypatch):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\n{"pmid": "2"}\n{"pmid": "3"', encoding="utf-8")
        real_open = Path.open

        def open_then_disk_full(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            if mode.strip("bt") != "r":
                handle.close()
                raise OSError(errno.ENOSPC, "No space left on device")
            return handle

        monkeypatch.setattr(Path, "open", open_then_disk_full)
        with contextlib.suppress(OSError):  # the repair may fail, but must not lose what it keeps
            store.repair_tail("classified")
        monkeypatch.undo()
        assert store.processed_ids("classified") == {"1", "2"}


class TestAtomicStage:
    def test_write_and_done(self, store):
        count = store.write_stage_atomic("corpus", ({"pmid": str(i)} for i in range(3)))
        assert count == 3
        assert store.stage_done("corpus")
        assert list(store.run_dir.glob(".*.partial")) == []

    def test_rejected_when_done(self, store):
        store.write_stage_atomic("corpus", [{"pmid": "1"}])
        with pytest.raises(StageStateError):
            store.write_stage_atomic("corpus", [{"pmid": "2"}])


class TestAtomicFile:
    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_raise_inside_block_keeps_old_bytes(self, tmp_path, error):
        target = tmp_path / "report.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(error):
            with atomic_file(target) as handle:
                handle.write("new\n")
                raise error
        assert target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_text_is_utf8_without_newline_translation(self, tmp_path):
        target = tmp_path / "out.csv"
        with atomic_file(target) as handle:
            handle.write("caf\u00e9\r\n\n")
        assert target.read_bytes() == "caf\u00e9\r\n\n".encode("utf-8")
        with atomic_file(target, "wb") as handle:
            handle.write(b"\x00\xff")
        assert target.read_bytes() == b"\x00\xff"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_file_gets_the_mode_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("", encoding="utf-8")
        with atomic_file(tmp_path / "atomic") as handle:
            handle.write("x")
        assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode

    def test_killed_writer_leaves_old_target_and_next_lock_holder_sweeps(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        target = run_dir / "comparison_report.csv"
        target.write_bytes(b"old\n")
        code = (
            "import os, sys; from ihcmine.store import atomic_file\n"
            "with atomic_file(sys.argv[1]) as handle:\n"
            "    handle.write('new' * 1000); handle.flush(); os._exit(3)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        assert subprocess.run([sys.executable, "-c", code, str(target)], env=env).returncode == 3
        assert target.read_bytes() == b"old\n"
        (temp,) = run_dir.glob(".*.partial")
        assert temp.name.startswith(".comparison_report.csv.") and temp.stat().st_size == 3000
        lock = RunLock(run_dir)
        lock.acquire()
        assert sorted(p.name for p in run_dir.iterdir()) == [".lock", "comparison_report.csv"]
        lock.release()


class TestManifest:
    def test_open_or_create_round_trip(self, tmp_path):
        run_dir = tmp_path / "run"
        first = RunStore.create(run_dir)
        first.write_stage_atomic("corpus", [{"pmid": "1"}])
        again = RunStore.open_or_create(run_dir)
        assert again.manifest.run_id == first.manifest.run_id
        assert again.manifest.stages["corpus"] == first.manifest.stages["corpus"]

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError):
            RunStore.open(tmp_path / "nope")

    @pytest.mark.parametrize("text", ['{"run_id": ', "[]", '{"stages": {}}'], ids=["truncated", "not-an-object", "no-run-id"])
    def test_unreadable_manifest_names_its_path(self, tmp_path, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(text, encoding="utf-8")
        with pytest.raises(StoreError, match=r"run[/\\]manifest\.json: unreadable manifest"):
            RunStore.open(run_dir)


class TestRunLock:
    def test_acquire_release(self, tmp_path):
        lock = RunLock(tmp_path)
        lock.acquire()
        assert lock.path.exists()
        lock.release()
        assert not lock.path.exists()

    def test_second_acquire_blocked_while_held(self, tmp_path):
        lock = RunLock(tmp_path)
        lock.acquire()
        with pytest.raises(StoreError, match="locked"):
            RunLock(tmp_path).acquire()
        lock.release()

    def test_stale_lock_reclaimed(self, tmp_path):
        lock = RunLock(tmp_path)
        lock.path.write_text("999999999")  # no such pid
        lock.acquire()
        assert lock.path.read_text() == str(os.getpid())
        lock.release()
