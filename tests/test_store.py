"""Run-store appends, crash recovery, manifest state machine, locking."""

import contextlib
import errno
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ihcmine import store as store_mod
from ihcmine.errors import StageStateError, StoreError
from ihcmine.store import RunLock, RunStore, atomic_file, file_sha256


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

    def test_partial_trailing_line_raises_until_recovered(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\n{"pmid": "2"}\n{"pmid": "3"', encoding="utf-8")
        with pytest.raises(StoreError, match=r"classified\.jsonl:3: corrupt record$"):
            store.processed_ids("classified")
        store.recover()
        assert store.processed_ids("classified") == {"1", "2"}

    def test_corrupt_mid_file_raises(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\nnot json\n{"pmid": "3"}\n', encoding="utf-8")
        with pytest.raises(StoreError):
            store.processed_ids("classified")

    def test_invalid_utf8_mid_file_raises_naming_the_line(self, store):
        path = store.path("classified")
        path.write_bytes(b'{"pmid": "1"}\n\xff\xfe\n{"pmid": "3"}\n')
        with pytest.raises(StoreError, match=r"classified\.jsonl:2: corrupt record$"):
            store.processed_ids("classified")

    def test_multibyte_cut_last_line_raises_until_recovered(self, store):
        path = store.path("classified")
        path.write_bytes('{"pmid": "1"}\n{"pmid": "2", "note": "caf'.encode("utf-8") + "é".encode("utf-8")[:1])
        with pytest.raises(StoreError, match=r"classified\.jsonl:2: corrupt record$"):
            store.processed_ids("classified")
        store.recover()
        assert store.processed_ids("classified") == {"1"}

    def test_crlf_and_cr_line_breaks_read_as_before(self, store):
        path = store.path("classified")
        path.write_bytes(b'{"pmid": "1"}\r\n{"pmid": "2"}\r{"pmid": "3"}\n')
        assert store.processed_ids("classified") == {"1", "2", "3"}

    def test_iterator_dropped_after_its_first_record_leaves_no_open_file(self, store, monkeypatch):
        store.path("classified").write_text('{"pmid": "1"}\n{"pmid": "2"}\n', encoding="utf-8")
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(store_mod, "open", recording_open, raising=False)
        records = store.iter_records("classified")
        assert next(records) == {"pmid": "1"}
        (handle,) = opened
        assert not handle.closed
        del records
        assert handle.closed


class TestRecovery:
    def test_recover_truncates_partial_tail(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\n{"pmid": "2"', encoding="utf-8")
        store.recover()
        assert path.read_text() == '{"pmid": "1"}\n'
        store.start_stage("classified")
        store.append("classified", {"pmid": "2"})
        assert store.processed_ids("classified") == {"1", "2"}

    def test_repair_handles_complete_but_invalid_tail(self, store):
        path = store.path("classified")
        path.write_text('{"pmid": "1"}\ngarbage line\n', encoding="utf-8")
        store.recover()
        assert path.read_text() == '{"pmid": "1"}\n'

    def test_recover_repairs_the_quarantine_and_stages_not_done_only(self, store):
        store.start_stage("classified")
        store.append("classified", {"pmid": "1"})
        store.mark_done("classified")
        torn = {name: '{"pmid": "1"}\n{"pmid": "2"' for name in ("classified", "tables_raw", "quarantine")}
        for name, text in torn.items():
            store.path(name).write_text(text, encoding="utf-8")
        store.recover()
        assert store.path("classified").read_text() == torn["classified"]  # done: synced whole, so not a crash's tail
        assert store.path("tables_raw").read_text() == store.path("quarantine").read_text() == '{"pmid": "1"}\n'

    def test_open_writes_nothing(self, store):
        store.path("classified").write_text('{"pmid": "1"}\n{"pmid": "2"', encoding="utf-8")
        (store.run_dir / ".report.csv.x.partial").write_bytes(b"half")
        before = {path.name: path.read_bytes() for path in store.run_dir.iterdir()}
        RunStore.open(store.run_dir).close()
        assert {path.name: path.read_bytes() for path in store.run_dir.iterdir()} == before

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
            store.recover()
        monkeypatch.undo()
        assert store.processed_ids("classified") == {"1", "2"}

    @staticmethod
    def whole_file_repair(data):
        """The length the repair keeps, as the reference reads it: the whole file, dropping lines from its end."""
        if not data.endswith(b"\n"):
            data = data[: data.rfind(b"\n") + 1]
        while data:
            cut = data.rfind(b"\n", 0, len(data) - 1) + 1
            try:
                json.loads(data[cut:].decode("utf-8"))
                break
            except ValueError:
                data = data[:cut]
        return len(data)

    def test_repair_matches_whole_file_reference_on_random_tails(self, store):
        rng = random.Random(13)

        def record():  # some span two or three of the 64 KiB blocks the repair reads back
            return json.dumps({"pmid": str(rng.randint(1, 99)), "text": "x" * rng.choice([0, 9, 70_000, 140_000])})

        pieces = [
            lambda: record() + "\n",
            lambda: "\n",
            lambda: "\r\n",
            lambda: "garbage line\n",
            lambda: "y" * rng.randint(70_000, 140_000) + "\n",
            lambda: '{"pmid": "\udcff"}\n',
            lambda: record()[: rng.randint(0, 40)],
        ]
        path = store.path("classified")
        for _ in range(300):
            text = "".join(rng.choice(pieces)() for _ in range(rng.randint(0, 6)))
            data = text.encode("utf-8", "surrogateescape")
            path.write_bytes(data)
            store.recover()
            assert path.read_bytes() == data[: self.whole_file_repair(data)], repr(data[-200:])

    def test_repair_reads_a_bounded_tail(self, store):
        path = store.path("classified")
        line = json.dumps({"pmid": "1", "text": "x" * 1000}) + "\n"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(line * (8 * 1024 * 1024 // len(line) + 1) + line[:500])
        size = path.stat().st_size
        assert size >= 8 * 1024 * 1024
        tracemalloc.start()
        try:
            store.recover()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == size - 500
        assert peak < 1024 * 1024


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
        RunStore.create(run_dir)
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
        RunStore.open(run_dir).recover()  # what every command does once it holds the lock
        assert sorted(p.name for p in run_dir.iterdir()) == [".lock", "comparison_report.csv", "manifest.json"]
        lock.release()


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) + 7])
def test_file_sha256_equals_hashlib_across_block_edges(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


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

    def test_leftover_lock_naming_a_live_process_is_acquired(self, tmp_path):
        lock = RunLock(tmp_path)
        lock.path.write_text(str(os.getpid()))  # e.g. a restarted container's pipeline under the same PID
        lock.acquire()
        assert lock.path.read_text() == str(os.getpid())
        lock.release()

    @pytest.fixture
    def holder(self, tmp_path):
        """A child process that holds the run lock of ``tmp_path`` until its stdin closes."""
        code = (
            "import sys; from ihcmine.store import RunLock\n"
            "RunLock(sys.argv[1]).acquire(); print('held', flush=True); sys.stdin.read()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        args = [sys.executable, "-c", code, str(tmp_path)]
        with subprocess.Popen(args, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline() == "held\n"
            yield proc
            proc.kill()

    def test_lock_held_by_another_process_blocks(self, tmp_path, holder):
        with pytest.raises(StoreError, match="locked by a live process"):
            RunLock(tmp_path).acquire()
        assert holder.poll() is None

    def test_lock_of_a_killed_holder_is_acquired(self, tmp_path, holder):
        holder.send_signal(signal.SIGKILL)
        assert holder.wait(timeout=30) == -signal.SIGKILL
        lock = RunLock(tmp_path)
        lock.acquire()
        assert lock.path.read_text() == str(os.getpid())
        lock.release()
        assert not lock.path.exists()
