"""Run-store appends, crash recovery, manifest state machine, locking."""

import json
import os

import pytest

from ihcmine.errors import StageStateError, StoreError
from ihcmine.store import RunLock, RunStore


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


class TestAtomicStage:
    def test_write_and_done(self, store):
        count = store.write_stage_atomic("corpus", ({"pmid": str(i)} for i in range(3)))
        assert count == 3
        assert store.stage_done("corpus")
        assert not store.path("corpus").with_suffix(".jsonl.partial").exists()

    def test_rejected_when_done(self, store):
        store.write_stage_atomic("corpus", [{"pmid": "1"}])
        with pytest.raises(StageStateError):
            store.write_stage_atomic("corpus", [{"pmid": "2"}])


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
