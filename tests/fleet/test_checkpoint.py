"""Checkpoint store: atomic commits, failure rows, staging gc, the
pickle-free file and its corruption sweeps."""

from __future__ import annotations

import pickle

import pytest

from repro import fleet
from repro.engine import storage
from repro.fleet import CheckpointStore, FleetRunError
from repro.sentinels import TRUNCATED


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"job_id": "a" * 16, "rows_out": 3, "r_rows": [(1, 2)]}
        store.save("a" * 16, payload)
        assert store.has("a" * 16)
        assert store.load("a" * 16) == payload

    def test_completed_ids_sorted_and_staging_excluded(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("b" * 16, {})
        store.save("a" * 16, {})
        (tmp_path / "checkpoints" / ".staging-x-1").write_bytes(b"junk")
        assert store.completed_ids() == ["a" * 16, "b" * 16]

    def test_save_leaves_no_staging_debris(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a" * 16, {"k": 1})
        assert not list((tmp_path / "checkpoints").glob(".staging-*"))

    def test_save_overwrites(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a" * 16, {"v": 1})
        store.save("a" * 16, {"v": 2})
        assert store.load("a" * 16) == {"v": 2}
        assert store.completed_ids() == ["a" * 16]


class TestFailures:
    def test_record_and_list(self, tmp_path):
        store = CheckpointStore(tmp_path)
        row = {"job_id": "a" * 16, "trace": "t.trc", "stage": "fleet.job",
               "attempts": 3, "error": "boom", "cause": "ValueError"}
        store.record_failure("a" * 16, row)
        assert store.failures() == {"a" * 16: row}

    def test_success_clears_failure(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.record_failure("a" * 16, {"error": "boom"})
        store.save("a" * 16, {"ok": True})
        assert store.failures() == {}

    def test_unreadable_failure_row_degrades(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "failures" / ("a" * 16 + ".json")).write_text("{oops")
        assert store.failures() == {
            "a" * 16: {"error": "unreadable failure record"}
        }


class TestGc:
    def test_gc_removes_staging_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("a" * 16, {})
        (tmp_path / "checkpoints" / ".staging-dead-99").write_bytes(b"x")
        (tmp_path / "failures" / ".staging-dead-99").write_bytes(b"x")
        removed = store.gc()
        assert sorted(removed) == [".staging-dead-99", ".staging-dead-99"]
        assert store.completed_ids() == ["a" * 16]
        assert store.gc() == []


_JOB = "c" * 16
_PAYLOAD = {
    "job_id": _JOB, "index": 2, "trace": "traces/j2.btrc",
    "trace_rows": 9, "rows_out": 3, "r_columns": ["t", "s_id", "v"],
    "r_rows": [(0.5, "FC", 1.25), (1.0, "BC", None),
               (1.5, "FC", TRUNCATED)],
    "counts": {"r_out": 3}, "classification": {"FC": [1, 2]},
    "stage_seconds": {"interpret": 0.01},
    "report": {"counters": {"rows": 9}},
}


class TestCheckpointFile:
    def test_fleet_payloads_load_as_the_pickle_path_did(
        self, run_dir, monkeypatch
    ):
        saved = {}
        real_save = CheckpointStore.save

        def recording_save(self, job_id, payload):
            saved[job_id] = payload
            return real_save(self, job_id, payload)

        monkeypatch.setattr(CheckpointStore, "save", recording_save)
        fleet.run(run_dir, workers=1)
        store = CheckpointStore(run_dir)
        assert sorted(saved) == store.completed_ids()
        for job_id, payload in saved.items():
            assert payload["r_rows"]
            unpickled = pickle.loads(pickle.dumps(payload))
            assert store.load(job_id) == unpickled

    def test_no_pickle_on_disk(self, tmp_path):
        path = CheckpointStore(tmp_path).save(_JOB, _PAYLOAD)
        assert path.name == _JOB + ".ckpt"
        assert b"REPROTBL" in path.read_bytes()
        assert CheckpointStore(tmp_path).load(_JOB) == _PAYLOAD

    def _swept(self, tmp_path, damage):
        """*damage* applied at every offset of a checkpoint's file."""
        store = CheckpointStore(tmp_path)
        path = store.save(_JOB, _PAYLOAD)
        data = path.read_bytes()
        for offset in range(len(data)):
            path.write_bytes(damage(data, offset))
            with pytest.raises(FleetRunError) as caught:
                store.load(_JOB)
            message = str(caught.value)
            assert repr(_JOB) in message and "\n" not in message, offset

    def test_every_truncation_is_one_error_naming_the_job(self, tmp_path):
        self._swept(tmp_path, lambda data, cut: data[:cut])

    def test_every_byte_flip_is_one_error_naming_the_job(self, tmp_path):
        def flip(data, offset):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            return bytes(flipped)

        self._swept(tmp_path, flip)

    def test_a_pickle_era_checkpoint_is_never_read(self, run_dir):
        fleet.run(run_dir, workers=1)
        expected = (run_dir / fleet.SUMMARY_FILE).read_bytes()
        checkpoints = run_dir / "checkpoints"
        victim = sorted(checkpoints.glob("*.ckpt"))[0]
        job_id = victim.name[: -len(".ckpt")]
        # What the pickle-era store left: the job's payload as a pickle.
        payload = CheckpointStore(run_dir).load(job_id)
        (checkpoints / (job_id + ".pkl")).write_bytes(pickle.dumps(payload))
        victim.unlink()
        assert not CheckpointStore(run_dir).has(job_id)
        result = fleet.resume(run_dir, workers=1)
        assert result.executed == [job_id]
        assert (run_dir / fleet.SUMMARY_FILE).read_bytes() == expected

    @pytest.mark.parametrize("width", [None, -1, 2, 1 << 40, "3"])
    def test_a_head_that_does_not_match_its_section(self, tmp_path, width):
        store = CheckpointStore(tmp_path)
        path = store.save(_JOB, _PAYLOAD)
        head, sections = storage.unpack_file(path.read_bytes(),
                                             "repro.fleet.checkpoint/1")
        del head["section_bytes"]
        head["r_width"] = width
        path.write_bytes(storage.pack_file(head, sections))
        with pytest.raises(FleetRunError, match=repr(_JOB)):
            store.load(_JOB)
