"""End-to-end sweeps: run, failure isolation, and the crash-resume
equivalence guarantee (the subsystem's acceptance test)."""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro import fleet
from repro.fleet.checkpoint import CheckpointStore
from repro.obs import MetricsRegistry, validate_report

from tests.fleet.conftest import NUM_TRACES


def _tree_digest(root):
    """Digest of every file (path + bytes) under *root*."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _final_artifacts_digest(run_dir):
    """Digest of the byte-identity surface: output table + summary.

    The fleet report is deliberately excluded -- it records wall times.
    """
    digest = hashlib.sha256()
    digest.update(_tree_digest(Path(run_dir) / "output").encode())
    digest.update((Path(run_dir) / fleet.SUMMARY_FILE).read_bytes())
    return digest.hexdigest()


class OrchestratorKilled(Exception):
    """The driver's death, raised where a commit would have landed."""


def _kill_before_commit(monkeypatch, k):
    """Make the sweep die as it tries to land its commit number ``k``
    (counting from 0): exactly ``k`` checkpoints land first."""
    save = CheckpointStore.save
    landed = []

    def save_or_die(store, job_id, payload):
        if len(landed) == k:
            raise OrchestratorKilled("killed before commit {}".format(k))
        landed.append(job_id)
        return save(store, job_id, payload)

    monkeypatch.setattr(CheckpointStore, "save", save_or_die)


class TestRun:
    def test_sweep_completes_every_job(self, run_dir):
        result = fleet.run(run_dir, workers=1)
        assert len(result.executed) == NUM_TRACES
        assert not result.failed
        assert set(result.statuses.values()) == {"done"}
        assert result.summary["completed"] == NUM_TRACES
        assert result.summary["rows_out"] > 0
        assert (run_dir / "output" / (fleet.OUTPUT_TABLE + ".tbl")).is_file()

    def test_report_written_and_schema_valid(self, run_dir):
        fleet.run(run_dir, workers=1)
        payload = json.loads(
            (run_dir / fleet.REPORT_FILE).read_text(encoding="utf-8")
        )
        validate_report(payload)
        assert payload["meta"]["dataset"] == "SYN"
        assert len(payload["jobs"]) == NUM_TRACES
        assert payload["counters"]["fleet.jobs_run"] == NUM_TRACES
        assert payload["histograms"]["fleet.job_seconds"]["count"] \
            == NUM_TRACES

    def test_summary_and_report_carry_their_own_format_tags(self, run_dir):
        fleet.run(run_dir, workers=1)
        summary = json.loads((run_dir / fleet.SUMMARY_FILE).read_text())
        report = (run_dir / fleet.REPORT_FILE).read_bytes()
        assert summary["format"] == fleet.SUMMARY_FORMAT
        assert fleet.SUMMARY_FORMAT != fleet.FLEET_REPORT_FORMAT
        assert validate_report(report)["format"] == \
            fleet.FLEET_REPORT_FORMAT

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["fresh", "cached"])
    def test_each_checkpoint_is_read_once(self, run_dir, monkeypatch,
                                          cached):
        if cached:
            fleet.run(run_dir, workers=1)
        load = CheckpointStore.load
        loaded = []

        def counting_load(store, job_id):
            loaded.append(job_id)
            return load(store, job_id)

        monkeypatch.setattr(CheckpointStore, "load", counting_load)
        result = fleet.run(run_dir, workers=1)
        assert sorted(loaded) == sorted(result.catalog.job_ids())
        report = json.loads((run_dir / fleet.REPORT_FILE).read_text())
        assert [row["rows_out"] for row in report["jobs"]] == [
            row["rows_out"] for row in result.summary["per_trace"]
        ]

    def test_second_run_is_fully_cached_and_byte_identical(self, run_dir):
        fleet.run(run_dir, workers=1)
        before = _final_artifacts_digest(run_dir)
        again = fleet.run(run_dir, workers=1)
        assert not again.executed
        assert len(again.cached) == NUM_TRACES
        assert _final_artifacts_digest(run_dir) == before

    def test_status_before_and_after(self, run_dir):
        before = fleet.status(run_dir)
        assert before["pending"] == NUM_TRACES
        assert before["completed"] == 0
        assert not before["aggregated"]
        fleet.run(run_dir, workers=1)
        after = fleet.status(run_dir)
        assert after["completed"] == NUM_TRACES
        assert after["pending"] == 0
        assert after["aggregated"]

    def test_process_pool_matches_serial_output(self, fleet_template,
                                                tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        shutil.copytree(fleet_template, serial)
        shutil.copytree(fleet_template, pooled)
        fleet.run(serial, workers=1)
        fleet.run(pooled, workers=2)
        assert _final_artifacts_digest(serial) == \
            _final_artifacts_digest(pooled)


class TestFailureIsolation:
    def _poison_one_trace(self, run_dir):
        catalog = fleet.JobCatalog.load(run_dir)
        victim = catalog.jobs[1]
        (run_dir / victim.trace).write_text("this is not a trace\n")
        return victim

    def test_poisoned_trace_fails_alone(self, run_dir):
        victim = self._poison_one_trace(run_dir)
        result = fleet.run(run_dir, workers=1)
        assert len(result.executed) == NUM_TRACES - 1
        assert set(result.failed) == {victim.job_id}
        row = result.failed[victim.job_id]
        assert row["trace"] == victim.trace
        assert row["stage"] == "load"
        assert row["cause"] == "TraceFormatError"
        # The survivors still aggregated.
        assert result.summary["completed"] == NUM_TRACES - 1
        assert result.summary["failed"] == 1
        report = json.loads((run_dir / fleet.REPORT_FILE).read_text())
        validate_report(report)
        assert report["failures"][0]["job_id"] == victim.job_id
        assert report["failures"][0]["stage"] == "load"
        summary = json.loads((run_dir / fleet.SUMMARY_FILE).read_text())
        assert [f["stage"] for f in summary["failures"]] == ["load"]

    def test_resume_retries_failed_job(self, run_dir, fleet_template):
        victim = self._poison_one_trace(run_dir)
        fleet.run(run_dir, workers=1)
        # Operator restores the original trace file; resume retries.
        shutil.copyfile(
            fleet_template / victim.trace, run_dir / victim.trace
        )
        result = fleet.resume(run_dir, workers=1)
        assert result.executed == [victim.job_id]
        assert len(result.cached) == NUM_TRACES - 1
        assert not result.failed
        assert fleet.status(run_dir)["failed"] == 0


class TestCrashResumeEquivalence:
    """Kill after k of n commits, resume: byte-identical final artifacts."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, fleet_template, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("uninterrupted") / "run"
        shutil.copytree(fleet_template, run_dir)
        fleet.run(run_dir, workers=1)
        return run_dir

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("k", range(1, NUM_TRACES))
    def test_killed_and_resumed_sweep_matches_uninterrupted(
        self, fleet_template, uninterrupted, tmp_path, monkeypatch, k,
        workers
    ):
        killed = tmp_path / "b"
        shutil.copytree(fleet_template, killed)

        with monkeypatch.context() as patch:
            _kill_before_commit(patch, k)
            with pytest.raises(OrchestratorKilled):
                fleet.run(killed, workers=workers)
        # Exactly k commits landed before the driver's death.
        assert len(fleet.CheckpointStore(killed).completed_ids()) == k
        assert not (killed / fleet.SUMMARY_FILE).exists()

        registry = MetricsRegistry()
        result = fleet.resume(killed, workers=workers, registry=registry)

        # Exactly n - k jobs re-executed, k reused from checkpoints --
        # asserted on the run result AND the fleet.* obs counters.
        assert len(result.executed) == NUM_TRACES - k
        assert len(result.cached) == k
        snap = registry.snapshot()
        assert snap["counters"]["fleet.jobs_executed"] == NUM_TRACES - k
        assert snap["counters"]["fleet.jobs_cached"] == k
        assert snap["counters"]["fleet.jobs_run"] == NUM_TRACES - k

        # Final artifacts are byte-identical to the uninterrupted sweep.
        assert _final_artifacts_digest(killed) == \
            _final_artifacts_digest(uninterrupted)

        # The summed per-trace executor counters agree too: the same
        # work happened exactly once per trace across kill + resume.
        report_a = json.loads(
            (uninterrupted / fleet.REPORT_FILE).read_text()
        )
        report_b = json.loads((killed / fleet.REPORT_FILE).read_text())
        exec_counters = lambda payload: {  # noqa: E731
            name: value for name, value in payload["counters"].items()
            if name.startswith(("executor.", "pipeline."))
        }
        assert exec_counters(report_a) == exec_counters(report_b)


class TestPrepare:
    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(fleet.CatalogError, match="unknown dataset"):
            fleet.prepare_run(tmp_path, "NOPE", 2)

    def test_trace_count_validated(self, tmp_path):
        with pytest.raises(fleet.CatalogError, match="num_traces"):
            fleet.prepare_run(tmp_path, "SYN", 0)

    def test_bad_params_rejected_before_any_journey(self, tmp_path):
        from repro.core.params import ParameterizationError

        target = tmp_path / "sweep"
        with pytest.raises(ParameterizationError):
            fleet.prepare_run(target, "SYN", 2, duration=2,
                              params={"signals": "not-a-list"})
        assert not target.exists()

    def test_make_catalog_over_existing_traces(self, fleet_template,
                                               tmp_path):
        target = tmp_path / "run"
        target.mkdir()
        traces = []
        for src in sorted((fleet_template / "traces").iterdir())[:2]:
            dst = target / src.name
            shutil.copyfile(src, dst)
            traces.append(dst)
        catalog = fleet.make_catalog(target, traces, "SYN")
        assert len(catalog) == 2
        assert fleet.JobCatalog.load(target).job_ids() == catalog.job_ids()
