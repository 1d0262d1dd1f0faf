"""StreamIngestService: end-to-end serve, kill-and-resume identity,
checkpoint plumbing and the stream.* counter contract."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.incremental import IncrementalRunner, split_into_windows
from repro.core.params import config_from_dict
from repro.engine import EngineContext
from repro.obs import MetricsRegistry
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream import (
    ReplaySource,
    StreamCheckpointer,
    StreamConfig,
    StreamError,
    StreamIngestService,
)
from repro.testing.generator import generate_journey_case


def journey(seed=5, lossy=False):
    case = generate_journey_case(random.Random(seed), lossy=lossy)
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    return case, ctx, config


def sorted_rows(table):
    return sorted(table.collect(), key=repr)


def batch_rows(ctx, config, records, window_seconds):
    runner = IncrementalRunner(config)
    for window in split_into_windows(list(records), window_seconds):
        runner.process_window(
            ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
        )
    return sorted_rows(runner.finalize(ctx).r_out)


STREAM = StreamConfig(window_seconds=1.0, grace_seconds=5.0,
                      checkpoint_every=13)


class TestServe:
    def test_clean_serve_matches_batch_windowing(self, tmp_path):
        case, ctx, config = journey()
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ReplaySource(case.records), config, ctx)
        result = asyncio.run(service.serve())
        assert not result.killed
        assert result.sessions["v"]["drained"]
        assert sorted_rows(service.finalize_all()["v"].r_out) == \
            batch_rows(ctx, config, case.records, 1.0)

    def test_multiple_vehicles_serve_independently(self, tmp_path):
        case_a, ctx, config_a = journey(seed=5)
        case_b, _, _ = journey(seed=6)
        config_b = config_from_dict(case_b.params, case_b.database)
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("a", ReplaySource(case_a.records), config_a, ctx)
        service.add_vehicle("b", ReplaySource(case_b.records), config_b, ctx)
        result = asyncio.run(service.serve())
        assert not result.killed
        finals = service.finalize_all()
        assert sorted_rows(finals["a"].r_out) == \
            batch_rows(ctx, config_a, case_a.records, 1.0)
        assert sorted_rows(finals["b"].r_out) == \
            batch_rows(ctx, config_b, case_b.records, 1.0)

    def test_serve_without_vehicles_is_an_error(self, tmp_path):
        service = StreamIngestService(tmp_path, STREAM)
        with pytest.raises(StreamError):
            asyncio.run(service.serve())

    def test_duplicate_vehicle_is_an_error(self, tmp_path):
        case, ctx, config = journey()
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ReplaySource(case.records), config, ctx)
        with pytest.raises(StreamError):
            service.add_vehicle("v", ReplaySource(case.records), config, ctx)

    def test_config_validation(self):
        with pytest.raises(StreamError):
            StreamConfig(window_seconds=0)
        with pytest.raises(StreamError):
            StreamConfig(grace_seconds=-1)
        with pytest.raises(StreamError):
            StreamConfig(queue_capacity=0)
        with pytest.raises(StreamError):
            StreamConfig(checkpoint_every=-1)


class TestKillAndResume:
    @pytest.mark.parametrize("seed,lossy", [(5, False), (9, True), (21, True)])
    def test_byte_identical_output_and_exact_redelivery(
        self, tmp_path, seed, lossy
    ):
        """The tentpole guarantee: kill at an arbitrary committed
        checkpoint + replay of undelivered frames == uninterrupted run,
        with the re-delivery count exactly observable via stream.*."""
        case, ctx, config = journey(seed, lossy)
        baseline = batch_rows(ctx, config, case.records, 1.0)
        total = len(case.records)
        kill_at = total // 2 or 1

        run_dir = tmp_path / "run"
        metrics_1 = MetricsRegistry()
        service_1 = StreamIngestService(run_dir, STREAM, metrics=metrics_1)
        service_1.add_vehicle("v", ReplaySource(case.records), config, ctx)
        result_1 = asyncio.run(service_1.serve(max_frames=kill_at))
        assert result_1.killed
        assert result_1.frames_delivered == kill_at

        metrics_2 = MetricsRegistry()
        service_2 = StreamIngestService(run_dir, STREAM, metrics=metrics_2)
        service_2.add_vehicle("v", ReplaySource(case.records), config, ctx)
        result_2 = asyncio.run(service_2.serve())
        assert not result_2.killed
        assert sorted_rows(service_2.finalize_all()["v"].r_out) == baseline

        # Exact re-delivery accounting from the counters alone: the
        # resumed run skips exactly the checkpointed frames and
        # re-delivers exactly those the kill cut off after the last
        # committed snapshot.
        received_1 = metrics_1.counters()["stream.frames_received"]
        counters_2 = metrics_2.counters()
        skipped = counters_2.get("stream.resume.frames_skipped", 0)
        received_2 = counters_2["stream.frames_received"]
        # A kill before the first periodic commit resumes from scratch
        # (0 sessions, 0 skipped); otherwise exactly one session resumes.
        committed_before_kill = kill_at >= STREAM.checkpoint_every
        assert counters_2.get("stream.resume.sessions", 0) == \
            (1 if committed_before_kill else 0)
        assert received_1 == kill_at
        assert skipped <= kill_at  # only committed work is skipped
        assert received_2 == total - skipped
        redelivered = received_1 - skipped
        assert redelivered == kill_at - skipped >= 0
        assert result_2.sessions["v"]["resumed_from"] == skipped

    def test_every_frame_count_is_a_valid_kill_point(self, tmp_path):
        """Two vehicles (one of them two-channel) killed after every
        ``max_frames`` in ``0..N``, wherever the shared budget happens
        to fall between them and whatever the last commit covered: the
        resumed ``finalize_all()`` equals the uninterrupted run's."""
        case_a, ctx, config_a = journey(seed=3, lossy=True)
        case_b, _, config_b = journey(seed=21, lossy=True)
        records_b = [
            (t, payload, "FB" if i % 3 == 0 else b_id, m_id, info)
            for i, (t, payload, b_id, m_id, info) in enumerate(case_b.records)
        ]
        stream = StreamConfig(window_seconds=1.0, grace_seconds=5.0,
                              checkpoint_every=5)

        def serve(run_dir, max_frames=None):
            service = StreamIngestService(run_dir, stream)
            service.add_vehicle(
                "a", ReplaySource(case_a.records), config_a, ctx
            )
            service.add_vehicle("b", ReplaySource(records_b), config_b, ctx)
            result = asyncio.run(service.serve(max_frames=max_frames))
            return service, result

        def final_rows(service):
            return {
                vehicle_id: final.r_out.collect()
                for vehicle_id, final in service.finalize_all().items()
            }

        baseline = final_rows(serve(tmp_path / "whole")[0])
        assert all(baseline.values())
        total = len(case_a.records) + len(records_b)
        for kill_at in range(total + 1):
            run_dir = tmp_path / "run-{}".format(kill_at)
            _service, result = serve(run_dir, max_frames=kill_at)
            assert result.killed == (kill_at < total)
            assert result.frames_delivered == kill_at
            resumed, result = serve(run_dir)
            assert not result.killed
            assert final_rows(resumed) == baseline, \
                "diverged at kill point {}".format(kill_at)

    def test_finalize_of_killed_service_is_refused(self, tmp_path):
        case, ctx, config = journey()
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ReplaySource(case.records), config, ctx)
        assert asyncio.run(service.serve(max_frames=3)).killed
        with pytest.raises(StreamError):
            service.finalize_all()


class TestCheckpointer:
    def test_manifest_roundtrip(self, tmp_path):
        checkpointer = StreamCheckpointer(tmp_path)
        checkpointer.write_manifest({"dataset": "SYN", "vehicles": {}})
        manifest = checkpointer.read_manifest()
        assert manifest["dataset"] == "SYN"

    def test_missing_manifest_is_a_stream_error(self, tmp_path):
        with pytest.raises(StreamError):
            StreamCheckpointer(tmp_path / "nope").read_manifest()

    def test_corrupt_manifest_is_a_stream_error(self, tmp_path):
        (tmp_path / "stream.json").write_text("{not json")
        with pytest.raises(StreamError):
            StreamCheckpointer(tmp_path).read_manifest()

    def test_wrong_format_tag_is_a_stream_error(self, tmp_path):
        (tmp_path / "stream.json").write_text('{"format": "other/9"}')
        with pytest.raises(StreamError):
            StreamCheckpointer(tmp_path).read_manifest()

    def test_session_ids_and_mtime_after_serve(self, tmp_path):
        case, ctx, config = journey()
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ReplaySource(case.records), config, ctx)
        asyncio.run(service.serve())
        checkpointer = StreamCheckpointer(tmp_path)
        assert checkpointer.session_ids() == ["v"]
        assert checkpointer.checkpoint_mtime("v") is not None
        assert checkpointer.checkpoint_mtime("ghost") is None
        payload = checkpointer.session_payload("v")
        assert payload["drained"] is True
        assert payload["frames_ingested"] == len(case.records)

    def test_foreign_checkpoint_payload_is_rejected(self, tmp_path):
        from repro.stream import session_job_id

        checkpointer = StreamCheckpointer(tmp_path)
        checkpointer.store.save(session_job_id("v"), {"format": "other"})
        _case, ctx, config = journey()
        with pytest.raises(StreamError):
            checkpointer.load_session("v", config, ctx)
