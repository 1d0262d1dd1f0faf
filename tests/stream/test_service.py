"""StreamIngestService: end-to-end serve, kill-and-resume identity,
checkpoint plumbing and the stream.* counter contract."""

from __future__ import annotations

import asyncio
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalRunner, split_into_windows
from repro.core.params import config_from_dict
from repro.engine import EngineContext
from repro.obs import MetricsRegistry
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.stream import (
    FrameSource,
    ReplaySource,
    StreamCheckpointer,
    StreamConfig,
    StreamError,
    StreamIngestService,
    VehicleSession,
)
from repro.stream.receivers import merge, pack_records
from repro.testing.generator import generate_journey_case
from tests.stream.logs import frame, head_body, record_spans, rewrite_heads


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

    def test_the_budget_is_granted_to_vehicles_in_id_order(self, tmp_path):
        """A kill's budget goes to the vehicles one after another in
        ``str(vehicle_id)`` order, whatever order they were added in:
        "a" takes all it can before "b" gets a frame."""
        case_a, ctx, config_a = journey(seed=5)
        case_b, _, config_b = journey(seed=6)
        total_a = len(case_a.records)
        for kill_at in (0, total_a // 2, total_a, total_a + 3):
            service = StreamIngestService(
                tmp_path / "run-{}".format(kill_at), STREAM
            )
            service.add_vehicle("b", ReplaySource(case_b.records),
                                config_b, ctx)
            service.add_vehicle("a", ReplaySource(case_a.records),
                                config_a, ctx)
            result = asyncio.run(service.serve(max_frames=kill_at))
            assert result.killed and result.frames_delivered == kill_at
            assert {v: s["frames_ingested"]
                    for v, s in result.sessions.items()} == {
                "a": min(kill_at, total_a), "b": max(kill_at - total_a, 0),
            }
            assert result.sessions["a"]["drained"] == (kill_at >= total_a)

    @pytest.mark.parametrize("limit", range(0, 9))
    def test_a_kill_lands_on_the_exact_frame_inside_a_slice(
        self, tmp_path, limit
    ):
        """Slices end at every third frame; a kill between two of those
        still stops the session on the frame the budget ends at."""
        case, ctx, config = journey()
        records = case.records[:8]
        service = StreamIngestService(tmp_path, StreamConfig(
            window_seconds=1.0, grace_seconds=5.0, checkpoint_every=3,
        ))
        session = service.add_vehicle("v", ReplaySource(records), config,
                                      ctx)
        result = asyncio.run(service.serve(max_frames=limit))
        assert result.killed == (limit < 8)
        assert result.frames_delivered == session.frames_ingested == \
            min(limit, 8)
        assert sum(session.channel_cursors.values()) == min(limit, 8)

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
            StreamConfig(checkpoint_every=-1)


@pytest.mark.parametrize("field, value, valid", [
    ("window_seconds", float("nan"), False),
    ("window_seconds", float("inf"), True),
    ("grace_seconds", float("nan"), False),
    ("grace_seconds", float("inf"), True),
])
def test_config_rejects_nan_and_keeps_inf(field, value, valid):
    """NaN fails every comparison, so it gets the message of a
    non-positive window or a negative grace; ``inf`` is one window, or
    sealing only at drain."""
    if valid:
        assert getattr(StreamConfig(**{field: value}), field) == value
    else:
        with pytest.raises(StreamError, match="window_seconds must be "
                           "positive|grace_seconds must not be negative"):
            StreamConfig(**{field: value})


def logs(run_dir):
    """{file name: bytes} of the session logs of a run directory."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(run_dir, "checkpoints").glob("*.log"))
    }


class ArrivalOrderSource(FrameSource):
    """Serves each channel's frames as recorded, not time-sorted: the
    way out-of-order and late frames reach a session."""

    def __init__(self, records):
        self._channels = sorted({record[2] for record in records})
        self._codes = np.array(
            [self._channels.index(record[2]) for record in records], np.intp
        )
        self._block = pack_records(records)

    def channels(self):
        return list(self._channels)

    def recording(self):
        return self._block, self._codes


def frame_by_frame(service, sources, checkpoint_every):
    """The oracle of the sliced service: every vehicle's merged frames
    go to its session one ``ingest`` call per frame, each commit is
    made at a multiple of *checkpoint_every* (every frame is settled
    when it is 0), and an exhausted vehicle is drained and committed."""
    for vehicle_id, session in sorted(service.sessions.items()):
        frames = merge(sources[vehicle_id], session.cursor)
        for position in range(len(frames)):
            session.ingest(frames[position : position + 1])
            if checkpoint_every and \
                    session.frames_ingested % checkpoint_every:
                continue
            session.settle()
            if checkpoint_every:
                service.checkpointer.save_session(session, service.metrics)
        session.drain()
        service.checkpointer.save_session(session, service.metrics)


class TestChunkedServiceEqualsFrameByFrame:
    CASE, CTX, CONFIG = journey(seed=5)

    def observe(self, run_dir, recordings, stream_config, sliced):
        """One clean run, by the service when *sliced*, else by
        :func:`frame_by_frame`; everything a slice could move."""
        sealed = {vehicle_id: [] for vehicle_id in recordings}
        service = StreamIngestService(run_dir, stream_config)

        def recording(vehicle_id, seal):
            """*seal* (the assembler's ``add_chunk`` or ``flush``),
            recording the windows it returns: where windows seal."""

            def sealing(*args):
                windows = seal(*args)
                sealed[vehicle_id].extend(
                    (index, block.to_rows()) for index, block in windows
                )
                return windows

            return sealing

        sources = {}
        for vehicle_id, records in recordings.items():
            sources[vehicle_id] = ArrivalOrderSource(records)
            assembler = service.add_vehicle(
                vehicle_id, sources[vehicle_id], self.CONFIG, self.CTX,
            ).assembler
            assembler.add_chunk = recording(vehicle_id, assembler.add_chunk)
            assembler.flush = recording(vehicle_id, assembler.flush)
        if sliced:
            assert not asyncio.run(service.serve()).killed
        else:
            frame_by_frame(service, sources, stream_config.checkpoint_every)
        sessions = service.sessions.items()
        return {
            # Per vehicle: how vehicles interleave is the loop's business.
            "sealed": sealed,
            "logs": logs(run_dir),
            "late": {v: s.late_dropped for v, s in sessions},
            "cursors": {v: dict(s.channel_cursors) for v, s in sessions},
            "final": {
                v: final.r_out.collect()
                for v, final in service.finalize_all().items()
            },
        }

    @given(
        arrivals=st.lists(
            st.tuples(
                st.integers(0, len(CASE.records) - 1),  # whose payload
                # quarter seconds: ties, steps backwards, late frames
                st.sampled_from([k / 4 for k in range(0, 24)]),
                st.sampled_from(["FC", "FC", "FC", "FB"]),
            ),
            min_size=1, max_size=50,
        ),
        checkpoint_every=st.sampled_from([0, 1, 3, 7, 10, 64]),
        grace=st.sampled_from([0.0, 0.5, 1.5]),
    )
    @example(  # a window sealed mid-slice, then a late frame for it
        arrivals=[(0, 0.0, "FC"), (1, 0.25, "FB"), (2, 3.0, "FC"),
                  (3, 0.5, "FC"), (4, 3.0, "FB"), (5, 5.0, "FC")],
        checkpoint_every=3, grace=0.0,
    )
    @settings(max_examples=30, deadline=None)
    def test_the_sliced_service_is_the_frame_by_frame_run(
        self, arrivals, checkpoint_every, grace
    ):
        """Multi-channel recordings with tied timestamps, steps
        backwards and late frames, any cadence: the sealed windows
        (index, frames, order), late drops, cursors, the snapshot at
        every commit and the finalized rows are those of the
        frame-by-frame run, and the session logs are its bytes."""
        records = [
            (t, self.CASE.records[i][1], channel) + self.CASE.records[i][3:]
            for i, t, channel in arrivals
        ]
        recordings = {"a": records, "b": records[::-1]}
        runs = []
        for sliced in (False, True):
            with tempfile.TemporaryDirectory() as run_dir:
                runs.append(self.observe(run_dir, recordings, StreamConfig(
                    window_seconds=1.0, grace_seconds=grace,
                    checkpoint_every=checkpoint_every,
                ), sliced))
        oracle, sliced = runs
        assert sliced == oracle


class TestNonFiniteTimestamp:
    def test_serve_raises_a_stream_error_naming_the_frame(self, tmp_path):
        case, ctx, config = journey()
        records = list(case.records[:10])
        records[6] = (float("nan"),) + records[6][1:]
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ArrivalOrderSource(records), config, ctx)
        with pytest.raises(StreamError) as info:
            asyncio.run(service.serve())
        assert str(info.value).startswith(
            "vehicle 'v', channel 'FC', frame 6: timestamp nan"
        )


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
        whole = logs(tmp_path / "whole")
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
            assert logs(run_dir) == whole, \
                "log differs at kill point {}".format(kill_at)

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
        checkpointer = StreamCheckpointer(tmp_path)
        body = head_body({"format": "other"}, b"\0" * 8)
        checkpointer.log_path("v").write_bytes(frame(body) * 2)
        _case, ctx, config = journey()
        with pytest.raises(StreamError, match="not a repro.stream-log/1"):
            checkpointer.load_session("v", config, ctx)


class TestLogAsOutsideInput:
    """A session log read back is outside input: a record the kill cut
    short is dropped and rewritten, and any other damage is one
    :class:`StreamError`, never another exception."""

    CASE, CTX, CONFIG = journey(seed=9, lossy=True)
    RECORDS = CASE.records[:40]
    STREAM = StreamConfig(window_seconds=1.0, grace_seconds=0.0,
                          checkpoint_every=13)

    def serve(self, run_dir):
        service = StreamIngestService(run_dir, self.STREAM)
        service.add_vehicle("v", ReplaySource(self.RECORDS), self.CONFIG,
                            self.CTX)
        assert not asyncio.run(service.serve()).killed
        return service

    @pytest.fixture(scope="class")
    def whole(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("whole")
        rows = self.serve(run_dir).finalize_all()["v"].r_out.collect()
        (log,) = logs(run_dir).values()
        return rows, log

    def load(self, run_dir):
        return StreamCheckpointer(run_dir).load_session(
            "v", self.CONFIG, self.CTX
        )

    def test_every_cut_of_the_last_record_resumes_from_the_one_before(
        self, tmp_path, whole
    ):
        from repro.stream.checkpoint import session_record

        rows, log = whole
        start, end = record_spans(log)[-1]
        path = tmp_path / "checkpoints" / "stream-session-v.log"
        path.parent.mkdir()
        path.write_bytes(log[:start])
        before = session_record(self.load(tmp_path).export_state(), {})
        for cut in range(start, end):
            path.write_bytes(log[:cut])
            session = self.load(tmp_path)
            assert session_record(session.export_state(), {}) == before, cut
        # What a resume then does depends on the state loaded and on
        # where the log is cut off, both checked above for every cut.
        for cut in sorted({start, start + 1, start + 12, (start + end) // 2,
                           end - 1}):
            run_dir = tmp_path / "cut-{}".format(cut)
            (run_dir / "checkpoints").mkdir(parents=True)
            (run_dir / "checkpoints" / path.name).write_bytes(log[:cut])
            service = self.serve(run_dir)
            assert service.finalize_all()["v"].r_out.collect() == rows, cut
            assert logs(run_dir) == {path.name: log}, cut

    def test_damage_to_an_earlier_record_is_one_stream_error(
        self, tmp_path, whole
    ):
        _rows, log = whole
        spans = record_spans(log)
        path = tmp_path / "checkpoints" / "stream-session-v.log"
        path.parent.mkdir()
        checkpointer = StreamCheckpointer(tmp_path)
        # A resume and ``stream status`` take turns: both read the log
        # through the same check.
        reads = (self.load, lambda _dir: checkpointer.session_payload("v"))
        for offset in range(spans[-1][0]):
            for turn, damaged in enumerate((
                log[:offset] + log[offset + 1:],
                log[:offset] + bytes([log[offset] ^ 0x5A]) + log[offset + 1:],
            )):
                path.write_bytes(damaged)
                with pytest.raises(StreamError, match="cannot be read"):
                    reads[(offset + turn) % 2](tmp_path)

    def test_a_resumed_session_is_the_vehicle_its_log_names(self, tmp_path):
        """A log whose records name another vehicle is refused naming
        both ids; it never becomes that vehicle's session."""
        service = StreamIngestService(tmp_path, self.STREAM)
        service.add_vehicle("v0", ReplaySource(self.RECORDS), self.CONFIG,
                            self.CTX)
        assert asyncio.run(service.serve(max_frames=30)).killed
        path = StreamCheckpointer(tmp_path).log_path("v0")
        rewrite_heads(path, lambda head: head.update(vehicle_id="v9"))
        service = StreamIngestService(tmp_path, self.STREAM)
        with pytest.raises(StreamError) as info:
            service.add_vehicle("v0", ReplaySource(self.RECORDS),
                                self.CONFIG, self.CTX)
        assert "'v9'" in str(info.value) and "'v0'" in str(info.value)
        assert StreamCheckpointer(tmp_path).session_ids() == ["v0"]


class TestResumeUnderAnotherWindow:
    @pytest.mark.parametrize("window, grace", [(2.0, 0.0), (1.0, 0.0),
                                               (2.0, 5.0)])
    def test_a_log_made_under_another_window_is_refused(
        self, tmp_path, window, grace
    ):
        """Resuming replays windows the log's state was cut for: a log
        made at 1.0 s / 5.0 s is not resumed under another window or
        grace, and the refusal names the vehicle and both settings."""
        case, ctx, config = journey()
        service = StreamIngestService(tmp_path, STREAM)
        service.add_vehicle("v", ReplaySource(case.records), config, ctx)
        assert asyncio.run(service.serve(max_frames=40)).killed
        other = StreamIngestService(tmp_path, StreamConfig(
            window_seconds=window, grace_seconds=grace, checkpoint_every=13,
        ))
        with pytest.raises(StreamError) as info:
            other.add_vehicle("v", ReplaySource(case.records), config, ctx)
        assert str(info.value) == (
            "vehicle 'v': its log was made with window_seconds=1.0, "
            "grace_seconds=5.0, not the window_seconds={}, "
            "grace_seconds={} of this service".format(window, grace)
        )
        assert other.sessions == {}
        resumed = StreamIngestService(tmp_path, STREAM)
        resumed.add_vehicle("v", ReplaySource(case.records), config, ctx)
        assert resumed.resumed["v"] == 39


def syn_service(run_dir, duration, vehicle_id="v", checkpoint_every=500):
    """A SYN ``.btrc`` recording of *duration* seconds, served through a
    service with ``perf``'s stream parameters."""
    from repro.core import PipelineConfig
    from repro.datasets import SPECS, build_dataset
    from repro.tracefile import binlog

    bundle = build_dataset(SPECS["SYN"])
    path = Path(run_dir) / "{}.btrc".format(vehicle_id)
    binlog.dump_records(bundle.byte_records(duration), path)
    service = StreamIngestService(run_dir, StreamConfig(
        window_seconds=1.0, grace_seconds=0.5,
        checkpoint_every=checkpoint_every,
    ))
    config = PipelineConfig(catalog=bundle.catalog(),
                            constraints=bundle.default_constraints())
    service.add_vehicle(vehicle_id, ReplaySource(binlog.load_records(path)),
                        config, EngineContext.serial())
    return service


class TestCostDoesNotGrowWithTheStream:
    def test_the_last_commit_writes_what_changed_not_the_stream(
        self, tmp_path
    ):
        """The drain commit of a 24 s vehicle and of a 6 s one hold one
        tail of elements each: their sizes do not scale with duration."""
        sizes = []
        for duration in (6.0, 24.0):
            run_dir = tmp_path / str(duration)
            run_dir.mkdir()
            service = syn_service(run_dir, duration)
            assert not asyncio.run(service.serve()).killed
            (log,) = logs(run_dir).values()
            start, end = record_spans(log)[-1]
            sizes.append(end - start)
        assert sizes[1] <= 1.5 * sizes[0], sizes

    def test_no_m_info_cell_is_decoded(self, tmp_path, monkeypatch):
        """SYN's catalog has no ``required_info`` rule: from the
        ``.btrc`` file to ``R_out`` and the log, no ``m_info`` cell is
        decoded."""
        from repro.tracefile import binlog

        calls = []

        def counting(function):
            def count(*args):
                calls.append(function.__name__)
                return function(*args)
            return count

        for name in ("_unpack_cell", "unpack_info"):
            monkeypatch.setattr(binlog, name, counting(getattr(binlog, name)))
        service = syn_service(tmp_path, 6.0)
        assert not asyncio.run(service.serve()).killed
        assert service.finalize_all()["v"].r_out.collect()
        assert calls == []


class TestOneCallPerCommitInterval:
    """Sealed windows wait for the next commit and go to the runner
    together: lines 3-11 run once per commit interval, not per window."""

    def test_one_process_window_call_per_commit(self, tmp_path, monkeypatch):
        events = []

        def recording(event, function):
            def record(*args, **kwargs):
                events.append(event)
                return function(*args, **kwargs)
            return record

        monkeypatch.setattr(IncrementalRunner, "process_window", recording(
            "w", IncrementalRunner.process_window))
        monkeypatch.setattr(StreamCheckpointer, "save_session", recording(
            "c", StreamCheckpointer.save_session))
        service = syn_service(tmp_path, 12.0)
        result = asyncio.run(service.serve())
        assert not result.killed
        # 2,311 frames: commits at 500, 1,000, 1,500 and 2,000 frames,
        # each after the call that processed its interval's windows, and
        # the drain commit after at most one more.
        *periodic, drain, after = "".join(events).split("c")
        assert (periodic, after) == (["w"] * 4, "")
        assert drain in ("", "w")
        assert result.sessions["v"]["windows_sealed"] == 12
        assert service.metrics.counters()["stream.windows_sealed"] == 12

    def test_without_periodic_commits_a_vehicle_is_one_settled_slice(
        self, tmp_path
    ):
        """``checkpoint_every=0``: a vehicle's frames go in as one
        slice, whose sealed windows are processed right after it and
        before the drain; the output is the committing service's."""
        for name in ("every", "committing"):
            (tmp_path / name).mkdir()
        service = syn_service(tmp_path / "every", 6.0, checkpoint_every=0)
        session = service.sessions["v"]
        events = []

        def recording(event, function):
            def record(*args):
                events.append((event, function(*args)))
                return events[-1][1]
            return record

        session.ingest = recording("ingest", session.ingest)
        session.settle = recording("settle", session.settle)
        assert not asyncio.run(service.serve()).killed
        # Then the drain's settle and the drain commit's, which finds
        # nothing left.
        [(ingest, sealed), (settle, settled), *drain] = events
        assert (ingest, settle) == ("ingest", "settle")
        assert sealed == settled > 1
        assert [event for event, _count in drain] == ["settle"] * 2
        assert drain[-1][1] == 0
        assert session.settle() == 0
        committing = syn_service(tmp_path / "committing", 6.0)
        assert not asyncio.run(committing.serve()).killed
        assert service.finalize_all()["v"].r_out.collect() == \
            committing.finalize_all()["v"].r_out.collect()
