"""VehicleSession: streaming ingest equals batch windowing, and state
snapshots restore it exactly."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.incremental import (
    IncrementalRunner,
    _SignalState,
    split_into_windows,
)
from repro.core.params import config_from_dict
from repro.engine import EngineContext
from repro.engine.columnar import ValueColumn
from repro.obs import MetricsRegistry
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.sentinels import TRUNCATED
from repro.stream import StreamError, VehicleSession
from repro.stream.checkpoint import session_record
from repro.stream.receivers import Frames, pack_records
from repro.testing.generator import generate_journey_case


def journey(seed=7, lossy=False):
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


def frames_of(pairs):
    """``(channel, frame tuple)`` pairs as the :class:`Frames` a session
    ingests."""
    channels = tuple(dict.fromkeys(channel for channel, _frame in pairs))
    codes = [channels.index(channel) for channel, _frame in pairs]
    return Frames(channels, np.array(codes, np.intp),
                  pack_records([frame for _channel, frame in pairs]))


def one(t, channel):
    """One frame of *channel* at *t*, as :class:`Frames`."""
    return frames_of([(channel, (t, b"\x00", channel, 999, ()))])


def ingest_all(session, records):
    for record in records:
        session.ingest(frames_of([(record[2], record)]))


class TestStreamingEqualsBatch:
    @pytest.mark.parametrize("seed,lossy", [(7, False), (11, True)])
    def test_finalize_matches_split_into_windows(self, seed, lossy):
        case, ctx, config = journey(seed, lossy)
        session = VehicleSession("v", config, ctx, 1.0, grace_seconds=5.0)
        ingest_all(session, case.records)
        streamed = sorted_rows(session.finalize().r_out)
        assert streamed == batch_rows(ctx, config, case.records, 1.0)

    def test_metrics_are_recorded(self):
        case, ctx, config = journey()
        metrics = MetricsRegistry()
        session = VehicleSession("v", config, ctx, 1.0, grace_seconds=5.0,
                                 metrics=metrics)
        ingest_all(session, case.records)
        session.drain()
        counters = metrics.counters()
        assert counters["stream.frames_received"] == len(case.records)
        channel = case.records[0][2]
        assert counters[
            "stream.frames_received.{}".format(channel)
        ] == len(case.records)
        assert counters["stream.windows_sealed"] == session.windows_sealed


class TestWindowsPerCall:
    def test_an_aggregating_marker_keeps_one_call_per_window(
        self, monkeypatch
    ):
        """``OutsideQuantileRange`` decides over the rows one call hands
        it: a session with it processes its windows one per call, as the
        batch windowing does, however long it goes without settling."""
        from dataclasses import replace

        from repro.core.reduction import (
            Constraint,
            ConstraintSet,
            OutsideQuantileRange,
        )

        case, ctx, config = journey(seed=11)
        config = replace(config, constraints=ConstraintSet(tuple(
            Constraint(c.signal_id, c.enabled,
                       c.functions + (OutsideQuantileRange(0.1, 0.9),))
            for c in config.constraints
        )))
        calls = []
        process_window = IncrementalRunner.process_window

        def counting(runner, table):
            calls.append(table.count())
            return process_window(runner, table)

        monkeypatch.setattr(IncrementalRunner, "process_window", counting)
        session = VehicleSession("v", config, ctx, 1.0, grace_seconds=0.5)
        for start in range(0, len(case.records), 7):
            session.ingest(frames_of([
                (record[2], record)
                for record in case.records[start:start + 7]
            ]))
        streamed = sorted_rows(session.finalize().r_out)
        assert len(calls) == session.windows_sealed > 1
        assert streamed == batch_rows(ctx, config, case.records, 1.0)


class TestCursors:
    def test_cursor_counts_delivered_frames_per_channel(self):
        case, ctx, config = journey()
        session = VehicleSession("v", config, ctx, 1.0)
        channel = case.records[0][2]
        ingest_all(session, case.records[:5])
        assert session.cursor(channel) == 5
        assert session.cursor("other") == 0

    def test_late_drops_still_advance_the_cursor(self):
        """The cursor tracks transport delivery, not window acceptance:
        a resumed receiver must never re-deliver an adjudicated frame."""
        _case, ctx, config = journey()
        session = VehicleSession("v", config, ctx, 1.0)
        session.ingest(one(0.0, "FC"))
        session.ingest(one(2.5, "FC"))  # seals w0
        session.ingest(one(0.1, "FC"))  # late drop
        assert session.late_dropped == 1
        assert session.cursor("FC") == 3


class TestChunks:
    def test_a_chunk_advances_cursors_and_counters_per_channel(self):
        _case, ctx, config = journey()
        metrics = MetricsRegistry()
        session = VehicleSession("v", config, ctx, 1.0, metrics=metrics)
        sealed = session.ingest(frames_of([
            ("FC", (0.0, b"\x00", "FC", 999, ())),
            ("FB", (0.2, b"\x00", "FB", 999, ())),
            ("FC", (2.5, b"\x00", "FC", 999, ())),  # seals w0
            ("FC", (0.1, b"\x00", "FC", 999, ())),  # late drop
        ]))
        assert sealed == 1
        assert session.channel_cursors == {"FC": 3, "FB": 1}
        assert (session.frames_ingested, session.late_dropped) == (4, 1)
        counters = metrics.counters()
        assert counters["stream.frames_received"] == 4
        assert counters["stream.frames_received.FC"] == 3
        assert counters["stream.frames_received.FB"] == 1
        assert counters["stream.late_dropped"] == 1

    @pytest.mark.parametrize("size", [2, 7, 64])
    def test_chunked_ingest_equals_frame_by_frame(self, size):
        case, ctx, config = journey(seed=11, lossy=True)
        single = VehicleSession("v", config, ctx, 1.0, grace_seconds=0.5)
        ingest_all(single, case.records)
        chunked = VehicleSession("v", config, ctx, 1.0, grace_seconds=0.5)
        for start in range(0, len(case.records), size):
            chunked.ingest(frames_of([
                (record[2], record)
                for record in case.records[start:start + size]
            ]))
        assert session_record(chunked.export_state(), {}) == \
            session_record(single.export_state(), {})
        assert sorted_rows(chunked.finalize().r_out) == \
            sorted_rows(single.finalize().r_out)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_timestamp_names_vehicle_channel_and_ordinal(
        self, t
    ):
        _case, ctx, config = journey()
        session = VehicleSession("veh7", config, ctx, 1.0)
        session.ingest(one(0.0, "FB"))
        with pytest.raises(StreamError) as info:
            session.ingest(frames_of([
                ("FB", (0.1, b"\x00", "FB", 999, ())),
                ("FC", (0.2, b"\x00", "FC", 999, ())),
                ("FB", (t, b"\x00", "FB", 999, ())),
            ]))
        # The third frame of channel FB: ordinal 2, counted from 0 as
        # the cursors count.
        assert str(info.value) == (
            "vehicle 'veh7', channel 'FB', frame 2: timestamp {!r} is not "
            "a finite offset from the stream origin".format(t)
        )


class TestDrain:
    def test_ingest_after_drain_is_an_error(self):
        _case, ctx, config = journey()
        session = VehicleSession("v", config, ctx, 1.0)
        session.ingest(one(0.0, "FC"))
        session.drain()
        with pytest.raises(StreamError):
            session.ingest(one(5.0, "FC"))

    def test_drain_is_idempotent(self):
        _case, ctx, config = journey()
        session = VehicleSession("v", config, ctx, 1.0)
        session.ingest(one(0.0, "FC"))
        assert session.drain() == 1
        assert session.drain() == 0


class TestState:
    def test_roundtrip_mid_stream_is_exact(self):
        case, ctx, config = journey(seed=13, lossy=True)
        half = len(case.records) // 2
        session = VehicleSession("v", config, ctx, 1.0, grace_seconds=5.0)
        ingest_all(session, case.records[:half])
        restored = VehicleSession.from_state(
            session.export_state(), config, ctx
        )
        assert restored.channel_cursors == session.channel_cursors
        ingest_all(session, case.records[half:])
        ingest_all(restored, case.records[half:])
        assert sorted_rows(session.finalize().r_out) == \
            sorted_rows(restored.finalize().r_out)

    def test_checkpoint_right_after_sealing_restores_exactly(self, tmp_path):
        """A commit made right after an ingest that sealed windows -- none
        of them processed yet -- holds them: the restored session
        finalizes to the uninterrupted session's rows and state bytes."""
        from repro.stream import StreamCheckpointer

        case, ctx, config = journey(seed=11, lossy=True)
        chunks = [case.records[i:i + 7]
                  for i in range(0, len(case.records), 7)]
        whole = VehicleSession("v", config, ctx, 1.0, grace_seconds=0.5)
        sealed = cut = 0
        while sealed < 2:  # two windows, the second sealed by this chunk
            sealed += whole.ingest(frames_of(
                [(record[2], record) for record in chunks[cut]]
            ))
            cut += 1
        checkpointer = StreamCheckpointer(tmp_path)
        checkpointer.save_session(whole)
        restored = StreamCheckpointer(tmp_path).load_session("v", config, ctx)
        assert session_record(restored.export_state(), {}) == \
            session_record(whole.export_state(), {})
        for chunk in chunks[cut:]:
            for session in (whole, restored):
                session.ingest(frames_of(
                    [(record[2], record) for record in chunk]
                ))
        assert session_record(restored.export_state(), {}) == \
            session_record(whole.export_state(), {})
        assert restored.finalize().r_out.collect() == \
            whole.finalize().r_out.collect()

    def test_rejects_foreign_payloads(self):
        _case, ctx, config = journey()
        with pytest.raises(StreamError):
            VehicleSession.from_state({"format": "nope"}, config, ctx)


def planes(session):
    """Per key, the chunks of a session's reduced state as comparable
    cells: each chunk's ``t`` dtype and bits and each value's type and
    ``repr``."""
    return {
        key: [(t.dtype.str, t.tobytes() if t.dtype != object else t.tolist(),
               [(type(cell), repr(cell)) for cell in v.tolist()])
              for t, v in state.reduced_rows.chunks]
        for key, state in session.runner._states.items()
    }


class TestTypedState:
    """The reduced state is typed planes (``t`` float64, ``v`` a
    ValueColumn) in a live session and in one resumed from its log."""

    VALUES = {
        "float": [1.5, -0.0, float("nan"), 2.0],
        "int": [3, -(2 ** 53), 7, 0],
        "big": [2 ** 53 + 1, 5, -(2 ** 62), 2 ** 63 - 1],
        "bool": [True, False, True, True],
        "str": ["low", "high", "low", "mid"],
        "truncated": [TRUNCATED, TRUNCATED, TRUNCATED, TRUNCATED],
        "mixed": [1.0, "on", TRUNCATED, 4],
    }

    def test_a_resumed_session_holds_the_chunks_it_committed(self, tmp_path):
        from repro.stream import StreamCheckpointer

        _case, ctx, config = journey()
        session = VehicleSession("v", config, ctx, 1.0)
        checkpointer = StreamCheckpointer(tmp_path)
        for half in (slice(0, 2), slice(2, 4)):
            for s_id, values in self.VALUES.items():
                state = session.runner._states.setdefault(
                    (s_id, "FC"), _SignalState()
                )
                state.reduced_rows.chunks.append((
                    np.arange(4.0)[half] + 10.0 * half.start,
                    ValueColumn.from_values(values[half]),
                ))
            checkpointer.save_session(session)
        resumed = StreamCheckpointer(tmp_path).load_session("v", config, ctx)
        assert planes(resumed) == planes(session)
        assert all(isinstance(v, ValueColumn) and t.dtype == np.float64
                   for state in resumed.runner._states.values()
                   for t, v in state.reduced_rows.chunks)

    def test_a_killed_and_resumed_journey_holds_the_uninterrupted_state(
        self, tmp_path
    ):
        from repro.stream import StreamCheckpointer

        case, ctx, config = journey(seed=11, lossy=True)
        frames = frames_of([(record[2], record) for record in case.records])
        sessions = {}
        for name, cut in (("whole", len(frames)),
                          ("killed", len(frames) // 2)):
            checkpointer = StreamCheckpointer(tmp_path / name)
            session = VehicleSession("v", config, ctx, 1.0, grace_seconds=0.5)
            for start in range(0, cut, 40):
                session.ingest(frames[start:min(cut, start + 40)])
                checkpointer.save_session(session)
            if name == "killed":
                session = StreamCheckpointer(tmp_path / name).load_session(
                    "v", config, ctx
                )
                for start in range(session.frames_ingested, len(frames), 40):
                    session.ingest(frames[start:start + 40])
                    checkpointer.save_session(session)
            session.drain()
            sessions[name] = session
        # Chunks follow the commits, which differ after the resume: the
        # joined planes of each key are what must be equal.
        joined = {
            name: {key: (b"".join(chunk[1] for chunk in chunks),
                         [cell for chunk in chunks for cell in chunk[2]])
                   for key, chunks in planes(session).items()}
            for name, session in sessions.items()
        }
        assert joined["killed"] == joined["whole"]
        assert sorted_rows(sessions["killed"].finalize().r_out) == \
            sorted_rows(sessions["whole"].finalize().r_out)
