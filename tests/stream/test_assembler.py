"""WindowAssembler: online window membership, sealing, late drops."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import split_into_windows
from repro.stream import StreamError, WindowAssembler
from repro.stream.assembler import ASSEMBLER_STATE_FORMAT


def frame(t):
    return (t, b"\x00", "FC", 1, ())


class TestWindowIndex:
    def test_origin_anchored_at_first_frame(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(10.0))
        assert asm.window_index(10.0) == 0
        assert asm.window_index(10.999) == 0
        assert asm.window_index(11.0) == 1
        assert asm.window_index(25.5) == 15

    def test_negative_indices_for_pre_origin_frames(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(10.0))
        assert asm.window_index(9.5) == -1
        assert asm.window_index(7.0) == -3

    def test_no_origin_before_first_frame(self):
        asm = WindowAssembler(1.0)
        with pytest.raises(StreamError):
            asm.window_index(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(StreamError):
            WindowAssembler(0.0)
        with pytest.raises(StreamError):
            WindowAssembler(1.0, grace_seconds=-0.1)


def assembled_windows(frames, window_seconds):
    """The windows an assembler that never seals early ends up with."""
    asm = WindowAssembler(window_seconds, grace_seconds=float("inf"))
    for f in frames:
        assert asm.add(f) == []
    return [window for _index, window in asm.flush()]


class TestBatchWindowsAreAssemblerWindows:
    def test_tenths_of_a_second(self):
        """An accumulated ``boundary += W`` and ``floor((t - origin) /
        W)`` round differently: the batch helper used to cut ten windows
        here, the assembler eight (0.3 / 0.1 is 2.9999999999999996)."""
        frames = [frame(k / 10) for k in range(10)]
        windows = split_into_windows(frames, 0.1)
        assert windows == assembled_windows(frames, 0.1)
        assert [[f[0] for f in w] for w in windows] == [
            [0.0], [0.1], [0.2, 0.3], [0.4], [0.5, 0.6], [0.7], [0.8], [0.9],
        ]

    @given(
        times=st.lists(
            st.one_of(
                st.integers(0, 60).map(lambda k: k / 10),
                st.floats(min_value=0.0, max_value=50.0),
            ),
            max_size=40,
        ),
        window_seconds=st.sampled_from([0.1, 0.25, 0.3, 1.0, 7.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_membership_for_any_time_ordered_arrival(
        self, times, window_seconds
    ):
        # Distinct m_ids so equal timestamps stay told apart.
        frames = [
            (t, b"\x00", "FC", m_id, ())
            for m_id, t in enumerate(sorted(times))
        ]
        assert split_into_windows(frames, window_seconds) == \
            assembled_windows(frames, window_seconds)


class TestSealing:
    def test_window_seals_when_watermark_passes_end(self):
        asm = WindowAssembler(1.0)
        assert asm.add(frame(0.0)) == []
        assert asm.add(frame(0.9)) == []
        sealed = asm.add(frame(1.0))
        assert [(i, [f[0] for f in fs]) for i, fs in sealed] == \
            [(0, [0.0, 0.9])]

    def test_grace_period_delays_sealing(self):
        asm = WindowAssembler(1.0, grace_seconds=0.5)
        asm.add(frame(0.0))
        assert asm.add(frame(1.2)) == []  # within grace of window 0
        sealed = asm.add(frame(1.5))  # watermark reaches end + grace
        assert [i for i, _ in sealed] == [0]

    def test_one_arrival_can_seal_several_windows_in_order(self):
        asm = WindowAssembler(1.0, grace_seconds=1.0)
        asm.add(frame(0.0))
        assert asm.add(frame(1.2)) == []  # grace holds window 0 open
        assert [i for i, _ in asm.add(frame(2.1))] == [0]
        sealed = asm.add(frame(4.5))  # watermark clears windows 1 and 2
        assert [i for i, _ in sealed] == [1, 2]

    def test_out_of_order_within_grace_is_assigned(self):
        asm = WindowAssembler(1.0, grace_seconds=1.0)
        asm.add(frame(0.0))
        asm.add(frame(1.4))
        assert asm.add(frame(0.5)) == []  # window 0 not sealed yet
        sealed = asm.flush()
        assert [f[0] for f in dict(sealed)[0]] == [0.0, 0.5]


class TestLateDrops:
    def test_frame_below_floor_is_dropped_and_counted(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(0.0))
        asm.add(frame(1.0))  # seals window 0
        assert asm.late_dropped == 0
        assert asm.add(frame(0.2)) == []
        assert asm.late_dropped == 1

    def test_late_frames_never_reopen_sealed_windows(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(0.0))
        asm.add(frame(2.5))  # seals windows 0 (1 empty, skipped)
        asm.add(frame(0.9))
        assert asm.pending_frames == 1  # only the t=2.5 frame buffered
        assert asm.late_dropped == 1


class TestFlush:
    def test_flush_seals_all_pending_in_order(self):
        asm = WindowAssembler(1.0, grace_seconds=10.0)
        for t in (0.0, 2.2, 1.1):
            asm.add(frame(t))
        sealed = asm.flush()
        assert [i for i, _ in sealed] == [0, 1, 2]
        assert asm.pending_windows == 0

    def test_flush_advances_floor(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(0.0))
        asm.flush()
        asm.add(frame(0.5))
        assert asm.late_dropped == 1

    def test_flush_empty_is_noop(self):
        asm = WindowAssembler(1.0)
        assert asm.flush() == []


class TestState:
    def test_roundtrip_preserves_behaviour(self):
        asm = WindowAssembler(1.0, grace_seconds=0.5)
        for t in (0.0, 0.4, 1.2, 1.9):
            asm.add(frame(t))
        restored = WindowAssembler.from_state(asm.export_state())
        # Both must now adjudicate the same frames identically.
        for probe in (2.0, 0.1, 3.0):
            assert asm.add(frame(probe)) == restored.add(frame(probe))
        assert asm.late_dropped == restored.late_dropped
        assert asm.flush() == restored.flush()

    def test_state_format_is_tagged(self):
        asm = WindowAssembler(1.0)
        assert asm.export_state()["format"] == ASSEMBLER_STATE_FORMAT

    def test_rejects_foreign_payloads(self):
        with pytest.raises(StreamError):
            WindowAssembler.from_state({"format": "something-else"})
        with pytest.raises(StreamError):
            WindowAssembler.from_state("not a dict")
