"""WindowAssembler: online window membership, sealing, late drops.

Chunks go in and sealed windows come out as column blocks; the helpers
below turn frame tuples into blocks and blocks back into tuples."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.incremental import split_into_windows, window_index
from repro.engine.columnar import ColumnarPartition
from repro.stream import StreamError, WindowAssembler
from repro.stream.assembler import (
    ASSEMBLER_STATE_FORMAT,
    FrameRejected,
    joined,
)


def frame(t):
    return (t, b"\x00", "FC", 1, ())


def block(frames):
    """Frame tuples as the K_b column block ``add_chunk`` takes."""
    return ColumnarPartition.from_rows(list(frames), 5)


def windows(sealed):
    """Sealed ``(index, block)`` pairs as ``(index, frame tuples)``."""
    return [(index, window.to_rows()) for index, window in sealed]


def pending(payload):
    """An ``export_state()`` payload's pending frames as frame tuples
    per window index."""
    out = {}
    for index, row in zip(payload["pending"]["windows"].tolist(),
                          payload["pending"]["frames"].to_rows()):
        out.setdefault(index, []).append(row)
    return out


def state(asm):
    """``export_state()`` with the pending frames per window."""
    payload = asm.export_state()
    payload["pending"] = pending(payload)
    return payload


class TestWindowIndex:
    def test_origin_anchored_at_first_frame(self):
        asm = WindowAssembler(1.0)
        asm.add(frame(10.0))
        assert asm.window_index(10.0) == 0
        assert asm.window_index(10.999) == 0
        assert asm.window_index(11.0) == 1
        assert asm.window_index(25.5) == 15

    @pytest.mark.parametrize("origin, window", [
        (4.0, 0.1), (0.3, 0.1), (1.0, 0.7), (2.2, 0.3),
    ])
    def test_membership_agrees_with_the_bounds_sealed_at(self, origin, window):
        # (4.1 - 4.0) / 0.1 rounds to just under 1: a frame at the
        # bound used to join window 0 and seal it, so a second frame at
        # the same instant was dropped as late at zero grace.
        asm = WindowAssembler(window, grace_seconds=0.0)
        asm.add(frame(origin))
        for k in range(1, 40):
            bound = origin + k * window
            assert asm.window_index(bound) == k
            assert asm.window_index(bound - 1e-9) == k - 1
        tied = WindowAssembler(window, grace_seconds=0.0)
        sealed = tied.add(frame(origin)) + tied.add(frame(origin + window))
        assert tied.add(frame(origin + window)) == []
        assert tied.late_dropped == 0
        assert [index for index, _block in sealed] == [0]
        assert [len(b) for _i, b in tied.flush()] == [2]

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

    @pytest.mark.parametrize("window, grace, message", [
        (float("nan"), 0.0, "window_seconds must be positive"),
        (1.0, float("nan"), "grace_seconds must not be negative"),
    ])
    def test_nan_parameters_are_rejected(self, window, grace, message):
        with pytest.raises(StreamError, match=message):
            WindowAssembler(window, grace_seconds=grace)

    def test_infinite_grace_seals_only_at_flush(self):
        asm = WindowAssembler(1.0, grace_seconds=float("inf"))
        assert asm.add(frame(0.0)) == [] and asm.add(frame(50.0)) == []
        assert [index for index, _block in asm.flush()] == [0, 50]


def assembled_windows(frames, window_seconds):
    """The windows an assembler that never seals early ends up with."""
    asm = WindowAssembler(window_seconds, grace_seconds=float("inf"))
    for f in frames:
        assert asm.add(f) == []
    return [window for _index, window in windows(asm.flush())]


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
        assert [(i, [f[0] for f in fs]) for i, fs in windows(sealed)] == \
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
        assert [f[0] for f in dict(windows(sealed))[0]] == [0.0, 0.5]


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


class TestChunks:
    @given(
        times=st.lists(
            st.sampled_from([k / 4 for k in range(-8, 40)]), max_size=60
        ),
        cuts=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        grace=st.sampled_from([0.0, 0.25, 0.6, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_chunk_is_adjudicated_as_its_frames_one_by_one(
        self, times, cuts, grace
    ):
        """Ties, steps backwards past sealed windows (late drops), and
        frames older than the origin: however the arrivals are cut into
        chunks, every frame meets the floor the frames before it left."""
        frames = [(t, bytes([i]), "FC", i, ()) for i, t in enumerate(times)]
        single, chunked = WindowAssembler(1.0, grace), \
            WindowAssembler(1.0, grace)
        expected = [w for f in frames for w in windows(single.add(f))]
        sealed, start = [], 0
        while start < len(frames):
            size = cuts[len(sealed) % len(cuts)]
            sealed.append(windows(
                chunked.add_chunk(block(frames[start:start + size]))
            ))
            start += size
        assert [w for ws in sealed for w in ws] == expected
        assert state(chunked) == state(single)
        assert windows(chunked.flush()) == windows(single.flush())

    def test_a_window_sealed_mid_chunk_is_closed_to_the_rest_of_it(self):
        asm = WindowAssembler(1.0)
        sealed = asm.add_chunk(block([frame(0.0), frame(1.0), frame(0.5)]))
        assert windows(sealed) == [(0, [frame(0.0)])]
        assert asm.late_dropped == 1

    def test_an_older_window_that_is_already_due_seals_on_arrival(self):
        asm = WindowAssembler(1.0)
        assert asm.add_chunk(block([frame(10.0), frame(10.5)])) == []
        # Nothing sealed yet, so window -3 is assignable -- and overdue.
        assert windows(asm.add_chunk(block([frame(7.5)]))) == \
            [(-3, [frame(7.5)])]


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"),
                                   float("-inf")])
    @pytest.mark.parametrize("first", [True, False])
    def test_is_a_stream_error_not_a_traceback_from_floor(self, t, first):
        asm = WindowAssembler(1.0)
        chunk = [frame(t)] if first else [frame(0.0), frame(0.5), frame(t)]
        with pytest.raises(StreamError, match="not a finite offset") as info:
            asm.add_chunk(block(chunk))
        assert info.value.position == len(chunk) - 1
        assert repr(t) in str(info.value)
        assert asm.pending_frames == len(chunk) - 1

    def test_a_rejected_first_frame_leaves_no_origin(self):
        asm = WindowAssembler(1.0)
        with pytest.raises(StreamError):
            asm.add(frame(float("nan")))
        assert asm.add(frame(3.0)) == []
        assert asm.window_index(3.5) == 0


class TestState:
    def test_roundtrip_preserves_behaviour(self):
        asm = WindowAssembler(1.0, grace_seconds=0.5)
        for t in (0.0, 0.4, 1.2, 1.9):
            asm.add(frame(t))
        restored = WindowAssembler.from_state(asm.export_state())
        # Both must now adjudicate the same frames identically.
        for probe in (2.0, 0.1, 3.0):
            assert windows(asm.add(frame(probe))) == \
                windows(restored.add(frame(probe)))
        assert asm.late_dropped == restored.late_dropped
        assert windows(asm.flush()) == windows(restored.flush())

    def test_state_format_is_tagged(self):
        asm = WindowAssembler(1.0)
        assert asm.export_state()["format"] == ASSEMBLER_STATE_FORMAT

    def test_rejects_foreign_payloads(self):
        with pytest.raises(StreamError):
            WindowAssembler.from_state({"format": "something-else"})
        with pytest.raises(StreamError):
            WindowAssembler.from_state("not a dict")

    def test_roundtrip_mid_window_keeps_the_next_seal_time(self):
        """``_seal_at`` is derived, not saved: a restored assembler
        seals the window it resumed inside at the same frame."""
        asm = WindowAssembler(1.0, grace_seconds=0.5)
        asm.add_chunk(block([frame(0.0), frame(1.2)]))
        restored = WindowAssembler.from_state(asm.export_state())
        assert restored.add(frame(1.4)) == []
        assert [i for i, _ in restored.add(frame(1.5))] == [0]

    @pytest.mark.parametrize("frames, windows, complaint", [
        (block([frame(0.0)]), ["k"], "one integer window"),
        (block([frame(0.0)]), [True], "one integer window"),
        (block([frame(0.0)]), (0,), "field 'windows' has type tuple"),
        (block([frame(0.0), frame(0.5)]), [1, 0], "in window order"),
        (block([frame(0.0)]), [], "not byte records"),
        ([frame(0.0)], [0], "field 'frames' has type list"),
        (ColumnarPartition.from_rows([("x",)], 1), [0], "not byte records"),
        (block([("0.0", b"", "FC", 1, ())]), [0], "finite timestamp"),
        (block([(float("nan"), b"", "FC", 1, ())]), [0], "finite timestamp"),
        (block([(0.0, "payload", "FC", 1, ())]), [0], "bytes payload"),
    ])
    def test_pending_is_shape_checked_on_load(self, frames, windows,
                                              complaint):
        """A snapshot comes from disk: what ``add`` would later choke on
        (``TypeError: '<' not supported`` at the next seal) is refused
        when it is read."""
        asm = WindowAssembler(1.0)
        asm.add(frame(0.0))
        payload = asm.export_state()
        payload["pending"] = {"frames": frames, "windows": windows}
        with pytest.raises((StreamError, ValueError), match=complaint):
            WindowAssembler.from_state(payload)

    def test_pending_needs_an_origin(self):
        payload = WindowAssembler(1.0).export_state()
        payload["pending"] = {"frames": block([frame(0.0)]), "windows": [0]}
        with pytest.raises(StreamError, match="origin"):
            WindowAssembler.from_state(payload)


class ScalarAssembler:
    """The per-frame reference of :meth:`WindowAssembler.add_chunk`:
    each frame's window by the scalar ``window_index``, the late check
    against the floor, the watermark and the seal scan, one frame at a
    time. Windows hold frame ids."""

    def __init__(self, window_seconds, grace_seconds):
        self.window, self.grace = window_seconds, grace_seconds
        self.origin = self.watermark = self.floor = None
        self.pending, self.late_dropped = {}, 0

    def add(self, t, ident):
        """The windows frame *ident* at *t* seals; ValueError if no
        window can hold it."""
        origin = t if self.origin is None else self.origin
        try:
            index = window_index(t, origin, self.window)
        except (ValueError, OverflowError):
            raise ValueError(t) from None
        if abs(index) >= 2 ** 61:
            raise ValueError(t)
        self.origin = origin
        if self.floor is not None and index < self.floor:
            self.late_dropped += 1
            return []
        self.pending.setdefault(index, []).append(ident)
        if self.watermark is None or t > self.watermark:
            self.watermark = t
        sealed = []
        for index in sorted(self.pending):
            if self.watermark < origin + (index + 1) * self.window \
                    + self.grace:
                break
            sealed.append((index, self.pending.pop(index)))
            self.floor = index + 1
        return sealed

    def flush(self):
        sealed, self.pending = sorted(self.pending.items()), {}
        if sealed:
            self.floor = sealed[-1][0] + 1
        return sealed


def ids(window):
    """The frame ids (m_id column) of a window, in arrival order."""
    return [f[3] for f in window.to_rows()]


class TestVectorAssemblerIsTheScalarReference:
    @given(
        origin=st.sampled_from([0.0, 0.3, 4.0, 2.2, 1e9 + 0.1, -7.5]),
        window=st.sampled_from([0.1, 0.25, 0.3, 0.7, 1.0]),
        grace=st.sampled_from([0.0, 0.25, 0.6, 2.0, float("inf")]),
        steps=st.lists(st.tuples(
            st.integers(-3, 30),  # window bound: steps back, ties
            st.sampled_from([0.0, 0.0, -1e-9, 1e-9, 0.25, 0.5, 0.99]),
        ), min_size=1, max_size=80),
        odd=st.one_of(st.none(), st.tuples(
            st.integers(0, 79),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        )),
        cuts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        flush_after=st.one_of(st.none(), st.integers(0, 8)),
        resume=st.booleans(),
    )
    @example(  # an in-order chunk below a pending window: its first
        # frame's window is due at once, and the second frame is late
        origin=0.0, window=1.0, grace=0.0,
        steps=[(0, 0.0), (5, 0.5), (4, 0.5), (4, 0.99)], odd=None, cuts=[2],
        flush_after=None, resume=False,
    )
    @example(  # the same from an assembler rebuilt from its state
        origin=0.0, window=1.0, grace=0.0,
        steps=[(0, 0.0), (5, 0.5), (4, 0.5), (4, 0.99)], odd=None, cuts=[2],
        flush_after=None, resume=True,
    )
    @example(  # after a flush, a frame of the last window flushed is
        # late, and the watermark stays where it was
        origin=0.0, window=1.0, grace=0.0,
        steps=[(0, 0.0), (2, 0.0), (2, 0.5)], odd=None, cuts=[2],
        flush_after=0, resume=False,
    )
    @settings(max_examples=300, deadline=None)
    def test_every_frame_meets_the_scalar_rules(
        self, origin, window, grace, steps, odd, cuts, flush_after, resume
    ):
        """Bounds (``origin + k*W`` and a hair either side), ties, steps
        back within and past the grace period, late drops, several
        seals in one chunk, a rejected ``nan``/``inf``, a flush between
        chunks and, with *resume*, an assembler rebuilt from its state
        after every chunk: every chunk seals, drops and rejects what the
        frames one by one do."""
        times = [origin + k * window + f * window for k, f in steps]
        if odd is not None and odd[0] < len(times):
            times[odd[0]] = odd[1]
        frames = [(t, b"", "FC", i, ()) for i, t in enumerate(times)]
        whole = block(frames)
        reference = ScalarAssembler(window, grace)
        asm = WindowAssembler(window, grace)
        start = 0
        for number, cut in enumerate(cuts * len(frames)):
            if start >= len(frames):
                break
            if number - 1 == flush_after:
                assert [(index, ids(w)) for index, w in asm.flush()] \
                    == reference.flush()
            stop = min(len(frames), start + cut)
            expected, rejected = [], None
            for i in range(start, stop):
                try:
                    expected += reference.add(times[i], i)
                except ValueError:
                    rejected = i - start
                    break
            if rejected is not None:
                # What the frames before it sealed is lost with the
                # session, as it is frame by frame.
                with pytest.raises(FrameRejected) as info:
                    asm.add_chunk(whole, start, stop)
                assert info.value.position == rejected
            else:
                sealed = asm.add_chunk(whole, start, stop)
                assert [(index, ids(w)) for index, w in sealed] == expected
            assert asm.late_dropped == reference.late_dropped
            payload = asm.export_state()
            assert (payload["origin"], payload["watermark"],
                    payload["floor"]) == (reference.origin,
                                          reference.watermark,
                                          reference.floor)
            assert {index: [f[3] for f in rows]
                    for index, rows in pending(payload).items()} \
                == reference.pending
            if rejected is not None:
                break
            if resume:
                asm = WindowAssembler.from_state(payload)
            start = stop

    def test_time_ordered_windows_are_ranges_of_the_delivery_block(
        self, monkeypatch
    ):
        frames = [frame(k / 4) for k in range(20)]
        asm = WindowAssembler(1.0, grace_seconds=0.0)
        whole = block(frames)
        sealed = asm.add_chunk(whole, 0, 9) + asm.add_chunk(whole, 9, 20)
        parts = [part for _index, w in sealed for part in w.parts]
        assert all(part[0] is whole for part in parts)
        assert [part[1] for part in parts] == [
            range(0, 4), range(4, 8), range(8, 9), range(9, 12),
            range(12, 16),
        ]
        assert asm._pending == {4: [(whole, range(16, 20))]}

        def copies(*args):
            raise AssertionError("contiguous parts were copied")

        monkeypatch.setattr(ColumnarPartition, "concat", copies)
        monkeypatch.setattr(ColumnarPartition, "gather", copies)
        assert joined(parts).to_rows() == frames[:16]
