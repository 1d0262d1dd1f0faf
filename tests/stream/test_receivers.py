"""Sources, their event-time merge and the budget kills: what a
vehicle's session is handed, in which order and where it resumes.
Frames travel as column blocks; :func:`pairs` turns them back into
tuples."""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import FrameBudget, ReplaySource, StreamError
from repro.stream.receivers import merge


def rec(t, channel="FC"):
    return (t, b"\x00", channel, 1, ())


def pairs(frames):
    """Delivered :class:`Frames` as ``(channel, frame tuple)`` pairs."""
    channels = [frames.channels[code] for code in frames.codes]
    rows = frames.block.slice(frames.start, frames.start + len(frames))
    return list(zip(channels, rows.to_rows()))


def served(src, start=0):
    """The frame tuples of *src* past *start* per channel, in delivery
    order."""
    return [frame for _channel, frame in pairs(merge(src, lambda c: start))]


def merged(src, cursors=None):
    """The ``(channel, frame)`` items :func:`merge` hands a session
    whose per-channel cursors are *cursors*."""
    cursors = cursors or {}
    return pairs(merge(src, lambda channel: cursors.get(channel, 0)))


class TestReplaySource:
    def test_channels_are_sorted(self):
        src = ReplaySource([rec(0.0, "B"), rec(0.1, "A")])
        assert src.channels() == ["A", "B"]

    def test_frames_are_time_ordered_per_channel(self):
        src = ReplaySource([rec(0.2), rec(0.0), rec(0.1)])
        assert [f[0] for f in served(src)] == [0.0, 0.1, 0.2]

    def test_cursor_slices_the_stream(self):
        src = ReplaySource([rec(0.0), rec(0.1), rec(0.2)])
        assert [f[0] for f in served(src, start=2)] == [0.2]

    def test_bad_cursor(self):
        src = ReplaySource([rec(0.0)])
        with pytest.raises(StreamError):
            served(src, start=-1)

    def test_a_packed_recording_is_served_as_its_columns(self, tmp_path):
        """A ``.btrc`` view reaches delivery as the file's planes: the
        ``m_info`` plane is moved, never decoded."""
        from repro.tracefile import binlog

        records = [rec(0.1, "B"), rec(0.0, "A"), rec(0.2, "A")]
        path = tmp_path / "v.btrc"
        binlog.dump_records(
            [r[:4] + ((("protocol", "CAN"),),) for r in records], path
        )
        view = binlog.load_records(path)
        src = ReplaySource(view)
        frames = merge(src, lambda channel: 0)
        assert frames.block.columns[4].decode is binlog._unpack_cell
        assert frames.block.columns[4].blob == view.partition.columns[4].blob
        assert pairs(frames) == [(r[2], r) for r in sorted(view)]

    @pytest.mark.parametrize("suffix", [".btrc", ".ctrc"])
    def test_a_coded_channel_column_is_ranked_like_the_rows(
        self, tmp_path, suffix
    ):
        """A trace file's dictionary-coded channels give the channels and
        per-frame codes the row form gives, also where the dictionary
        holds a value no frame has or one value twice."""
        from repro.engine.columnar import ColumnarPartition, DictColumn
        from repro.tracefile import codec_for
        from repro.tracefile.binlog import PackedRecords

        records = [rec(0.3, "K-LIN"), rec(0.0, "FC"), rec(0.1, "BC"),
                   rec(0.2, "FC"), rec(0.4, "BC")]
        path = tmp_path / ("v" + suffix)
        codec_for(path).dump_records(records, path)
        view = codec_for(path).load_records(path)
        assert isinstance(view.partition.columns[2], DictColumn)
        expected = ReplaySource(records).recording()[1].tolist()
        assert ReplaySource(view).channels() == ["BC", "FC", "K-LIN"]
        assert ReplaySource(view).recording()[1].tolist() == expected
        columns = list(view.partition.columns)
        codes = [list(columns[2].values).index(r[2]) for r in view]
        # "FC" twice and "ETH" unused: the dictionary is wider than the
        # channels, and the frames of both "FC" entries are one channel.
        values = tuple(columns[2].values) + ("FC", "ETH")
        codes[3] = len(values) - 2
        columns[2] = DictColumn(array("B", codes), values)
        src = ReplaySource(PackedRecords(ColumnarPartition(columns, 5)))
        assert src.channels() == ["BC", "FC", "K-LIN"]
        assert src.recording()[1].tolist() == expected

    @pytest.mark.parametrize("info", [
        (("crc", 2 ** 70),), (("note", None),), ((7, "x"),), ("ab",), None,
    ])
    def test_an_m_info_the_codec_cannot_hold_is_refused(self, info):
        records = [rec(0.0), rec(0.1, "B"), rec(0.2), rec(0.3)]
        records[2] = records[2][:4] + (info,)
        src = ReplaySource(records)
        with pytest.raises(StreamError, match=r"^channel 'FC', frame 1: "
                           r"m_info .* cannot be packed"):
            merge(src, lambda channel: 0)


class TestFrameBudget:
    def test_unlimited_budget_always_grants(self):
        budget = FrameBudget(None)
        assert all(budget.take() for _ in range(10))
        assert budget.spent == 10

    def test_budget_denies_after_limit(self):
        budget = FrameBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        assert budget.spent == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(StreamError):
            FrameBudget(-1)

    def test_take_n_grants_what_is_left_then_nothing(self):
        budget = FrameBudget(10)
        assert budget.take(4) == 4
        assert budget.take(64) == 6  # fewer than asked for are left
        assert budget.spent == 10
        assert budget.take(3) == 0  # nothing left: spends nothing
        assert budget.spent == 10

    def test_take_n_of_an_empty_and_an_unlimited_budget(self):
        assert FrameBudget(0).take(5) == 0
        unlimited = FrameBudget(None)
        assert unlimited.take(64) == 64 and unlimited.take(1) == 1
        assert unlimited.spent == 65


class TestMerge:
    def test_merges_all_frames(self):
        src = ReplaySource([rec(0.0), rec(0.1)])
        assert merged(src) == [("FC", rec(0.0)), ("FC", rec(0.1))]

    def test_cursor_resumes_mid_channel(self):
        src = ReplaySource([rec(t / 10.0) for t in range(4)])
        items = merged(src, cursors={"FC": 3})
        assert [(channel, frame[0]) for channel, frame in items] == \
            [("FC", 0.3)]

    def test_delivery_is_global_event_time_order(self):
        """Unequal channel rates must not let one channel race ahead:
        the per-channel replays reach the session as one deterministic
        time-ordered stream."""
        fast = [rec(t / 100.0, "fast") for t in range(50)]
        slow = [rec(t / 10.0, "slow") for t in range(5)]
        items = merged(ReplaySource(fast + slow))
        delivered = [(frame[0], str(channel)) for channel, frame in items]
        assert delivered == sorted(delivered)
        assert len(delivered) == 55

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 64])
    def test_slices_are_slices_of_the_one_merged_stream(self, width):
        src = ReplaySource(
            [rec(t / 10.0, "a") for t in range(10)]
            + [rec(t / 10.0 + 0.01, "b") for t in range(7)]
        )
        frames = merge(src, lambda channel: 0)
        items = [
            item for start in range(0, len(frames), width)
            for item in pairs(frames[start : start + width])
        ]
        assert len(items) == 17
        assert items == merged(src)

    @given(
        frames=st.lists(
            st.tuples(
                # few distinct instants: equal timestamps across (and
                # within) channels are the case that needs the tie rule
                st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4]),
                # 7 and "7" tie on str(): source.channels() order decides
                st.sampled_from(["A", "B", 7, "7"]),
            ),
            max_size=40,
        ),
        starts=st.lists(st.integers(0, 6), min_size=4, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_delivery_is_the_stable_sort_of_the_remaining_frames(
        self, frames, starts
    ):
        """Random recordings, non-zero cursors (some past the end of
        their channel, i.e. empty channels): what is delivered is the
        remaining frames stable-sorted by ``(t, str(channel))``."""
        records = [
            (t, bytes([i]), channel, i, ())
            for i, (t, channel) in enumerate(frames)
        ]
        src = ReplaySource(records)
        cursors = dict(zip(["A", "B", 7, "7"], starts))
        in_time = sorted(records, key=lambda r: r[0])
        remaining = [
            (channel, frame)
            for channel in src.channels()
            for frame in [r for r in in_time if r[2] == channel][
                cursors[channel]:
            ]
        ]
        assert merged(src, cursors=cursors) == sorted(
            remaining, key=lambda item: (item[1][0], str(item[0]))
        )
