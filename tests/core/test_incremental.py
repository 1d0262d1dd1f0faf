"""Incremental (windowed) processing: equivalence with whole-trace runs."""

import pytest

from repro.core import (
    Constraint,
    ConstraintSet,
    GapExtension,
    ExtensionSet,
    PipelineConfig,
    UnchangedWithinCycle,
    interpret,
    preselect,
    reduce_signal,
)
from repro.core.incremental import (
    IncrementalError,
    IncrementalRunner,
    split_into_windows,
)
from repro.engine import col
from repro.protocols.frames import BYTE_RECORD_COLUMNS


@pytest.fixture
def setup(ctx, wiper_simulation):
    db = wiper_simulation.database
    catalog = db.translation_catalog(["wvel", "heat"]).restrict_channels(
        ["FC", "K-LIN"]
    )
    config = PipelineConfig(
        catalog=catalog,
        constraints=ConstraintSet(
            (
                Constraint("wvel", True, (UnchangedWithinCycle(0.1),)),
                Constraint("heat", True, (UnchangedWithinCycle(0.5),)),
            )
        ),
        extensions=ExtensionSet((GapExtension("heat"),)),
    )
    records = wiper_simulation.byte_records(30.0)
    return config, records


class TestSplitIntoWindows:
    def test_covers_all_records(self, setup):
        _config, records = setup
        windows = split_into_windows(records, 5.0)
        assert sum(len(w) for w in windows) == len(records)
        assert len(windows) == 6

    def test_window_bounds(self, setup):
        _config, records = setup
        for window in split_into_windows(records, 5.0):
            span = window[-1][0] - window[0][0]
            assert span < 5.0 + 1e-6

    def test_empty_input(self):
        assert split_into_windows([], 5.0) == []

    def test_invalid_window_rejected(self):
        with pytest.raises(IncrementalError):
            split_into_windows([], 0.0)

    @pytest.mark.parametrize("window", [float("nan"), -1.0])
    def test_nan_or_negative_window_rejected(self, setup, window):
        _config, records = setup
        with pytest.raises(IncrementalError, match="must be positive"):
            split_into_windows(records, window)

    def test_a_frame_on_a_bound_opens_the_next_window(self):
        # (4.1 - 4.0) / 0.1 rounds to just under 1.
        records = [(t, b"\x00", "FC", 1, ()) for t in (4.0, 4.1, 4.1)]
        assert [len(w) for w in split_into_windows(records, 0.1)] == [1, 2]

    def test_infinite_window_is_one_window(self, setup):
        _config, records = setup
        assert split_into_windows(records, float("inf")) == [
            sorted(records, key=lambda r: r[0])
        ]


class TestIncrementalEquivalence:
    def test_reduction_matches_whole_trace(self, ctx, setup):
        """Windowed reduction with carry must keep exactly the rows a
        whole-trace reduction keeps."""
        config, records = setup
        runner = IncrementalRunner(config)
        for window in split_into_windows(records, 4.0):
            table = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            runner.process_window(table)

        whole_k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), records)
        k_s = interpret(preselect(whole_k_b, config.catalog), config.catalog)
        for s_id, b_id in ((u.signal_id, u.channel_id) for u in config.catalog):
            whole = reduce_signal(
                k_s.filter(col("s_id") == s_id).filter(col("b_id") == b_id),
                config.constraints.for_signal(s_id),
            ).collect()
            incremental = runner.reduced_rows(s_id, b_id)
            assert incremental == whole, (s_id, b_id)

    def test_finalize_produces_homogeneous_output(self, ctx, setup):
        config, records = setup
        runner = IncrementalRunner(config)
        for window in split_into_windows(records, 6.0):
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            )
        result = runner.finalize(ctx)
        assert result.r_out.count() > 0
        assert result.r_out.columns == [
            "t", "s_id", "b_id", "kind", "value", "trend",
        ]
        rep = result.state_representation(["wvel", "heat", "heatGap"])
        assert len(rep) > 0

    def test_extensions_span_window_boundaries(self, ctx, setup):
        """heatGap values must reflect gaps in the *reduced* sequence,
        not artifacts of the windowing."""
        config, records = setup
        runner = IncrementalRunner(config)
        for window in split_into_windows(records, 3.0):
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            )
        result = runner.finalize(ctx)
        gaps = [
            r[4]
            for r in result.r_out.collect()
            if r[1] == "heatGap" and r[3] == "extension"
        ]
        assert gaps
        # Heater levels dwell 8 s; reduced gaps must be far above the
        # 3 s window size if windowing left no artifacts.
        assert min(gaps) > 3.0


class TestIncrementalProperty:
    def test_equivalence_for_random_window_sizes(self, ctx, setup):
        """Any window size gives reduction-identical results (the carry
        makes boundaries invisible)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        config, records = setup
        whole_k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), records)
        k_s = interpret(preselect(whole_k_b, config.catalog), config.catalog)
        expected = {}
        for u in config.catalog:
            expected[(u.signal_id, u.channel_id)] = reduce_signal(
                k_s.filter(col("s_id") == u.signal_id).filter(
                    col("b_id") == u.channel_id
                ),
                config.constraints.for_signal(u.signal_id),
            ).collect()

        @given(window=st.floats(min_value=0.5, max_value=20.0))
        @settings(max_examples=10, deadline=None)
        def check(window):
            runner = IncrementalRunner(config)
            for chunk in split_into_windows(records, window):
                runner.process_window(
                    ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), chunk)
                )
            for key, rows in expected.items():
                assert runner.reduced_rows(*key) == rows

        check()


class TestRunnerProtocol:
    def test_out_of_order_window_rejected(self, ctx, setup):
        config, records = setup
        runner = IncrementalRunner(config)
        windows = split_into_windows(records, 5.0)
        runner.process_window(
            ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), windows[1])
        )
        with pytest.raises(IncrementalError):
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), windows[0])
            )

    def test_finalize_twice_rejected(self, ctx, setup):
        config, _records = setup
        runner = IncrementalRunner(config)
        runner.finalize(ctx)
        with pytest.raises(IncrementalError):
            runner.finalize(ctx)

    def test_process_after_finalize_rejected(self, ctx, setup):
        config, records = setup
        runner = IncrementalRunner(config)
        runner.finalize(ctx)
        with pytest.raises(IncrementalError):
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), records[:5])
            )


class TestStatePayload:
    """from_state reads bytes from disk: it validates, never tracebacks."""

    @pytest.fixture
    def payload(self, ctx, setup):
        config, records = setup
        runner = IncrementalRunner(config)
        for window in split_into_windows(records, 10.0)[:2]:
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            )
        return runner.export_state()

    @pytest.mark.parametrize("field", [
        "last_window_end", "finalized", "short_payload_skipped",
        "exact_duplicates_dropped", "states",
    ])
    def test_missing_field_is_named(self, setup, payload, field):
        del payload[field]
        with pytest.raises(IncrementalError, match=repr(field)):
            IncrementalRunner.from_state(setup[0], payload)

    def test_payload_from_before_the_keep_policy_restores(
        self, setup, payload
    ):
        del payload["short_payload_kept"]
        runner = IncrementalRunner.from_state(setup[0], payload)
        assert runner.short_payload_kept == 0

    @pytest.mark.parametrize("field, value", [
        ("states", []),
        ("finalized", "no"),
        ("last_window_end", "12.0"),
        ("exact_duplicates_dropped", None),
    ])
    def test_ill_typed_field_is_named(self, setup, payload, field, value):
        payload[field] = value
        with pytest.raises(IncrementalError, match=repr(field)):
            IncrementalRunner.from_state(setup[0], payload)

    @pytest.mark.parametrize("part", ["reduced_rows", "carries"])
    def test_state_entries_are_checked(self, setup, payload, part):
        key = sorted(payload["states"])[0]
        del payload["states"][key][part]
        with pytest.raises(IncrementalError, match=part):
            IncrementalRunner.from_state(setup[0], payload)
        payload["states"] = {"wvel": payload["states"][key]}
        with pytest.raises(IncrementalError, match="pair"):
            IncrementalRunner.from_state(setup[0], payload)
