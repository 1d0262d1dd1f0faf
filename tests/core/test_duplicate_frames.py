"""Regression suite: exact duplicate frames must be absorbed, not counted.

Gateways replay frames byte-for-byte (same timestamp, same payload,
same channel). Pre-fix, those replays leaked through interpretation
into the reduction layer, where unchanged-value constraints and the
merged incremental state double-counted them. The fix drops them where
``K_s`` is split into sequences -- ``sequence.split_sequences``, once
for the whole-trace pipeline and once per window for the incremental
runner -- and both paths must agree with the duplicate-free run exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.incremental import IncrementalRunner, split_into_windows
from repro.core.params import config_from_dict, config_to_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.testing.generator import generate_journey_case
from repro.vehicle.corruption import GatewayDuplicate, corrupt

DUP_COUNTER = "pipeline.interpret.exact_duplicates_dropped"


@pytest.fixture(scope="module")
def case():
    return generate_journey_case(random.Random(42))


@pytest.fixture(scope="module")
def duplicated(case):
    records, log = corrupt(
        case.records, [GatewayDuplicate(rate=0.3)], seed=7
    )
    assert len(log) > 0
    return tuple(records)


@pytest.fixture(scope="module")
def ctx():
    return EngineContext.serial(default_parallelism=3)


def _run(ctx, case, records):
    config = config_from_dict(case.params, case.database)
    k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), list(records))
    return PreprocessingPipeline(config).run(k_b)


def _rows(table):
    return sorted(table.collect(), key=repr)


class TestPipelineDedup:
    def test_replays_do_not_change_output(self, ctx, case, duplicated):
        baseline = _run(ctx, case, case.records)
        lossy = _run(ctx, case, duplicated)
        assert _rows(lossy.k_s) == _rows(baseline.k_s)
        assert _rows(lossy.r_out) == _rows(baseline.r_out)
        assert lossy.counts["k_s"] == baseline.counts["k_s"]

    def test_duplicates_are_counted(self, ctx, case, duplicated):
        result = _run(ctx, case, duplicated)
        dropped = result.report.metrics.counters()[DUP_COUNTER]
        assert dropped == len(duplicated) - len(case.records)

    def test_clean_trace_counts_zero(self, ctx, case):
        result = _run(ctx, case, case.records)
        assert result.report.metrics.counters()[DUP_COUNTER] == 0

    def test_dedup_can_be_disabled(self, ctx, case, duplicated):
        config = config_from_dict(case.params, case.database)
        import dataclasses

        config = dataclasses.replace(config, drop_exact_duplicates=False)
        k_b = ctx.table_from_rows(
            list(BYTE_RECORD_COLUMNS), list(duplicated)
        )
        kept = PreprocessingPipeline(config).run(k_b)
        baseline = _run(ctx, case, case.records)
        assert kept.counts["k_s"] > baseline.counts["k_s"]
        assert DUP_COUNTER not in kept.report.metrics.counters()


class TestIncrementalDedup:
    def test_windowed_matches_whole_with_duplicates(
        self, ctx, case, duplicated
    ):
        config = config_from_dict(case.params, case.database)
        whole = _rows(_run(ctx, case, duplicated).r_out)
        runner = IncrementalRunner(config)
        for window in split_into_windows(list(duplicated), 0.7):
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            )
        assert runner.exact_duplicates_dropped > 0
        assert _rows(runner.finalize(ctx).r_out) == whole

    def test_replay_straddling_a_window_boundary(self, ctx, case):
        """The replayed copy shares the original's timestamp, so the
        stable-by-time window split must land both copies in the same
        window; one seen-set then absorbs the pair."""
        records = list(case.records)
        records.append(records[0])  # replay of the very first frame
        config = config_from_dict(case.params, case.database)
        windows = split_into_windows(records, 0.5)
        first = windows[0]
        assert first.count(records[0]) == 2
        runner = IncrementalRunner(config)
        for window in windows:
            runner.process_window(
                ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
            )
        assert runner.exact_duplicates_dropped >= 1
        baseline = _run(ctx, case, case.records)
        assert _rows(runner.finalize(ctx).r_out) == _rows(baseline.r_out)


class TestConfigPlumbing:
    def test_round_trip_defaults_are_implicit(self, case):
        config = config_from_dict(case.params, case.database)
        assert config.drop_exact_duplicates is True
        document = config_to_dict(config)
        assert "drop_exact_duplicates" not in document
        assert "short_payload" not in document

    def test_round_trip_preserves_overrides(self, case):
        params = dict(case.params)
        params["drop_exact_duplicates"] = False
        params["short_payload"] = "skip"
        config = config_from_dict(params, case.database)
        assert config.drop_exact_duplicates is False
        assert config.short_payload == "skip"
        document = config_to_dict(config)
        assert document["drop_exact_duplicates"] is False
        assert document["short_payload"] == "skip"
