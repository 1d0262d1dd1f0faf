"""Figure 5: execution time after interpretation and reduction.

The paper runs lines 3-11 of Algorithm 1 (preselection, interpretation,
splitting and unchanged-value reduction; "one channel per signal type is
analyzed") with a constant number of signal types over step-wise growing
subsets of each data set's K_b, and plots execution time against the
number of examples. Complexity is O(n): the curve is linear with
fluctuations from cluster communication.

This bench regenerates the series: per data set, prefixes of the
recorded trace are processed serially in one process, timed with
``perf_counter``, and the (examples, seconds) pairs are printed. Only
the curve's shape is asserted, and one core shows it: time grows with
examples and the growth is closer to linear than to quadratic.
"""

import time

import pytest

from benchmarks.conftest import DURATIONS, best_of, print_table
from repro.core import PipelineConfig, PreprocessingPipeline
from repro.core.reduction import reduce_signal
from repro.core.splitting import equality_split, split_signal_types
from repro.engine import EngineContext, col
from repro.protocols.frames import BYTE_RECORD_COLUMNS

FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def run_lines_3_to_11(records, bundle):
    """Lines 3-11 for one trace prefix; returns #examples interpreted."""
    k_b = EngineContext.serial().table_from_rows(
        list(BYTE_RECORD_COLUMNS), records)
    config = PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints()
    )
    pipeline = PreprocessingPipeline(config)
    k_s = pipeline.interpret(pipeline.preselect(k_b)).cache()
    examples = k_s.count()
    per_signal = split_signal_types(k_s, sorted(bundle.signal_ids))
    for s_id, table in per_signal.items():
        split = equality_split(table, s_id)
        constraints = config.constraints.for_signal(s_id)
        for _group, rep_table in split.tables():
            reduce_signal(rep_table, constraints).count()
    return examples


def measure_series(bundle, duration):
    records = bundle.byte_records(duration)
    series = []
    for fraction in FRACTIONS:
        prefix = records[: int(len(records) * fraction)]
        seconds, examples = best_of(
            lambda: run_lines_3_to_11(prefix, bundle))
        series.append((examples, seconds))
    return series


@pytest.mark.parametrize("name", ["SYN", "LIG", "STA"])
def test_fig5_execution_time_vs_examples(benchmark, bundles, name):
    bundle = bundles[name]
    series = benchmark.pedantic(
        measure_series,
        args=(bundle, DURATIONS[name]),
        rounds=1,
        iterations=1,
    )

    print_table(
        "Figure 5 ({}) -- interpretation+reduction time vs #examples "
        "(serial, wall time)".format(name),
        ["examples", "seconds", "us per example"],
        [
            (n, round(t, 4), round(1e6 * t / n, 2) if n else "-")
            for n, t in series
        ],
    )

    examples = [n for n, _t in series]
    times = [t for _n, t in series]
    # More examples -> monotonically more work (allow tiny jitter).
    assert examples == sorted(examples)
    for (n_a, t_a), (n_b, t_b) in zip(series, series[1:]):
        assert t_b >= 0.7 * t_a
    # O(n) shape: quadrupling the examples must not blow up
    # super-linearly; allow generous constant-overhead headroom on the
    # small prefixes (the paper's curve fluctuates too).
    ratio_examples = examples[-1] / examples[0]
    ratio_time = times[-1] / times[0]
    assert ratio_time < 2.5 * ratio_examples


# ---------------------------------------------------------------------------
# Per-signal splitting: one routed pass vs one filter scan per signal
# ---------------------------------------------------------------------------


def _interpreted_k_s(bundle, duration):
    """Columns + partitions of the bundle's interpreted ``K_s``."""
    ctx = EngineContext.serial()
    k_b = ctx.table_from_rows(
        list(BYTE_RECORD_COLUMNS), bundle.byte_records(duration)
    )
    config = PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints()
    )
    pipeline = PreprocessingPipeline(config)
    k_s = pipeline.interpret(pipeline.preselect(k_b))
    return k_s.columns, k_s.collect_partitions()


def measure_split_strategies(bundle, duration):
    columns, partitions = _interpreted_k_s(bundle, duration)
    signal_ids = sorted(bundle.signal_ids)

    # Old pattern: one full filter scan per signal type.
    fanout = EngineContext.serial()
    k_s = fanout.table_from_partitions(columns, partitions)
    start = time.perf_counter()
    for s_id in signal_ids:
        k_s.filter(col("s_id") == s_id).collect()
    fanout_seconds = time.perf_counter() - start

    # New pattern: one routed pass producing every group at once.
    split = EngineContext.serial()
    k_s = split.table_from_partitions(columns, partitions)
    start = time.perf_counter()
    groups = k_s.split_by_key("s_id", keys=signal_ids)
    for table in groups.values():
        table.collect()
    split_seconds = time.perf_counter() - start

    return {
        "signals": len(signal_ids),
        "rows": sum(len(p) for p in partitions),
        "partitions": len(partitions),
        "fanout_seconds": fanout_seconds,
        "fanout_tasks": fanout.executor.metrics.tasks_run,
        "split_seconds": split_seconds,
        "split_tasks": split.executor.metrics.tasks_run,
        "split_shuffles": split.executor.metrics.shuffles,
        "split_stages": split.executor.metrics.splits,
    }


def test_split_by_key_single_pass_vs_filter_fan_out(benchmark, syn_bundle):
    stats = benchmark.pedantic(
        measure_split_strategies,
        args=(syn_bundle, DURATIONS["SYN"]),
        rounds=1,
        iterations=1,
    )

    speedup = stats["fanout_seconds"] / max(stats["split_seconds"], 1e-9)
    print_table(
        "Per-signal split of SYN K_s -- filter fan-out vs split_by_key "
        "({} signals, {} rows)".format(stats["signals"], stats["rows"]),
        ["strategy", "scan stages", "tasks", "seconds"],
        [
            ("filter fan-out", stats["signals"], stats["fanout_tasks"],
             round(stats["fanout_seconds"], 4)),
            ("split_by_key", 1, stats["split_tasks"],
             round(stats["split_seconds"], 4)),
            ("speedup", "-", "-", "{:.1f}x".format(speedup)),
        ],
    )

    # Scan count O(S) -> O(1): the fan-out runs one stage of P tasks per
    # signal; the split routes the concatenated partitions in one task.
    assert stats["split_stages"] == 1
    assert stats["split_shuffles"] == 1
    assert stats["split_tasks"] == 1
    assert stats["fanout_tasks"] == stats["signals"] * stats["partitions"]
    # And the single pass is measurably faster end to end.
    assert stats["split_seconds"] < stats["fanout_seconds"]
