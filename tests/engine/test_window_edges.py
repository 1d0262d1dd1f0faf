"""SortedMapPartitions carry rows: partition-layout edge cases.

These pin the carry semantics for the layouts distributed execution
actually produces: empty leading partitions, all-empty inputs,
single-row partitions, and carry windows deeper than any one partition.
All cases run through explicit ``table_from_partitions`` layouts so the
executor cannot re-balance the edge away.
"""

from repro.engine import EngineContext
from repro.engine.executor import MultiprocessingExecutor
from repro.engine.window import ForwardFill


def _carry_probe(partition, carry):
    """Append the tuple of carry first-column values to each row."""
    seen = tuple(row[0] for row in carry)
    return [row + (seen,) for row in partition]


class TestCarryLayouts:
    def test_empty_first_partition(self, ctx):
        t = ctx.table_from_partitions(
            ["t", "v"], [[], [(1.0, 10)], [(2.0, 20)]]
        )
        out = t.sorted_map_partitions(
            _carry_probe, output_columns=["t", "v", "carry"]
        )
        assert out.collect() == [(1.0, 10, ()), (2.0, 20, (1.0,))]

    def test_all_empty_partitions(self, ctx):
        t = ctx.table_from_partitions(["t", "v"], [[], [], []])
        out = t.sorted_map_partitions(
            _carry_probe, output_columns=["t", "v", "carry"]
        )
        assert out.collect() == []
        assert len(out.collect_partitions()) == 3

    def test_single_row_partitions(self, ctx):
        t = ctx.table_from_partitions(
            ["t"], [[(1.0,)], [(2.0,)], [(3.0,)]]
        )
        out = t.sorted_map_partitions(
            _carry_probe, output_columns=["t", "carry"]
        )
        assert out.collect() == [(1.0, ()), (2.0, (1.0,)), (3.0, (2.0,))]

    def test_carry_skips_interleaved_empty_partitions(self, ctx):
        t = ctx.table_from_partitions(
            ["t"], [[], [(1.0,)], [], [(2.0,)], [(3.0,)], []]
        )
        out = t.sorted_map_partitions(_carry_probe, carry_rows=2)
        assert out.collect() == [
            (1.0, ()),
            (2.0, (1.0,)),
            (3.0, (1.0, 2.0)),
        ]

    def test_carry_window_deeper_than_partitions(self, ctx):
        # carry_rows=3 with single-row partitions: the carry must span
        # several predecessors, not just the immediately previous one.
        t = ctx.table_from_partitions(
            ["t"], [[(1.0,)], [(2.0,)], [(3.0,)], [(4.0,)]]
        )
        out = t.sorted_map_partitions(_carry_probe, carry_rows=3)
        assert out.collect() == [
            (1.0, ()),
            (2.0, (1.0,)),
            (3.0, (1.0, 2.0)),
            (4.0, (1.0, 2.0, 3.0)),
        ]

    def test_zero_carry_rows_passes_empty_carry(self, ctx):
        t = ctx.table_from_partitions(["t"], [[(1.0,)], [(2.0,)]])
        out = t.sorted_map_partitions(_carry_probe, carry_rows=0)
        assert out.collect() == [(1.0, ()), (2.0, ())]


class TestWindowFunctionsOnEdgeLayouts:
    def test_forward_fill_across_empty_partition(self, ctx):
        t = ctx.table_from_partitions(
            ["t", "v"], [[(1.0, 7)], [], [(2.0, None), (3.0, None)]]
        )
        out = t.sorted_map_partitions(ForwardFill((1,)), carry_rows=1)
        assert out.collect() == [(1.0, 7), (2.0, 7), (3.0, 7)]


class TestHighLevelHelpersOnEdgeInputs:
    """The forward fill must also survive degenerate tables."""

    def test_forward_fill_all_none_column(self, ctx):
        t = ctx.table_from_rows(
            ["t", "v"], [(1.0, None), (2.0, None)], num_partitions=2
        )
        out = t.sort(["t"]).sorted_map_partitions(
            ForwardFill((1,)), carry_rows=100_000
        )
        assert out.collect() == [(1.0, None), (2.0, None)]

    def test_parallel_matches_serial_on_edge_layout(self):
        layout = [[], [(1.0, 10)], [], [(2.0, None)], [(3.0, 30)]]
        serial_ctx = EngineContext.serial(default_parallelism=3)
        serial = (
            serial_ctx.table_from_partitions(["t", "v"], layout)
            .sorted_map_partitions(ForwardFill((1,)), carry_rows=2)
            .collect()
        )
        with EngineContext(MultiprocessingExecutor(num_workers=2)) as pctx:
            parallel = (
                pctx.table_from_partitions(["t", "v"], layout)
                .sorted_map_partitions(ForwardFill((1,)), carry_rows=2)
                .collect()
            )
        assert parallel == serial == [(1.0, 10), (2.0, 10), (3.0, 30)]
