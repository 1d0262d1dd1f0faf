"""Columnar-kernel tests: production path vs interpreter equivalence.

The differential fuzz oracle covers reference-vs-production equivalence
on generated plans; these tests pin down the edge semantics the
generator rarely hits (NaN, nulls on mixed-type columns, unhashable
membership probes, division by zero, short-circuit evaluation, row
barriers inside a chain, empty partitions after a barrier), the
process-local structural cache, the pickle contract for worker
processes, and the counted fallback when lowering fails.
"""

import math
import pickle
import re
from pathlib import Path

import pytest

import repro
from repro.engine import EngineContext, ExecutionError, apply, col
from repro.engine.expressions import lit
from repro.engine.codegen import (
    CodegenError,
    clear_kernel_cache,
    compile_columnar_task,
    kernel_cache_size,
    lower_columnar_segment,
)
from repro.engine.columnar import ColumnarPartition
from repro.engine.executor import MultiprocessingExecutor, SerialExecutor
from repro.engine.expressions import BoundBinary, BoundColumn, BoundLiteral
from repro.engine.operations import (
    FilterStep,
    FlatMapStep,
    MapPartitionStep,
    PartitionTask,
    ProjectStep,
)
from repro.engine.schema import Schema
from repro.obs import MetricsRegistry

NAN = float("nan")


def _compile(steps, rows, width=None, **kwargs):
    if width is None:
        width = len(rows[0])
    task = compile_columnar_task(tuple(steps), width, **kwargs)
    assert task is not None, "chain unexpectedly not compilable"
    return task


def _both(steps, rows):
    """Run *rows* through the interpreted and the columnar task."""
    interpreted = PartitionTask(tuple(steps))(list(rows))
    return interpreted, _compile(steps, rows)(list(rows))


def _assert_equivalent(steps, rows):
    interpreted, columnar = _both(steps, rows)
    assert columnar == interpreted
    return columnar


def _bind(expr, *names):
    return expr.bind(Schema.of(*names))


def _boom(*_args):
    raise AssertionError("short-circuit violated: operand was evaluated")


def _double_row(row):
    return [row, row]


def _only_big(row):
    return [row] if row[0] > 100 else []


def _halve(x):
    return x / 2.0


def _sorted_plus_marker(rows):
    """A partition map that emits a row even for an empty partition."""
    return sorted(rows) + [(-1,)]


class TestEdgeExpressionEquivalence:
    def test_nan_comparisons(self):
        rows = [(NAN,), (1.0,), (-1.0,), (0.0,), (NAN,)]
        for expr in (
            col("x") < lit(0.5),
            col("x") >= lit(0.5),
            col("x") == col("x"),
            col("x") != col("x"),
        ):
            steps = [FilterStep(_bind(expr, "x"))]
            _assert_equivalent(steps, rows)
        # NaN survives projection untouched in both paths.
        steps = [ProjectStep((_bind(col("x") * lit(1.0), "x"),))]
        interpreted, columnar = _both(steps, rows)
        assert len(columnar) == len(interpreted)
        assert math.isnan(columnar[0][0]) and math.isnan(interpreted[0][0])

    def test_is_null_on_mixed_type_column(self):
        rows = [(None,), (0,), ("",), (NAN,), ("x",), (False,)]
        kept = _assert_equivalent(
            [FilterStep(_bind(col("x").is_null(), "x"))], rows
        )
        assert kept == [(None,)]
        kept = _assert_equivalent(
            [FilterStep(_bind(col("x").is_not_null(), "x"))], rows
        )
        assert len(kept) == 5

    def test_in_set_membership_and_numeric_coercion(self):
        # 1 == 1.0 == True: set membership follows Python equality in
        # both paths, including the bool/int crossover.
        rows = [(1,), (1.0,), (True,), (2,), ("1",), (None,)]
        kept = _assert_equivalent(
            [FilterStep(_bind(col("x").is_in([1]), "x"))], rows
        )
        assert kept == [(1,), (1.0,), (True,)]

    def test_in_set_unhashable_probe_raises_in_both_paths(self):
        rows = [([1, 2],)]
        steps = (FilterStep(_bind(col("x").is_in([1]), "x")),)
        with pytest.raises(TypeError):
            PartitionTask(steps)(list(rows))
        with pytest.raises(TypeError):
            _compile(steps, rows)(list(rows))

    def test_division_by_zero_raises_in_both_paths(self):
        rows = [(1.0, 0.0)]
        steps = (ProjectStep((_bind(col("a") / col("b"), "a", "b"),)),)
        with pytest.raises(ZeroDivisionError):
            PartitionTask(steps)(list(rows))
        with pytest.raises(ZeroDivisionError):
            _compile(steps, rows)(list(rows))

    def test_short_circuit_and_skips_right_operand(self):
        # Left side is false for every row, so the raising right side
        # must never be evaluated -- in either path.
        rows = [(1,), (2,)]
        expr = (col("x") > lit(100)) & apply(_boom, "x")
        kept = _assert_equivalent([FilterStep(_bind(expr, "x"))], rows)
        assert kept == []

    def test_short_circuit_or_skips_right_operand(self):
        rows = [(1,), (2,)]
        expr = (col("x") < lit(100)) | apply(_boom, "x")
        kept = _assert_equivalent([FilterStep(_bind(expr, "x"))], rows)
        assert kept == rows

    def test_and_or_return_plain_bools(self):
        # The interpreter coerces via bool(); truthy non-bool operands
        # must not leak through the columnar path either.
        rows = [("a", "b"), ("", "b"), ("a", ""), ("", "")]
        expr = col("x").is_not_null() & (col("y") != lit(""))
        steps = [ProjectStep((_bind(expr, "x", "y"),))]
        interpreted, columnar = _both(steps, rows)
        assert columnar == interpreted
        assert all(isinstance(v, bool) for (v,) in columnar)


class TestRowBarriers:
    """Flat-maps and partition maps run as row barriers between kernels."""

    def _flat_map_chain(self, func):
        return [
            FilterStep(_bind(col("a") > lit(4), "a", "b")),
            FlatMapStep(func, 2),
            ProjectStep((
                _bind(col("a") + col("b"), "a", "b"),
                _bind(apply(_halve, "b"), "a", "b"),
            )),
            FilterStep(_bind(col("a") < lit(60.0), "a", "h")),
        ]

    def test_filter_flatmap_project_filter(self):
        rows = [(i, i * 0.5) for i in range(50)]
        kept = _assert_equivalent(self._flat_map_chain(_double_row), rows)
        assert kept

    def test_filter_flatmap_filter(self):
        rows = [(i, i * 0.5) for i in range(50)]
        steps = [
            FilterStep(_bind(col("a") > lit(4), "a", "b")),
            FlatMapStep(_double_row, 2),
            FilterStep(_bind(col("b") < lit(20.0), "a", "b")),
        ]
        kept = _assert_equivalent(steps, rows)
        assert kept

    def test_project_map_partitions_filter(self):
        rows = [(i,) for i in (5, 3, 9, 1, 7)]
        steps = [
            ProjectStep((_bind(col("a") * lit(10), "a"),)),
            MapPartitionStep(sorted, 1),
            FilterStep(_bind(col("a") >= lit(30), "a")),
        ]
        assert _assert_equivalent(steps, rows) == [(30,), (50,), (70,), (90,)]

    def test_empty_partition_after_flat_map(self):
        # The flat-map drops every row: the kernel behind it sees an
        # empty partition whose width only the step's out_width knows.
        rows = [(i, i * 0.5) for i in range(50)]
        steps = self._flat_map_chain(_only_big)
        assert _assert_equivalent(steps, rows) == []
        part = _compile(steps, rows, emit="partition")(list(rows))
        assert isinstance(part, ColumnarPartition)
        assert (len(part), part.width) == (0, 2)

    def test_empty_input_partition_still_runs_barriers(self):
        steps = [
            FilterStep(_bind(col("a") > lit(4), "a")),
            MapPartitionStep(_sorted_plus_marker, 1),
            ProjectStep((_bind(col("a") * lit(10), "a"),)),
        ]
        interpreted = PartitionTask(tuple(steps))([])
        assert _compile(steps, [], width=1)([]) == interpreted == [(-10,)]

    def test_chain_ending_in_barrier_emits_its_rows(self):
        rows = [(i,) for i in range(6)]
        steps = [
            FilterStep(_bind(col("a") >= lit(2), "a")),
            FlatMapStep(_double_row, 1),
        ]
        _assert_equivalent(steps, rows)
        out = _compile(steps, rows, emit="partition")(list(rows))
        assert out == PartitionTask(tuple(steps))(list(rows))

    def test_columnar_input_through_barrier(self):
        rows = [(i, i * 0.5) for i in range(50)]
        steps = self._flat_map_chain(_double_row)
        part = ColumnarPartition.from_rows(rows, 2)
        assert _compile(steps, rows)(part) == \
            PartitionTask(tuple(steps))(list(rows))

    def test_engine_flat_map_chain_is_one_columnar_task(self):
        with SerialExecutor() as production, \
                SerialExecutor(columnar=False) as reference:
            results = []
            for executor in (production, reference):
                table = EngineContext(executor).table_from_rows(
                    ["a", "b"], [(i, i * 0.5) for i in range(40)]
                )
                results.append(
                    table.filter(col("a") > 30)
                    .flat_map(_double_row, ["a", "b"])
                    .filter(col("b") < 19.0)
                    .collect()
                )
            assert results[0] == results[1]
            assert production.metrics.columnar_tasks == 1
            assert production.metrics.columnar_fallbacks == 0
            assert production.metrics.kernel_fallbacks == 0
            assert reference.metrics.columnar_tasks == 0


class TestKernelCache:
    def test_structural_cache_shared_across_literals(self):
        clear_kernel_cache()
        registry = MetricsRegistry()
        schema = Schema.of("a")
        steps_a = (FilterStep((col("a") > lit(1)).bind(schema)),)
        steps_b = (FilterStep((col("a") > lit(99)).bind(schema)),)
        compile_columnar_task(steps_a, 1, registry=registry)
        compile_columnar_task(steps_b, 1, registry=registry)
        # Same structure, different literal: one code object, one miss,
        # one hit.
        assert kernel_cache_size() == 1
        assert registry.counter("executor.kernels_compiled").value == 1
        assert registry.counter("executor.kernel_cache_hits").value == 1

    def test_distinct_structures_compile_separately(self):
        clear_kernel_cache()
        schema = Schema.of("a")
        compile_columnar_task(
            (FilterStep((col("a") > lit(1)).bind(schema)),), 1
        )
        compile_columnar_task(
            (FilterStep((col("a") < lit(1)).bind(schema)),), 1
        )
        assert kernel_cache_size() == 2

    def test_segments_either_side_of_a_barrier_share_the_cache(self):
        clear_kernel_cache()
        keep = FilterStep((col("a") > lit(1)).bind(Schema.of("a")))
        compile_columnar_task((keep, FlatMapStep(_double_row, 1), keep), 1)
        assert kernel_cache_size() == 1

    def test_nothing_to_compile_returns_none(self):
        assert compile_columnar_task((FlatMapStep(_double_row, 1),), 1) is None
        assert compile_columnar_task((MapPartitionStep(sorted, 1),), 1) is None
        assert compile_columnar_task((), 1) is None

    def test_deeply_nested_expression_is_a_codegen_error(self):
        schema = Schema.of("a")
        expr = col("a")
        for _ in range(80):
            expr = expr + lit(1)
        with pytest.raises(CodegenError) as caught:
            compile_columnar_task((ProjectStep((expr.bind(schema),)),), 1)
        assert caught.value.reason == "expr_depth"

    def test_generated_source_is_structural(self):
        # Literal values are hoisted to constants; none may appear in
        # the source (the cache key).
        schema = Schema.of("a", "b")
        expr = (col("a") == lit(123456789)) & col("b").is_in(["secret"])
        source, constants = lower_columnar_segment(
            (FilterStep(expr.bind(schema)),), 2
        )
        assert "123456789" not in source
        assert "secret" not in source
        assert 123456789 in constants
        assert frozenset(["secret"]) in constants


class TestPickleContract:
    def test_round_trip_recompiles_lazily(self):
        schema = Schema.of("a")
        steps = (
            FilterStep((col("a") > lit(2)).bind(schema)),
            FlatMapStep(_double_row, 1),
            ProjectStep(((col("a") * lit(3)).bind(schema),)),
        )
        task = compile_columnar_task(steps, 1)
        rows = [(i,) for i in range(8)]
        expected = task(list(rows))
        blob = pickle.dumps(task)
        clear_kernel_cache()
        loaded = pickle.loads(blob)
        # The spec travels; the bound kernels do not.
        assert getattr(loaded, "_phases", None) is None
        assert loaded(list(rows)) == expected
        assert loaded.kernel_id == task.kernel_id
        assert kernel_cache_size() == 2

    def test_spec_only_state(self):
        schema = Schema.of("a")
        steps = (FilterStep((col("a") > lit(2)).bind(schema)),)
        task = compile_columnar_task(steps, 1)
        assert task.__getstate__() == (steps, 1, task.kernel_id, "rows")


class TestLoweringFallback:
    def test_lowering_failure_falls_back_and_counts(self):
        executor = SerialExecutor()
        expr = col("a")
        for _ in range(80):
            expr = expr + lit(1)
        task = executor._narrow_task(
            (ProjectStep((expr.bind(Schema.of("a")),)),), 1
        )
        assert isinstance(task, PartitionTask)
        assert executor.metrics.kernel_fallbacks == 1
        counters = executor.obs.counters()
        assert counters["executor.kernel_fallbacks.expr_depth"] == 1
        assert executor.metrics.columnar_tasks == 0

    def test_unknown_operator_falls_back_and_counts(self):
        executor = SerialExecutor()
        expr = BoundBinary("pow", BoundColumn(0), BoundLiteral(2))
        task = executor._narrow_task((ProjectStep((expr,)),), 1)
        assert isinstance(task, PartitionTask)
        counters = executor.obs.counters()
        assert counters["executor.kernel_fallbacks"] == 1
        assert counters["executor.kernel_fallbacks.unknown_op"] == 1

    def test_reference_path_never_compiles(self):
        executor = SerialExecutor(columnar=False)
        task = executor._narrow_task(
            (FilterStep((col("a") > lit(1)).bind(Schema.of("a"))),), 1
        )
        assert isinstance(task, PartitionTask)
        assert executor.metrics.kernel_fallbacks == 0

    def test_no_engine_path_reads_the_process_environment(self):
        pattern = re.compile(r"os\.environ|getenv|\benviron\b")
        offenders = [
            str(path)
            for path in Path(repro.__file__).parent.rglob("*.py")
            if pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


class TestExecutorSmoke:
    """Tier-1 smoke: columnar by default, identical to the reference."""

    def _pipeline(self, ctx):
        rows = [
            (float(i), i % 7, "id%d" % (i % 5), i % 3 == 0)
            for i in range(200)
        ]
        t = ctx.table_from_rows(["t", "m", "name", "flag"], rows)
        return (
            t.filter((col("m") > 1) & col("name").is_in(["id1", "id2", "id3"]))
            .with_column("scaled", col("t") * lit(0.25) + col("m"))
            .filter(~col("flag"))
            .select("name", "scaled", "m")
        )

    def test_production_default_matches_reference(self):
        with SerialExecutor() as production, \
                SerialExecutor(columnar=False) as reference:
            produced = self._pipeline(EngineContext(production)).collect()
            expected = self._pipeline(EngineContext(reference)).collect()
            assert produced == expected
            assert produced  # the pipeline keeps some rows
            assert production.metrics.kernels_compiled > 0 or \
                production.metrics.kernel_cache_hits > 0
            assert reference.metrics.kernels_compiled == 0
            assert reference.metrics.kernel_cache_hits == 0

    def test_kernel_run_histograms_recorded(self):
        with SerialExecutor() as executor:
            self._pipeline(EngineContext(executor)).collect()
            histograms = executor.obs.histograms()
            assert histograms["executor.kernel_run_seconds"]["count"] > 0
            assert [
                name for name in histograms
                if name.startswith("executor.kernel_run_seconds.c")
            ]

    def test_multiprocessing_equivalence(self):
        with SerialExecutor(columnar=False) as reference, \
                MultiprocessingExecutor(
                    num_workers=2, default_parallelism=4
                ) as mp:
            expected = self._pipeline(EngineContext(reference)).collect()
            table = self._pipeline(EngineContext(mp)).repartition(4)
            actual = table.collect()
            assert sorted(actual) == sorted(expected)

    def test_execution_error_from_compiled_kernel(self):
        with SerialExecutor() as executor:
            ctx = EngineContext(executor)
            t = ctx.table_from_rows(["a", "b"], [(1.0, 0.0)])
            with pytest.raises(ExecutionError):
                t.with_column("q", col("a") / col("b")).collect()
