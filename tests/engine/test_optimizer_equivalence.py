"""Per-rule optimizer equivalence: every rewrite preserves results.

For each rule the optimizer implements, build a plan that provably
exercises it (asserted via the optimize() trace hook) and check that
optimized and unoptimized execution agree on a table designed to stress
the rule: NULLs, duplicates, empty partitions, computed columns.
"""

import pytest

from repro.engine import apply, col
from repro.engine.executor import SerialExecutor
from repro.engine.optimizer import optimize


@pytest.fixture
def table(ctx):
    rows = [
        (i, i * 2, "x" if i % 2 else "y", None if i % 5 == 0 else i % 7)
        for i in range(40)
    ]
    return ctx.table_from_rows(["a", "b", "c", "n"], rows, num_partitions=4)


def _double(x):
    return 2 * x


def _add(x, y):
    return None if y is None else x + y


def _run_both_ways(table_obj):
    """Execute the plan with and without the optimizer; return both."""
    plan = table_obj.plan
    optimized = SerialExecutor(default_parallelism=3, optimize_plans=True)
    unoptimized = SerialExecutor(default_parallelism=3, optimize_plans=False)
    opt_rows = [r for p in optimized.execute(plan) for r in p]
    raw_rows = [r for p in unoptimized.execute(plan) for r in p]
    return opt_rows, raw_rows


def _fired_rules(table_obj):
    trace = []
    optimize(table_obj.plan, trace=trace)
    return trace


class TestFilterFusion:
    def test_rule_fires_and_results_agree(self, table):
        out = table.filter(col("a") > 5).filter(col("b") < 60)
        assert "filter_fusion" in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows) == sorted(raw_rows)
        assert opt_rows  # non-vacuous: some rows survive both filters

    def test_three_way_fusion(self, table):
        out = (
            table.filter(col("a") > 2)
            .filter(col("b") < 70)
            .filter(col("c") == "x")
        )
        trace = _fired_rules(out)
        assert trace.count("filter_fusion") >= 2
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows) == sorted(raw_rows)

    def test_fusion_with_null_predicates(self, table):
        out = table.filter(col("n").is_not_null()).filter(col("n") > 2)
        assert "filter_fusion" in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows) == sorted(raw_rows)


class TestProjectionSubstitution:
    def test_rule_fires_and_results_agree(self, table):
        out = table.with_column("d", apply(_double, "a")).select("d", "c")
        assert "project_fusion" in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows, key=repr) == sorted(raw_rows, key=repr)

    def test_chained_computed_columns(self, table):
        out = (
            table.with_column("d", col("a") + col("b"))
            .with_column("e", col("d") * 3)
            .select("e")
        )
        trace = _fired_rules(out)
        assert "project_fusion" in trace
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows) == sorted(raw_rows)
        assert opt_rows == [((i + i * 2) * 3,) for i in range(40)]


class TestFilterPushdown:
    def test_rule_fires_and_results_agree(self, table):
        out = table.select("a", "c").filter(col("a") > 10)
        assert "filter_pushdown" in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows, key=repr) == sorted(raw_rows, key=repr)

    def test_pushdown_blocked_by_computed_column(self, table):
        # Filtering on a computed column must NOT push below the
        # projection (it would duplicate the computation or break).
        out = table.with_column("d", apply(_double, "a")).filter(
            col("d") > 20
        )
        assert "filter_pushdown" not in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows, key=repr) == sorted(raw_rows, key=repr)


class TestIdentityProjectElimination:
    def test_rule_fires_and_results_agree(self, table):
        out = table.select("a", "b", "c", "n")  # same columns, same order
        assert "identity_project_elimination" in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert opt_rows == raw_rows

    def test_reordering_projection_is_not_eliminated(self, table):
        out = table.select("b", "a", "c", "n")
        assert "identity_project_elimination" not in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert sorted(opt_rows, key=repr) == sorted(raw_rows, key=repr)


class TestProjectPruning:
    """``Project(Filter(Project))``: the shape of Algorithm 1 lines 5-6
    (two computed columns, a filter on the second, a narrow select)."""

    def _interpret_chain(self, table):
        return (
            table.with_column("d", apply(_double, "a"))
            .with_column("e", apply(_add, "d", "n"))
            .filter(col("e").is_not_null())
            .select("a", "e", "c")
        )

    def test_rule_fires_on_the_interpret_chain(self, table):
        out = self._interpret_chain(table)
        assert "project_pruning" in _fired_rules(out)
        inner = optimize(out.plan).child.child
        # b, n and the intermediate d are gone; e computes d inline.
        assert inner.schema.names == ("a", "c", "e")
        opt_rows, raw_rows = _run_both_ways(out)
        assert opt_rows == raw_rows
        assert 0 < len(opt_rows) < 40  # the filter drops the NULL rows

    def test_computed_columns_evaluate_once_per_row(self, table):
        calls = []

        def counted(x):
            calls.append(x)
            return 2 * x

        out = (
            table.with_column("d", apply(counted, "a"))
            .with_column("e", apply(_add, "d", "n"))
            .filter(col("e").is_not_null())
            .select("a", "e")
        )
        assert len(out.collect()) == 32
        assert len(calls) == 40  # not 80: the dead d column is not built

    def test_does_not_fire_when_every_inner_column_is_read(self, table):
        out = (
            table.select("a", "n").with_column("d", apply(_double, "a"))
            .filter(col("d") > 20)
            .select("n", "d", "a")
        )
        assert "project_pruning" not in _fired_rules(out)
        opt_rows, raw_rows = _run_both_ways(out)
        assert opt_rows == raw_rows


class TestRulesComposeAcrossWideNodes:
    def test_equivalence_through_join_and_sort(self, ctx, table):
        rules = ctx.table_from_rows(
            ["a", "w"], [(i, i * 10) for i in range(0, 40, 3)]
        )
        out = (
            table.filter(col("a") > 4)
            .filter(col("b") < 70)
            .select("a", "b", "c")
            .join(rules, on="a")
            .sort(["c", "a"])
        )
        trace = _fired_rules(out)
        assert "filter_fusion" in trace
        opt_rows, raw_rows = _run_both_ways(out)
        assert opt_rows == raw_rows

    def test_optimizer_is_idempotent(self, table):
        out = table.filter(col("a") > 5).select("a", "c").select("a")
        once = optimize(out.plan)
        twice = optimize(once)
        assert once == twice
