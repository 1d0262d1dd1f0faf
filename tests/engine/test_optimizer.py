"""Logical plan optimizer: rewrites and result equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext, col
from repro.engine import plan as logical
from repro.engine.expressions import BoundAnd, BoundColumn, apply
from repro.engine.optimizer import (
    ComposedApply,
    optimize,
    references,
    substitute,
)


@pytest.fixture
def table(ctx):
    return ctx.table_from_rows(
        ["a", "b", "c"],
        [(i, i * 2, "x" if i % 2 else "y") for i in range(20)],
    )


def _double(x):
    return 2 * x


class TestFilterFusion:
    def test_adjacent_filters_fuse(self, table):
        plan = table.filter(col("a") > 2).filter(col("b") < 30).plan
        optimized = optimize(plan)
        assert isinstance(optimized, logical.Filter)
        assert isinstance(optimized.predicate, BoundAnd)
        assert isinstance(optimized.child, logical.Source)

    def test_fused_results_match(self, table):
        out = table.filter(col("a") > 2).filter(col("b") < 30)
        expected = [r for r in table.collect() if r[0] > 2 and r[1] < 30]
        assert sorted(out.collect()) == sorted(expected)


class TestProjectFusion:
    def test_adjacent_projects_fuse(self, table):
        plan = table.select("a", "b").select("b").plan
        optimized = optimize(plan)
        assert isinstance(optimized, logical.Project)
        assert isinstance(optimized.child, logical.Source)

    def test_computed_column_composes(self, table):
        out = (
            table.with_column("d", apply(_double, "a"))
            .select("d")
        )
        optimized = optimize(out.plan)
        # Single fused projection over the source.
        assert isinstance(optimized, logical.Project)
        assert isinstance(optimized.child, logical.Source)
        assert sorted(out.collect()) == [(2 * i,) for i in range(20)]

class TestFilterPushdown:
    def test_filter_moves_below_pure_projection(self, table):
        plan = table.select("a", "c").filter(col("a") > 5).plan
        optimized = optimize(plan)
        assert isinstance(optimized, logical.Project)
        assert isinstance(optimized.child, logical.Filter)

    def test_pushdown_respects_computed_columns(self, table):
        """A filter on a computed column must NOT be pushed below the
        projection computing it."""
        plan = (
            table.with_column("d", apply(_double, "a"))
            .filter(col("d") > 10)
            .plan
        )
        optimized = optimize(plan)
        assert isinstance(optimized, logical.Filter)

    def test_pushdown_results_match(self, table):
        out = table.select("a", "c").filter(col("a") > 5)
        assert out.count() == 14


class TestIdentityElimination:
    def test_identity_select_removed(self, table):
        plan = table.select("a", "b", "c").plan
        assert isinstance(optimize(plan), logical.Source)

    def test_reordering_select_kept(self, table):
        plan = table.select("c", "a", "b").plan
        assert isinstance(optimize(plan), logical.Project)


class TestExpressionTools:
    SCHEMA_EXPRS = (BoundColumn(2), BoundColumn(0))

    def test_references(self):
        from repro.engine import Schema

        bound = ((col("a") > 1) & (col("c") == "x")).bind(
            Schema.of("a", "b", "c")
        )
        assert references(bound) == {0, 2}

    def test_substitute_renames_columns(self):
        from repro.engine import Schema

        bound = (col("x") > 1).bind(Schema.of("x", "y"))
        renamed = substitute(bound, self.SCHEMA_EXPRS)
        assert references(renamed) == {2}

    def test_composed_apply_evaluates(self):
        composed = ComposedApply(_double, (BoundColumn(1),))
        assert composed((0, 21)) == 42


class TestOptimizerInExecutor:
    def test_executor_applies_optimizer_transparently(self, ctx):
        t = ctx.table_from_rows(["a"], [(i,) for i in range(100)])
        chain = t
        for _unused in range(5):
            chain = chain.select("a").filter(col("a") >= 0)
        assert chain.count() == 100


ops_strategy = st.lists(
    st.sampled_from(["filter_a", "filter_b", "select_ab", "select_ba", "with_d"]),
    max_size=6,
)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_property_optimized_plans_equivalent(ops):
    """Random transformation chains give identical results with and
    without optimization (optimizer correctness oracle)."""
    ctx = EngineContext.serial()
    t = ctx.table_from_rows(
        ["a", "b"], [(i, 20 - i) for i in range(20)], num_partitions=3
    )
    for op in ops:
        if op == "filter_a" and "a" in t.columns:
            t = t.filter(col("a") > 3)
        elif op == "filter_b" and "b" in t.columns:
            t = t.filter(col("b") < 15)
        elif op == "select_ab" and set(t.columns) >= {"a", "b"}:
            t = t.select("a", "b")
        elif op == "select_ba" and set(t.columns) >= {"a", "b"}:
            t = t.select("b", "a")
        elif op == "with_d" and "a" in t.columns and "d" not in t.columns:
            t = t.with_column("d", apply(_double, "a"))
    # Reference: execute the unoptimized plan by hand.
    reference = _execute_unoptimized(t)
    assert sorted(t.collect()) == sorted(reference)


def _execute_unoptimized(table):
    """Straightforward interpreter over the raw logical plan."""
    return _eval_node(table.plan)


def _eval_node(node):
    if isinstance(node, logical.Source):
        return [r for p in node.partitions for r in p]
    if isinstance(node, logical.Filter):
        return [r for r in _eval_node(node.child) if node.predicate(r)]
    if isinstance(node, logical.Project):
        return [
            tuple(e(r) for e in node.exprs) for r in _eval_node(node.child)
        ]
    raise AssertionError("unexpected node in property test")
