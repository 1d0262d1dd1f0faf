"""explain: the logical plan rendered for a human."""

from repro.engine import col


class TestExplain:
    def test_explain_shows_plan_structure(self, ctx):
        trace = ctx.table_from_rows(["m_id", "v"], [(1, 2)])
        rules = ctx.table_from_rows(["m_id", "rule"], [(1, "r")])
        plan = (
            trace.filter(col("v") > 0)
            .join(rules, on="m_id")
            .sort("v")
            .explain()
        )
        assert "Sort" in plan
        assert "Join keys=['m_id']" in plan
        assert "Filter" in plan
        assert "Source" in plan and "rows=1" in plan

    def test_explain_indentation_reflects_depth(self, ctx):
        t = ctx.table_from_rows(["x"], [(1,)]).filter(col("x") == 1)
        lines = t.explain().splitlines()
        assert lines[0].startswith("Filter")
        assert lines[1].startswith("  Source")
