"""End-to-end pipeline (Algorithm 1) on the simulated wiper vehicle."""

import pytest

from repro.core import (
    Constraint,
    ConstraintSet,
    ExtensionSet,
    GapExtension,
    PipelineConfig,
    PipelineError,
    PreprocessingPipeline,
    RuleCatalog,
    UnchangedWithinCycle,
)


@pytest.fixture
def config(wiper_simulation):
    db = wiper_simulation.database
    return PipelineConfig(
        catalog=db.translation_catalog(["wpos", "wvel", "heat", "belt"]),
        constraints=ConstraintSet(
            (
                Constraint("wvel", True, (UnchangedWithinCycle(0.1),)),
                Constraint("heat", True, (UnchangedWithinCycle(0.5),)),
                Constraint("belt", True, (UnchangedWithinCycle(0.2),)),
            )
        ),
        extensions=ExtensionSet((GapExtension("wpos"),)),
    )


@pytest.fixture
def result(config, wiper_trace):
    return PreprocessingPipeline(config).run(wiper_trace)


class TestPipelineRun:
    def test_all_signals_processed(self, result):
        assert set(result.outcomes) == {"wpos", "wvel", "heat", "belt"}

    def test_classification_matches_construction(self, result):
        summary = result.classification_summary()
        assert summary["wpos"] == ("numeric", "alpha")
        assert summary["heat"] == ("ordinal", "beta")
        assert summary["belt"] == ("binary", "gamma")
        # Constant wvel is reduced to one value -> γ fallback.
        assert summary["wvel"][1] == "gamma"

    def test_gateway_dedup_found(self, result):
        groups = result.outcomes["wpos"].groups
        assert len(groups) == 1
        assert set(groups[0].all_channels()) == {"FC", "BC"}

    def test_reduction_compresses_constant_signal(self, result):
        outcome = result.outcomes["wvel"]
        assert outcome.rows_before_reduction > 100
        assert outcome.rows_after_reduction == 1

    def test_reduction_keeps_changing_signal(self, result):
        outcome = result.outcomes["wpos"]
        assert outcome.rows_after_reduction == outcome.rows_before_reduction

    def test_r_out_layout_homogeneous(self, result):
        assert result.r_out.columns == [
            "t", "s_id", "b_id", "kind", "value", "trend",
        ]

    def test_extension_rows_present(self, result):
        w = result.outcomes["wpos"].extension_table
        assert w.count() > 0
        gaps = [r[1] for r in w.collect()]
        assert all(g == pytest.approx(0.1, abs=0.02) for g in gaps)

    def test_timings_cover_stages(self, result):
        assert set(result.timings) >= {
            "preselect", "interpret", "split", "reduce", "extend",
            "branch", "merge",
        }

    def test_counts_recorded(self, result):
        assert result.counts["k_pre"] > 0
        assert result.counts["k_s"] > result.counts["r_out"]


STAGES = (
    "preselect", "interpret", "split", "reduce", "extend", "branch", "merge",
)


class TestRunReport:
    def test_report_validates_against_schema(self, result):
        from repro.obs import validate_report

        validate_report(result.report.to_json())

    def test_every_stage_has_a_span_with_row_counts(self, result):
        spans = {s.name: s for s in result.report.spans.spans}
        for stage in STAGES:
            assert stage in spans, stage
            assert "rows_in" in spans[stage].attrs, stage
            assert "rows_out" in spans[stage].attrs, stage

    def test_row_counters_match_span_attrs(self, result):
        counters = result.report.metrics.counters()
        spans = {s.name: s for s in result.report.spans.spans}
        for stage in STAGES:
            key = "pipeline.{}.rows_in".format(stage)
            assert counters[key] == spans[stage].attrs["rows_in"]

    def test_stage_row_flow_is_consistent(self, result):
        spans = {s.name: s for s in result.report.spans.spans}
        assert (
            spans["preselect"].attrs["rows_out"]
            == spans["interpret"].attrs["rows_in"]
            == result.counts["k_pre"]
        )
        assert spans["reduce"].attrs["rows_out"] <= \
            spans["reduce"].attrs["rows_in"]
        assert spans["merge"].attrs["rows_out"] == result.counts["r_out"]

    def test_selectivity_and_reduction_gauges(self, result):
        gauges = result.report.metrics.gauges()
        assert 0.0 < gauges["pipeline.preselect.selectivity"] <= 1.0
        # wvel collapses to one row, so reduction strictly compresses.
        assert 0.0 < gauges["pipeline.reduce.reduction_ratio"] < 1.0

    def test_no_split_or_shuffle_between_interpret_and_merge(self, result):
        # Lines 7-28 run on the collected K_s (repro.core.sequence):
        # no engine split, and no shuffle besides the merge's sort.
        counters = result.report.metrics.counters()
        assert counters["executor.splits"] == 0
        assert counters["executor.shuffles"] <= 1
        assert "pipeline.split.shuffle_stages" not in \
            result.report.metrics.gauges()

    def test_executor_counters_merged_in(self, result):
        counters = result.report.metrics.counters()
        assert counters["executor.tasks_run"] > 0
        # Pre-created at zero: a run that never splits still shows it.
        assert "executor.split_rows" in counters

    def test_timings_are_span_seconds(self, result):
        for stage in STAGES:
            assert result.timings[stage] == \
                result.report.spans.seconds(stage)

    def test_caller_supplied_report_aggregates(self, config, wiper_trace):
        from repro.obs import RunReport

        report = RunReport("batch")
        PreprocessingPipeline(config).run(wiper_trace, report=report)
        first = report.metrics.counter("pipeline.preselect.rows_in").value
        PreprocessingPipeline(config).run(wiper_trace, report=report)
        second = report.metrics.counter("pipeline.preselect.rows_in").value
        assert second == 2 * first


class TestSpanCoverage:
    def test_stage_spans_cover_the_run(self, tmp_path):
        """Every engine action of run() happens inside the span of the
        stage that causes it: on a SYN ``.ctrc`` trace (where counting
        the lazily decoded K_b is a real action) the seven stage spans
        account for >= 90% of the wall time (measured: 99%; 85-87% when
        the counts, the distinct() shuffle and the report merge ran
        between spans)."""
        from repro.datasets import build_syn
        from repro.engine import EngineContext
        from repro.obs import stopwatch
        from repro.tracefile import codec_for

        bundle = build_syn()
        config = PipelineConfig(
            catalog=bundle.catalog(),
            constraints=bundle.default_constraints(),
        )
        path = str(tmp_path / "syn.ctrc")
        codec = codec_for(path)
        codec.dump_records(bundle.byte_records(10.0), path)
        k_b = codec.load_table(EngineContext.serial(), path)
        with stopwatch() as wall:
            result = PreprocessingPipeline(config).run(k_b)
        assert set(result.timings) == set(PreprocessingPipeline.STAGES)
        assert sum(result.timings.values()) >= 0.9 * wall.seconds


class TestDivergingChannels:
    """One signal whose channels carry different sequences: ``e`` makes
    each its own representative group."""

    @pytest.fixture
    def result(self, ctx):
        from repro.core import InterpretationRule, TranslationTuple
        from repro.core.model import K_B_COLUMNS
        from repro.protocols import SignalEncoding

        rule = InterpretationRule(SignalEncoding(0, 16))
        catalog = RuleCatalog((
            TranslationTuple("x", "A", 3, rule),
            TranslationTuple("x", "B", 3, rule),
        ))
        # Channel A: 200 fast, ever-changing values (numeric -> alpha).
        rows = [
            (round(0.01 * i, 6), (3 * i).to_bytes(2, "little"), "A", 3, ())
            for i in range(200)
        ]
        # Channel B: 8 slow 0/1 toggles (binary -> gamma); the shorter
        # sequence, so the *last* group processed.
        rows += [
            (round(0.5 * i, 6), (i % 2).to_bytes(2, "little"), "B", 3, ())
            for i in range(8)
        ]
        k_b = ctx.table_from_rows(list(K_B_COLUMNS), rows)
        return PreprocessingPipeline(PipelineConfig(catalog=catalog)).run(k_b)

    def test_classification_is_the_head_representatives(self, result):
        outcome = result.outcomes["x"]
        assert [g.representative for g in outcome.groups] == ["A", "B"]
        assert result.classification_summary()["x"] == ("numeric", "alpha")

    def test_every_group_is_still_processed(self, result):
        kinds = {(r[2], r[3]) for r in result.outcomes["x"].result_rows}
        assert ("B", "binary") in kinds
        assert {k for b, k in kinds if b == "A"} <= {"symbol", "outlier"}


class TestStateRepresentationIntegration:
    def test_pivot_columns(self, result):
        rep = result.state_representation(["wpos", "heat", "belt"])
        assert rep.columns == ("wpos", "heat", "belt")
        assert len(rep) > 0

    def test_cells_filled_after_start(self, result):
        rep = result.state_representation(["wpos", "heat", "belt"])
        late = [r for r in rep.rows if r[0] > 5.0]
        assert all(None not in row[1:] for row in late)


class TestDeterminism:
    def test_same_trace_same_result(self, config, wiper_trace):
        a = PreprocessingPipeline(config).run(wiper_trace)
        b = PreprocessingPipeline(config).run(wiper_trace)
        assert sorted(a.r_out.collect()) == sorted(b.r_out.collect())
        assert a.classification_summary() == b.classification_summary()

    def test_partition_count_does_not_change_r_out(self, config,
                                                   wiper_simulation):
        from repro.engine import EngineContext

        one = EngineContext.serial(default_parallelism=1)
        k_b = wiper_simulation.record_table(one, 10.0)
        expected = sorted(
            PreprocessingPipeline(config).run(k_b).r_out.collect()
        )
        par_ctx = EngineContext.serial(default_parallelism=4)
        k_b_par = wiper_simulation.record_table(par_ctx, 10.0)
        actual = sorted(
            PreprocessingPipeline(config).run(k_b_par).r_out.collect()
        )
        assert actual == expected


class TestExtractSignals:
    def test_prefix_produces_k_s(self, config, wiper_trace):
        pipe = PreprocessingPipeline(config)
        k_s = pipe.extract_signals(wiper_trace)
        assert k_s.columns == ["t", "v", "s_id", "b_id"]
        assert k_s.count() > 0

    def test_dedup_can_be_disabled(self, wiper_simulation, wiper_trace):
        db = wiper_simulation.database
        config = PipelineConfig(
            catalog=db.translation_catalog(["wpos"]),
            dedup_channels=False,
        )
        result = PreprocessingPipeline(config).run(wiper_trace)
        outcome = result.outcomes["wpos"]
        assert outcome.groups == []
        # Both channels processed: double the representative rows.
        assert outcome.rows_before_reduction > 500


class TestInterpretationSpellings:
    def test_kernels_give_the_join_plans_k_s(
        self, wiper_simulation, wiper_trace
    ):
        """``_RuleKernels`` and the join plan of lines 4-6 (the catalog
        passed as a table) give the same ``K_s``, row for row; past
        ``K_s`` the pipeline has one code path."""
        from repro.core import interpret, preselect

        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos", "heat"])
        kernels = PreprocessingPipeline(
            PipelineConfig(catalog=catalog)
        ).extract_signals(wiper_trace)
        join_plan = interpret(
            preselect(wiper_trace, catalog),
            catalog.to_table(wiper_trace.context),
        )
        assert kernels.collect() == join_plan.collect()

    def _broadcast_joins(self, wiper_simulation, wiper_trace, as_table):
        from repro.core import interpret, preselect

        catalog = wiper_simulation.database.translation_catalog(["wpos"])
        metrics = wiper_trace.context.executor.metrics
        k_pre = preselect(wiper_trace, catalog)
        if as_table:
            catalog = catalog.to_table(wiper_trace.context)
        before = metrics.broadcast_joins
        assert interpret(k_pre, catalog).count() > 0
        return metrics.broadcast_joins - before

    def test_a_rule_catalog_runs_the_kernels_without_a_join(
        self, wiper_simulation, wiper_trace
    ):
        assert self._broadcast_joins(
            wiper_simulation, wiper_trace, as_table=False
        ) == 0

    def test_a_catalog_table_runs_the_join_plan(
        self, wiper_simulation, wiper_trace
    ):
        assert self._broadcast_joins(
            wiper_simulation, wiper_trace, as_table=True
        ) == 1


class TestValidation:
    def test_empty_catalog_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(catalog=RuleCatalog(()))

    def test_config_type_enforced(self):
        with pytest.raises(PipelineError):
            PreprocessingPipeline({"catalog": None})
