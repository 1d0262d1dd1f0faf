"""Ablations of the framework's design choices (DESIGN.md index).

1. **Early preselection** (Sec. 3: "Interpretation cost is kept low as
   relevant messages are filtered prior to interpretation" and
   "interpretation is expensive ... thus, early reduction is required"):
   interpret-everything-then-filter vs preselect-then-interpret.
2. **Gateway deduplication** (Sec. 4.1, line 9): processing all routed
   copies vs one representative channel per signal type.
3. **Parallelism over journeys** (Sec. 5.1): the same extraction of
   every SYN journey on 1 to ``os.cpu_count()`` worker processes.

Every time is measured wall time of this machine.
"""

import os

import pytest

from benchmarks.conftest import best_of, extract_journeys, print_table
from repro.core import PipelineConfig, PreprocessingPipeline
from repro.engine import EngineContext
from repro.protocols.frames import BYTE_RECORD_COLUMNS


@pytest.fixture(scope="module")
def syn_trace_records(syn_bundle):
    return syn_bundle.byte_records(60.0)


def cached_trace(records):
    """``K_b`` of *records* on a serial context, cached."""
    return EngineContext.serial().table_from_rows(
        list(BYTE_RECORD_COLUMNS), records).cache()


class TestAblationPreselection:
    def test_preselection_saves_interpretation_work(
        self, benchmark, syn_bundle, syn_trace_records
    ):
        few = list(syn_bundle.beta_ids + syn_bundle.gamma_ids)  # slow signals
        few_catalog = syn_bundle.database.translation_catalog(few)
        full_catalog = syn_bundle.database.translation_catalog()

        def with_preselection():
            k_b = cached_trace(syn_trace_records)
            pipe = PreprocessingPipeline(PipelineConfig(catalog=few_catalog))
            return best_of(
                lambda: pipe.extract_signals(k_b, cache=False).count())

        def without_preselection():
            """Interpret every documented signal, filter afterwards."""
            from repro.core.interpretation import interpret
            from repro.engine.expressions import col

            k_b = cached_trace(syn_trace_records)
            wanted = frozenset(few)
            return best_of(lambda: interpret(k_b, full_catalog).filter(
                col("s_id").is_in(wanted)).count())

        (pre_s, pre_rows), (post_s, post_rows) = benchmark.pedantic(
            lambda: (with_preselection(), without_preselection()),
            rounds=1,
            iterations=1,
        )
        print_table(
            "Ablation: early preselection (extracting {} slow signals)".format(
                len(few)
            ),
            ["variant", "seconds", "rows out"],
            [
                ("preselect, then interpret", round(pre_s, 4), pre_rows),
                ("interpret all, then filter", round(post_s, 4), post_rows),
            ],
        )
        assert pre_rows == post_rows  # lossless optimization
        assert pre_s < post_s  # and it must actually pay off


class TestAblationGatewayDedup:
    def test_dedup_reduces_processed_rows(self, benchmark, syn_bundle, syn_trace_records):
        catalog = syn_bundle.catalog()
        constraints = syn_bundle.default_constraints()

        def run(dedup):
            k_b = cached_trace(syn_trace_records)
            config = PipelineConfig(
                catalog=catalog, constraints=constraints, dedup_channels=dedup
            )
            result = PreprocessingPipeline(config).run(k_b)
            processed = sum(
                o.rows_before_reduction for o in result.outcomes.values()
            )
            branch_seconds = result.timings["branch"] + result.timings["reduce"]
            return processed, branch_seconds

        (with_rows, with_s), (without_rows, without_s) = benchmark.pedantic(
            lambda: (run(True), run(False)), rounds=1, iterations=1
        )
        print_table(
            "Ablation: gateway deduplication e() (SYN, routed alpha signals)",
            ["variant", "rows processed", "reduce+branch seconds"],
            [
                ("dedup on (one channel/type)", with_rows, round(with_s, 3)),
                ("dedup off (all copies)", without_rows, round(without_s, 3)),
            ],
        )
        # Routed copies exist, so disabling dedup processes strictly more.
        assert without_rows > with_rows

    def test_dedup_is_lossless_for_downstream(self, benchmark, syn_bundle):
        """The representative channel carries the same value sequence, so
        the homogenized output values do not change."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        ctx = EngineContext.serial()
        k_b = syn_bundle.record_table(ctx, 20.0)
        s_id = None
        config = PipelineConfig(
            catalog=syn_bundle.catalog(),
            constraints=syn_bundle.default_constraints(),
            dedup_channels=True,
        )
        result = PreprocessingPipeline(config).run(k_b)
        for candidate, outcome in result.outcomes.items():
            if outcome.groups and outcome.groups[0].corresponding:
                s_id = candidate
                break
        assert s_id is not None, "expected at least one routed signal"
        dedup_values = [
            (r[3], r[4], r[5])
            for r in sorted(result.outcomes[s_id].result_rows)
        ]
        config_off = PipelineConfig(
            catalog=syn_bundle.catalog().select([s_id]),
            constraints=syn_bundle.default_constraints([s_id]),
            dedup_channels=False,
        )
        result_off = PreprocessingPipeline(config_off).run(k_b)
        all_values = [
            (r[3], r[4], r[5])
            for r in sorted(result_off.outcomes[s_id].result_rows)
        ]
        # Every homogenized element of the deduplicated run appears in
        # the duplicated run (which simply has the copies on top).
        for item in set(dedup_values):
            assert item in set(all_values)


class TestAblationInterpretationStrategy:
    def test_join_plan_vs_rule_kernels(
        self, benchmark, syn_bundle, syn_trace_records
    ):
        """The two spellings of lines 4-6: the paper's relational join
        (``join_rules`` -> ``u_1`` -> ``u_2`` per row, what ``interpret``
        runs for a catalog passed as a table) vs ``_RuleKernels`` (one
        task per partition, decoding per rule over the payload plane,
        what it runs for a RuleCatalog). Same output, row for row; the
        bench reports both costs."""
        from repro.core.interpretation import interpret
        from repro.core.preselection import preselect

        catalog = syn_bundle.catalog()

        def measure(join):
            k_b = cached_trace(syn_trace_records)
            k_pre = preselect(k_b, catalog).cache()
            spelling = catalog.to_table(k_b.context) if join else catalog
            return best_of(lambda: interpret(k_pre, spelling).collect())

        (join_s, join_rows), (kernel_s, kernel_rows) = benchmark.pedantic(
            lambda: (measure(True), measure(False)),
            rounds=1,
            iterations=1,
        )
        print_table(
            "Ablation: lines 4-6 spelling (SYN, all signals)",
            ["spelling", "seconds", "rows out"],
            [
                ("relational join plan (paper)", round(join_s, 4),
                 len(join_rows)),
                ("per-rule kernels (production)", round(kernel_s, 4),
                 len(kernel_rows)),
            ],
        )
        assert kernel_rows == join_rows
        assert kernel_s < join_s


class TestAblationRateThreshold:
    def test_threshold_moves_alpha_beta_boundary(self, benchmark, syn_bundle):
        """Eq. 2's threshold T "is determined by domain knowledge": this
        ablation sweeps T and shows the α/β boundary move -- fast
        numerics drop out of α as T rises past their change rate."""
        from repro.core import ClassifierConfig, PipelineConfig, PreprocessingPipeline
        from repro.core.branches import BranchConfig

        ctx = EngineContext.serial()
        k_b = syn_bundle.record_table(ctx, 40.0).cache()

        def alpha_count(threshold):
            config = PipelineConfig(
                catalog=syn_bundle.catalog(),
                constraints=syn_bundle.default_constraints(),
                branch_config=BranchConfig(
                    classifier=ClassifierConfig(rate_threshold=threshold)
                ),
            )
            result = PreprocessingPipeline(config).run(k_b)
            return sum(
                1
                for _dt, branch in result.classification_summary().values()
                if branch == "alpha"
            )

        thresholds = (0.1, 1.0, 30.0, 1000.0)
        counts = benchmark.pedantic(
            lambda: [alpha_count(t) for t in thresholds],
            rounds=1,
            iterations=1,
        )
        print_table(
            "Ablation: rate threshold T (SYN, alpha signal count)",
            ["T [1/s]", "# alpha"],
            list(zip(thresholds, counts)),
        )
        # Monotone: raising T can only shrink alpha.
        assert counts == sorted(counts, reverse=True)
        # The paper's setting (T around 1/s) yields the Table 5 split.
        assert counts[1] == syn_bundle.spec.alpha_types
        # Extreme T pushes every numeric out of alpha.
        assert counts[-1] == 0


class TestAblationParallelism:
    def test_scaling_with_worker_count(self, benchmark, syn_bundle,
                                       journeys_syn):
        """The extraction of every journey, one job per journey, on 1 to
        ``os.cpu_count()`` worker processes: the same stored tables at
        every count, and all the cores never slower than one."""
        database = syn_bundle.database
        signal_ids = list(syn_bundle.signal_ids)
        counts = range(1, os.cpu_count() + 1)
        series = benchmark.pedantic(
            lambda: [
                (workers, *extract_journeys(journeys_syn, database,
                                            signal_ids, workers))
                for workers in counts
            ],
            rounds=1,
            iterations=1,
        )
        print_table(
            "Ablation: worker processes ({} SYN journeys, extraction and "
            "store write)".format(len(journeys_syn)),
            ["workers", "seconds", "speedup vs 1"],
            [
                (w, round(t, 4), round(series[0][1] / t, 2))
                for w, t, _outputs in series
            ],
        )
        outputs = [out for _w, _t, out in series]
        assert all(out == outputs[0] for out in outputs)
        # The most workers never slower than one.
        assert series[-1][1] <= series[0][1]
