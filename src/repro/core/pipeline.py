"""End-to-end preprocessing pipeline (Algorithm 1).

:class:`PreprocessingPipeline` wires every stage of the paper's
framework over the dataflow engine:

1. preselection of relevant message types (lines 2-3);
2. join with translation tuples + row-wise interpretation (lines 4-6);
3. per-signal splitting and gateway deduplication (lines 7-9);
4. constraint reduction (lines 10-11);
5. extensions (line 12);
6. classification + type-dependent branch processing (lines 13-28);
7. merge to the homogeneous output ``R_out`` (line 29).

The pipeline is parameterized once per domain via
:class:`PipelineConfig` and then applied to any number of traces -- the
"one-time parameterization" of the paper's abstract. Every run records
a :class:`repro.obs.RunReport` -- per-stage wall-time spans with
row-in/row-out attributes, selectivity/reduction gauges and the
executor's task/retry/fault metrics -- exposed as
:attr:`PipelineResult.report`; the flat :attr:`PipelineResult.timings`
and :attr:`PipelineResult.counts` dicts are derived views kept for the
evaluation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import RunReport

from repro.core.branches import BranchConfig
from repro.core.extension import ExtensionSet
from repro.core.interpretation import interpret, interpret_under_policy
from repro.core.model import K_S_COLUMNS, W_COLUMNS
from repro.core.preselection import preselect
from repro.core.reduction import ConstraintSet
from repro.core.representation import build_state_representation
from repro.core.rules import RuleCatalog
from repro.core.sequence import (
    derive_extensions,
    equality_groups,
    marker_functions,
    merge_sequences,
    process_sequence,
    reduce_sequence,
    split_sequences,
)


class PipelineError(ValueError):
    """Raised for pipeline misconfiguration."""


@dataclass(frozen=True)
class PipelineConfig:
    """One domain's parameterization of the framework.

    Parameters
    ----------
    catalog:
        ``U_comb`` -- the translation tuples of the signals this domain
        analyzes (Sec. 3.1).
    constraints:
        ``C`` -- reduction constraints (Sec. 4.1).
    extensions:
        ``E`` -- extension rules (Sec. 4.1).
    branch_config:
        Knobs of the α/β/γ processing (Sec. 4.2).
    dedup_channels:
        Apply the gateway equality check ``e`` and process one channel
        per signal type only (the evaluation's setting).
    short_payload:
        ``"raise"`` (default: a truncated payload aborts the run with
        :class:`~repro.protocols.signalcodec.ShortPayloadError`),
        ``"skip"`` (affected signal rows are dropped and counted in the
        ``pipeline.interpret.short_payload_skipped`` counter) or
        ``"keep"`` (affected rows stay in ``K_s`` carrying the
        :data:`~repro.core.rules.TRUNCATED` sentinel -- they classify
        as nominal evidence downstream -- counted in the
        ``pipeline.interpret.short_payload_kept`` counter). The latter
        two are the lossy-trace settings.
    drop_exact_duplicates:
        Drop exact ``K_s`` duplicates -- identical ``(t, v, s_id,
        b_id)`` rows, as produced by store-and-forward gateways
        replaying frames without jitter -- before splitting, so they
        cannot double-count reduction statistics. Counted in the
        ``pipeline.interpret.exact_duplicates_dropped`` counter.
    """

    catalog: RuleCatalog
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    branch_config: BranchConfig = field(default_factory=BranchConfig)
    dedup_channels: bool = True
    short_payload: str = "raise"
    drop_exact_duplicates: bool = True

    def __post_init__(self):
        if len(self.catalog) == 0:
            raise PipelineError("catalog must contain at least one signal")
        if self.short_payload not in ("raise", "skip", "keep"):
            raise PipelineError(
                "short_payload must be 'raise', 'skip' or 'keep'"
            )


@dataclass
class SignalOutcome:
    """Everything the pipeline derived for one signal type."""

    signal_id: str
    classification: object
    groups: list  # ChannelGroup list from the equality split
    rows_before_reduction: int
    rows_after_reduction: int
    result_rows: list  # homogeneous R rows
    extension_table: object  # W engine table


@dataclass
class PipelineResult:
    """Output of one pipeline run."""

    k_s: object  # interpreted signal table (cached)
    outcomes: dict  # s_id -> SignalOutcome
    r_out: object  # merged homogeneous table (R_COLUMNS)
    timings: dict  # stage name -> seconds (derived from report spans)
    counts: dict  # diagnostic row counts per stage
    report: object = None  # repro.obs.RunReport of this run

    def state_representation(self, signal_order=None):
        """The Table 4 pivot of ``R_out``."""
        return build_state_representation(self.r_out, signal_order)

    def outcome(self, signal_id):
        return self.outcomes[signal_id]

    def classification_summary(self):
        """s_id -> (data type, branch) for every processed signal."""
        return {
            s_id: (o.classification.data_type, o.classification.branch)
            for s_id, o in self.outcomes.items()
        }


class PreprocessingPipeline:
    """Algorithm 1, parameterized per domain and engine-agnostic."""

    def __init__(self, config):
        if not isinstance(config, PipelineConfig):
            raise PipelineError("config must be a PipelineConfig")
        self.config = config

    # -- stages exposed individually (used by benchmarks) ------------------
    def preselect(self, k_b):
        """Lines 2-3."""
        return preselect(k_b, self.config.catalog)

    def interpret(self, k_pre):
        """Lines 4-6."""
        # short_payload values coincide with interpret's on_short
        # modes: raise aborts, skip drops, keep retains TRUNCATED.
        return interpret(
            k_pre, self.config.catalog, on_short=self.config.short_payload
        )

    def extract_signals(self, k_b, cache=True):
        """Lines 3-6: the signal-extraction prefix measured in Table 6."""
        k_s = self.interpret(self.preselect(k_b))
        return k_s.cache() if cache else k_s

    # -- full run ---------------------------------------------------------------
    #: The seven Algorithm-1 stages, in execution order; each one gets a
    #: span with rows_in/rows_out attributes in the run report.
    STAGES = (
        "preselect", "interpret", "split", "reduce", "extend", "branch",
        "merge",
    )

    def run(self, k_b, report=None):
        """Execute Algorithm 1 on a raw trace table ``K_b``.

        Lines 2-6 run on the engine; ``K_s`` is then collected once and
        lines 7-29 are the sequence stages of :mod:`repro.core.sequence`
        -- the same functions a windowed run feeds chunk by chunk, here
        with an empty carry. Every engine action happens inside the
        span of the stage that causes it.

        *report*, when given, is the :class:`~repro.obs.RunReport` to
        record into (callers batching many traces aggregate this way);
        by default each run gets a fresh one, returned as
        :attr:`PipelineResult.report`.
        """
        if report is None:
            report = RunReport("pipeline.run")
        recorder = report.spans
        registry = report.metrics
        config = self.config
        counts = {}
        context = k_b.context
        report.set_meta(
            signals=len(set(config.catalog.signal_ids())),
            dedup_channels=config.dedup_channels,
        )

        with recorder.span("preselect") as span:
            k_b_rows = k_b.count()
            k_pre = self.preselect(k_b).cache()
            counts["k_pre"] = k_pre.count()
            span.set(rows_in=k_b_rows, rows_out=counts["k_pre"])
        if k_b_rows:
            registry.set_gauge(
                "pipeline.preselect.selectivity", counts["k_pre"] / k_b_rows
            )

        with recorder.span("interpret") as interpret_span:
            k_s, policy_counts = interpret_under_policy(k_pre, config)
            for name, value in policy_counts.items():
                registry.counter("pipeline.interpret." + name).inc(value)

        with recorder.span("split") as split_span:
            rows = k_s.collect()
            sequences, duplicates = split_sequences(
                rows,
                by_channel=config.dedup_channels,
                drop_exact_duplicates=config.drop_exact_duplicates,
            )
            counts["k_s"] = len(rows) - duplicates
            if duplicates:
                k_s = context.table_from_rows(
                    list(K_S_COLUMNS),
                    [row for seq in sequences.values() for row in seq],
                )
            by_signal = {}
            for (s_id, b_id), seq in sequences.items():
                by_signal.setdefault(s_id, {})[b_id] = seq
            work = {}  # s_id -> (ChannelGroups, sequences to process)
            for s_id in sorted(set(config.catalog.signal_ids())):
                channels = by_signal.get(s_id, {})
                if config.dedup_channels:
                    groups = equality_groups(s_id, channels)
                    todo = [channels[g.representative] for g in groups]
                else:
                    groups = []
                    todo = list(channels.values())
                # A signal type without instances still gets its
                # (empty) sequence classified.
                work[s_id] = (groups, todo or [[]])
        if config.drop_exact_duplicates:
            registry.counter(
                "pipeline.interpret.exact_duplicates_dropped"
            ).inc(duplicates)
        interpret_span.set(rows_in=counts["k_pre"], rows_out=counts["k_s"])

        outcomes = {}
        result_rows = []
        w_rows = []
        total_before = 0
        total_after = 0
        for s_id, (groups, todo) in work.items():
            functions = marker_functions(config.constraints.for_signal(s_id))
            ext_rules = config.extensions.for_signal(s_id)
            classifications = []
            signal_rows = []
            signal_w = []
            before = 0
            after = 0
            for sequence in todo:
                with recorder.span("reduce") as reduce_span:
                    k_red = reduce_sequence(sequence, functions, {})
                before += len(sequence)
                after += len(k_red)
                with recorder.span("extend") as extend_span:
                    signal_w.extend(derive_extensions(k_red, ext_rules))
                with recorder.span("branch") as branch_span:
                    classification, branch_rows = process_sequence(
                        k_red, config.branch_config
                    )
                classifications.append(classification)
                signal_rows.extend(branch_rows)
            total_before += before
            total_after += after
            result_rows.extend(signal_rows)
            w_rows.extend(signal_w)
            outcomes[s_id] = SignalOutcome(
                signal_id=s_id,
                # The head representative's sequence leads.
                classification=classifications[0],
                groups=groups,
                rows_before_reduction=before,
                rows_after_reduction=after,
                result_rows=signal_rows,
                extension_table=context.table_from_rows(
                    list(W_COLUMNS), signal_w
                ),
            )
        split_span.set(rows_in=counts["k_s"], rows_out=total_before)
        if counts["k_s"]:
            registry.set_gauge(
                "pipeline.split.dedup_ratio", total_before / counts["k_s"]
            )
        # A catalog is never empty and every signal type has at least its
        # head sequence, so the loop above ran and bound the three spans.
        reduce_span.set(rows_in=total_before, rows_out=total_after)
        if total_before:
            registry.set_gauge(
                "pipeline.reduce.reduction_ratio", total_after / total_before
            )
        extend_span.set(rows_in=total_after, rows_out=len(w_rows))
        branch_span.set(rows_in=total_after, rows_out=len(result_rows))

        with recorder.span("merge") as span:
            r_out = merge_sequences(context, result_rows, w_rows).cache()
            counts["r_out"] = r_out.count()
            span.set(
                rows_in=len(result_rows) + len(w_rows),
                rows_out=counts["r_out"],
            )
            for name in self.STAGES:
                attrs = recorder.find(name).attrs
                for key in ("rows_in", "rows_out"):
                    registry.counter(
                        "pipeline.{}.{}".format(name, key)
                    ).inc(attrs[key])
            # Executor metrics are executor-lifetime (a context reused
            # across runs keeps accumulating); with one context per run
            # they read as per-run values.
            report.merge_registry(context.executor.obs)

        return PipelineResult(
            k_s=k_s,
            outcomes=outcomes,
            r_out=r_out,
            timings={name: recorder.seconds(name) for name in self.STAGES},
            counts=counts,
            report=report,
        )
