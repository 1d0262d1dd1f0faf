"""Degradation harness: perfect-vs-corrupted pipeline comparison.

Runs the *same* scenario twice through the full Algorithm-1 pipeline --
once perfect, once through a :mod:`repro.vehicle.corruption` model at a
given severity -- and quantifies what the corruption cost, against the
corruption log as ground truth:

* **signal recovery** -- fraction of the perfect run's ``K_s`` rows the
  corrupted run still produces (multiset intersection);
* **spurious rate** -- fraction of the corrupted run's ``K_s`` rows the
  perfect run never produced (bit flips and jittered duplicates);
* **reduction ratio delta** -- how far the corrupted run's constraint
  reduction drifts from the perfect run's;
* **R_out recovery** -- same recovery measure on the homogeneous output;
* **dedup correctness** -- fraction of signal types whose gateway
  equality-split channel grouping matches the perfect run (exact
  duplicates and per-channel drops break cross-channel correspondence);
* the pipeline's lossy-trace counters (``short_payload_skipped``,
  ``exact_duplicates_dropped``) and the corruption log's event counts.

A sweep over severities yields one :class:`~repro.obs.RunReport` of
format ``repro.degrade/1``, whose sections are the ``baseline`` summary
and the per-(knob, severity) ``curves`` table, each point also mirrored
into ``degrade.*`` gauges. Severity 0 is the harness's self-check:
every model is then a strict identity, so the corrupted run must be
*byte-identical* to the perfect one.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext
from repro.obs import RunReport
from repro.obs.report import DEGRADE_REPORT_FORMAT
from repro.protocols import BYTE_RECORD_COLUMNS
from repro.vehicle.corruption import (
    BitFlip,
    ClockSkew,
    FrameDrop,
    GatewayDuplicate,
    PayloadTruncation,
    corrupt,
)

#: The named corruption knobs a sweep exercises. Each model's configured
#: values act as severity 1.0 (:meth:`CorruptionModel.at_severity`).
KNOBS = {
    "frame_drop": FrameDrop(rate=0.05),
    "burst_drop": FrameDrop(rate=0.01, burst_length=8),
    "exact_duplicate": GatewayDuplicate(rate=0.05),
    "gateway_duplicate": GatewayDuplicate(rate=0.05, jitter=0.002),
    "clock_skew": ClockSkew(drift=0.002, step_rate=0.01, step_scale=0.05),
    "payload_truncation": PayloadTruncation(rate=0.05),
    "bit_flip": BitFlip(rate=0.05),
}

DEFAULT_SEVERITIES = (0.0, 0.5, 1.0)


class DegradationError(ValueError):
    """Raised for invalid harness configuration."""


def points(report, knob=None):
    """A degradation report's curve points, optionally of one knob."""
    return [
        p for p in report.sections["curves"]
        if knob is None or p["knob"] == knob
    ]


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def _multiset(rows):
    return Counter(tuple(row) for row in rows)


def _recovery(baseline, observed):
    """|baseline ∩ observed| / |baseline| (1.0 for an empty baseline)."""
    total = sum(baseline.values())
    if not total:
        return 1.0
    common = sum((baseline & observed).values())
    return common / total


def _spurious(baseline, observed):
    """Fraction of *observed* rows absent from the baseline."""
    total = sum(observed.values())
    if not total:
        return 0.0
    extra = sum((observed - baseline).values())
    return extra / total


def _reduction_ratio(result):
    before = sum(
        o.rows_before_reduction for o in result.outcomes.values()
    )
    after = sum(o.rows_after_reduction for o in result.outcomes.values())
    if not before:
        return 0.0
    return 1.0 - after / before


def _grouping(result):
    """Canonical gateway-dedup grouping: s_id -> frozenset of channel
    groups (each a sorted tuple of the group's channels)."""
    out = {}
    for s_id, outcome in result.outcomes.items():
        out[s_id] = frozenset(
            tuple(sorted(map(str, g.all_channels())))
            for g in outcome.groups
        )
    return out


def _dedup_correctness(baseline_groups, groups):
    """Fraction of baseline signal types with an identical grouping."""
    if not baseline_groups:
        return 1.0
    matching = sum(
        1 for s_id, expected in baseline_groups.items()
        if groups.get(s_id) == expected
    )
    return matching / len(baseline_groups)


class _Run:
    """One pipeline execution's comparison-relevant footprint."""

    def __init__(self, config, records):
        context = EngineContext.serial()
        k_b = context.table_from_rows(
            list(BYTE_RECORD_COLUMNS), list(records)
        )
        result = PreprocessingPipeline(config).run(k_b)
        counters = result.report.metrics.counters()
        self.result = result
        self.k_s = _multiset(result.k_s.collect())
        self.r_out = _multiset(result.r_out.collect())
        self.reduction_ratio = _reduction_ratio(result)
        self.grouping = _grouping(result)
        self.short_payload_skipped = counters.get(
            "pipeline.interpret.short_payload_skipped", 0
        )
        self.exact_duplicates_dropped = counters.get(
            "pipeline.interpret.exact_duplicates_dropped", 0
        )


def lossy_config(config):
    """*config* hardened for corrupted input: truncated payloads are
    skipped (and counted) instead of aborting the run. A config already
    in a lossy mode (skip or keep) passes through unchanged."""
    if config.short_payload in ("skip", "keep"):
        return config
    return dataclasses.replace(config, short_payload="skip")


def run_degradation(records, config, knobs=None, severities=None, seed=0,
                    report_name="degrade.run"):
    """Severity sweep: one ``repro.degrade/1`` report for *records*.

    *records* are the scenario's perfect ``k_b`` byte records; *config*
    the domain's :class:`~repro.core.pipeline.PipelineConfig` (hardened
    via :func:`lossy_config`, so corrupted runs never abort on truncated
    payloads). *knobs* maps knob names to
    :class:`~repro.vehicle.corruption.CorruptionModel` instances
    (default: :data:`KNOBS`); every knob runs at every severity in
    *severities* (default: :data:`DEFAULT_SEVERITIES`) against the same
    baseline run.
    """
    records = list(records)
    if knobs is None:
        knobs = KNOBS
    if not knobs:
        raise DegradationError("need at least one corruption knob")
    severities = tuple(
        DEFAULT_SEVERITIES if severities is None else severities
    )
    if not severities:
        raise DegradationError("need at least one severity")
    if any(s < 0 for s in severities):
        raise DegradationError("severities must be >= 0")
    config = lossy_config(config)

    report = RunReport(report_name, format=DEGRADE_REPORT_FORMAT)
    report.set_meta(
        seed=seed,
        severities=list(severities),
        knobs=sorted(knobs),
    )
    with report.span("baseline"):
        baseline = _Run(config, records)
    report.sections["baseline"] = {
        "records": len(records),
        "k_s_rows": sum(baseline.k_s.values()),
        "r_out_rows": sum(baseline.r_out.values()),
        "reduction_ratio": baseline.reduction_ratio,
    }

    for name in sorted(knobs):
        model = knobs[name]
        with report.span("knob.{}".format(name)):
            for severity in severities:
                corrupted, log = corrupt(
                    records, [model.at_severity(severity)], seed=seed
                )
                run = _Run(config, corrupted)
                point = {
                    "knob": name,
                    "severity": float(severity),
                    "records_in": len(records),
                    "records_out": len(corrupted),
                    "corruption_events": len(log),
                    "corruption_counts": log.counts(),
                    "byte_identical": (
                        corrupted == records
                        and run.k_s == baseline.k_s
                        and run.r_out == baseline.r_out
                    ),
                    "signal_recovery": _recovery(baseline.k_s, run.k_s),
                    "spurious_rate": _spurious(baseline.k_s, run.k_s),
                    "reduction_ratio": run.reduction_ratio,
                    "reduction_ratio_delta": (
                        run.reduction_ratio - baseline.reduction_ratio
                    ),
                    "r_out_recovery": _recovery(
                        baseline.r_out, run.r_out
                    ),
                    "dedup_correctness": _dedup_correctness(
                        baseline.grouping, run.grouping
                    ),
                    "short_payload_skipped": run.short_payload_skipped,
                    "exact_duplicates_dropped": (
                        run.exact_duplicates_dropped
                    ),
                }
                report.sections["curves"].append(point)
                prefix = "degrade.{}.{:g}".format(name, severity)
                metrics = report.metrics
                for key in (
                    "signal_recovery", "spurious_rate", "reduction_ratio",
                    "reduction_ratio_delta", "r_out_recovery",
                    "dedup_correctness",
                ):
                    metrics.set_gauge(
                        "{}.{}".format(prefix, key), point[key]
                    )
                metrics.counter(
                    "degrade.corruption_events"
                ).inc(point["corruption_events"])
    return report


def degradation_summary(report):
    """Terse per-point text table (the CLI's output)."""
    lines = [
        "{:20s} {:>8s} {:>7s} {:>9s} {:>9s} {:>7s} {:>6s}".format(
            "knob", "severity", "events", "recovery", "spurious",
            "dedup", "ident",
        )
    ]
    for p in report.sections["curves"]:
        lines.append(
            "{:20s} {:8g} {:7d} {:9.3f} {:9.3f} {:7.3f} {:>6s}".format(
                p["knob"], p["severity"], p["corruption_events"],
                p["signal_recovery"], p["spurious_rate"],
                p["dedup_correctness"],
                "yes" if p["byte_identical"] else "no",
            )
        )
    return "\n".join(lines)
