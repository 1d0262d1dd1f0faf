"""Validation harness: score recovered boundaries against ground truth.

Scoring is against the **observed** ground truth: a truth signal's
boundary, for matching purposes, is the set of its bit positions that
actually *vary* in the trace. Bits a signal owns but never exercises
(the top bits of a state machine that visited two of eight states, the
high half of a range never reached) are fundamentally unobservable from
payload statistics -- no discovery algorithm can recover them, and the
standard CAN reverse-engineering literature scores accordingly. Both
sides of the comparison derive from the same trace, so the definition
is self-consistent; for degradation runs the *clean* trace's
observations define the truth while discovery sees the corrupted one.

A truth signal is **discoverable** when it is unconditioned (no
``mux_value``, no ``section_bit``) and its observed boundary is
non-empty. A recovered token **matches** when its bit set equals the
observed boundary exactly; its **encoding** is additionally correct
when the significance order of those bits and the signedness agree.

The harness emits a ``repro.discovery/1`` :class:`~repro.obs.RunReport`
-- the ``repro.obs/1`` metric payload plus the per-message score rows
(section ``messages``) and trace-wide ``totals`` -- and two end-to-end
checks: feeding the synthesized catalog through the unchanged
preprocessing pipeline (:func:`pipeline_coverage`) and sweeping
corruption severities (:func:`discovery_degradation`).
"""

from __future__ import annotations

from repro.discovery.inference import CHECKSUM, CONSTANT
from repro.discovery.observations import collect_observations
from repro.discovery.synthesis import discover, signal_name
from repro.obs.report import (
    DISCOVERY_REPORT_FORMAT,
    SECTION_RULES,
    RunReport,
)


def observed_boundary(encoding, stats):
    """The truth signal's bit positions that vary in the trace."""
    observed = []
    for position in encoding.bit_positions():
        if position >= stats.num_bits:
            continue
        ones = stats.ones[position]
        if 0 < ones < stats.covered[position]:
            observed.append(position)
    return observed


def _f1(precision, recall):
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def score_discovery(truth, result, truth_observations=None,
                    report_name="discovery.run"):
    """Score a :class:`DiscoveryResult` against a truth database.

    *truth_observations* supplies the streams defining observed
    boundaries; it defaults to the observations discovery itself ran on
    (the clean-trace case). Degradation sweeps pass the *clean* trace's
    observations here while ``result`` comes from the corrupted one.
    """
    if truth_observations is None:
        truth_observations = result.observations
    report = RunReport(report_name, metrics=result.metrics,
                       format=DISCOVERY_REPORT_FORMAT)
    rows = []
    total = {
        "messages": 0, "discoverable": 0, "recovered": 0, "matched": 0,
        "encoding_matched": 0, "spurious_messages": 0,
        "constant_tokens": 0, "checksum_tokens": 0,
    }
    truth_keys = set()
    for message in truth.messages:
        key = (message.channel, message.message_id)
        truth_keys.add(key)
        truth_stream = truth_observations.get(key)
        discovery = result.messages.get(key)
        if truth_stream is None:
            continue  # message never appeared in the trace
        total["messages"] += 1
        stats = truth_stream.stats()
        boundaries = {}
        for signal in message.signals:
            if signal.mux_value is not None or signal.section_bit is not None:
                continue  # conditional presence: not scored
            observed = observed_boundary(signal.encoding, stats)
            if observed:
                boundaries[frozenset(observed)] = (signal, tuple(observed))
        recovered = []
        if discovery is not None:
            for signal in discovery.signals:
                if signal.data_class == CONSTANT:
                    total["constant_tokens"] += 1
                    continue
                if signal.data_class == CHECKSUM:
                    total["checksum_tokens"] += 1
                recovered.append(signal)
        matched = 0
        encoding_matched = 0
        for signal in recovered:
            hit = boundaries.get(signal.token.bit_set())
            if hit is None:
                continue
            matched += 1
            truth_signal, observed = hit
            truth_order = tuple(
                p for p in truth_signal.encoding.bit_positions()
                if p in signal.token.bit_set()
            )
            if (
                tuple(signal.token.positions) == truth_order
                and signal.signed == truth_signal.encoding.signed
            ):
                encoding_matched += 1
        precision = _ratio(matched, len(recovered))
        recall = _ratio(matched, len(boundaries))
        rows.append({
            "channel": str(message.channel),
            "message_id": message.message_id,
            "frames": len(truth_stream),
            "discoverable": len(boundaries),
            "recovered": len(recovered),
            "matched": matched,
            "precision": precision,
            "recall": recall,
            "f1": _f1(precision, recall),
        })
        total["discoverable"] += len(boundaries)
        total["recovered"] += len(recovered)
        total["matched"] += matched
        total["encoding_matched"] += encoding_matched
    for key in result.messages:
        if key not in truth_keys:
            total["spurious_messages"] += 1
    precision = _ratio(total["matched"], total["recovered"])
    recall = _ratio(total["matched"], total["discoverable"])
    total["precision"] = precision
    total["recall"] = recall
    total["f1"] = _f1(precision, recall)
    total["encoding_accuracy"] = _ratio(
        total["encoding_matched"], total["matched"]
    )
    registry = report.metrics
    registry.set_gauge("discovery.boundary_precision", precision)
    registry.set_gauge("discovery.boundary_recall", recall)
    registry.set_gauge("discovery.boundary_f1", total["f1"])
    registry.set_gauge(
        "discovery.encoding_accuracy", total["encoding_accuracy"]
    )
    report.sections.update(messages=rows, totals=total)
    return report


def unscored_report(result, report_name="discovery.run"):
    """A ``repro.discovery/1`` report with no ground truth to score by.

    All score fields are zero and no per-message rows are emitted; the
    metric payload still carries the full ``discovery.*`` counters, so
    truth-less production runs export the same schema.
    """
    report = RunReport(report_name, metrics=result.metrics,
                       format=DISCOVERY_REPORT_FORMAT)
    recovered = sum(
        1
        for discovery in result.messages.values()
        for signal in discovery.signals
        if signal.data_class != CONSTANT
    )
    _, fields = SECTION_RULES[DISCOVERY_REPORT_FORMAT]["totals"]
    report.sections["totals"] = dict(
        dict.fromkeys(fields, 0), messages=len(result.messages),
        recovered=recovered, precision=0.0, recall=0.0, f1=0.0,
        encoding_accuracy=0.0,
    )
    return report


def matched_signal_names(truth, result, truth_observations=None):
    """{truth signal name: recovered catalog signal name} for matches."""
    if truth_observations is None:
        truth_observations = result.observations
    out = {}
    for message in truth.messages:
        key = (message.channel, message.message_id)
        truth_stream = truth_observations.get(key)
        discovery = result.messages.get(key)
        if truth_stream is None or discovery is None:
            continue
        stats = truth_stream.stats()
        recovered = {
            signal.token.bit_set(): signal
            for signal in discovery.signals
            if signal.data_class != CONSTANT
        }
        for signal in message.signals:
            if signal.mux_value is not None or signal.section_bit is not None:
                continue
            observed = observed_boundary(signal.encoding, stats)
            hit = recovered.get(frozenset(observed)) if observed else None
            if hit is not None:
                out[signal.name] = signal_name(
                    message.channel, message.message_id, hit.first_bit
                )
    return out


def discoverable_signals(truth, truth_observations):
    """Names of unconditioned truth signals with a non-empty boundary."""
    out = []
    for message in truth.messages:
        key = (message.channel, message.message_id)
        stream = truth_observations.get(key)
        if stream is None:
            continue
        stats = stream.stats()
        for signal in message.signals:
            if signal.mux_value is not None or signal.section_bit is not None:
                continue
            if observed_boundary(signal.encoding, stats):
                out.append(signal.name)
    return out


def pipeline_coverage(truth, result, records, truth_observations=None):
    """Fraction of discoverable truth signals the synthesized catalog
    actually interprets events for, end to end.

    Runs the unchanged signal-extraction prefix (preselect + interpret)
    with the recovered catalog over *records* and checks, per
    discoverable truth signal, that its boundary-matched recovered
    signal produced at least one ``K_s`` row.
    """
    from repro.core.pipeline import PipelineConfig, PreprocessingPipeline
    from repro.engine.context import EngineContext
    from repro.protocols.frames import BYTE_RECORD_COLUMNS

    if truth_observations is None:
        truth_observations = result.observations
    names = matched_signal_names(truth, result, truth_observations)
    discoverable = discoverable_signals(truth, truth_observations)
    if not discoverable:
        return 1.0, {}
    context = EngineContext.serial()
    k_b = context.table_from_rows(list(BYTE_RECORD_COLUMNS), list(records))
    config = PipelineConfig(catalog=result.catalog, short_payload="skip")
    pipeline = PreprocessingPipeline(config)
    k_s = pipeline.extract_signals(k_b)
    seen = set(k_s.column_values("s_id"))
    covered = {
        truth_name: names.get(truth_name) in seen
        for truth_name in discoverable
    }
    coverage = sum(1 for hit in covered.values() if hit) / len(covered)
    return coverage, covered


#: Corruption knobs the discovery degradation sweep exercises.
DISCOVERY_KNOBS = ("bit_flips", "truncation")


def _knob_model(knob):
    from repro.vehicle.corruption import BitFlip, PayloadTruncation

    if knob == "bit_flips":
        return BitFlip(rate=0.02)
    if knob == "truncation":
        return PayloadTruncation(rate=0.3)
    raise ValueError("unknown discovery knob {!r}".format(knob))


def discovery_degradation(records, truth, knobs=None,
                          severities=(0.0, 0.5, 1.0), seed=0, config=None):
    """Sweep corruption severities and score discovery at each point.

    Returns ``{knob: [(severity, totals dict), ...]}`` with severities
    ascending. The clean trace's observations define the truth
    boundaries at every severity, so scores measure what corruption
    *destroys*, not what it redefines.
    """
    from repro.vehicle.corruption import corrupt

    records = list(records)
    clean_observations = collect_observations(records)
    out = {}
    for knob in (knobs if knobs is not None else DISCOVERY_KNOBS):
        model = _knob_model(knob)
        points = []
        for severity in sorted(severities):
            scaled = model.at_severity(severity)
            corrupted, _log = corrupt(records, [scaled], seed=seed)
            result = discover(records=corrupted, config=config)
            report = score_discovery(
                truth, result, truth_observations=clean_observations
            )
            points.append((severity, report.sections["totals"]))
        out[knob] = points
    return out
