"""Degradation curves: pipeline quality under transport corruption.

Sweeps every corruption knob of :mod:`repro.vehicle.corruption` over a
severity grid on the SYN vehicle and measures how the extraction
pipeline degrades: signal-recovery and spurious rates against the
perfect run, reduction-ratio drift, dedup correctness and the
defect-absorption counters (exact duplicates dropped, short payloads
skipped).

The hard gate is the severity-0 identity: with every knob dialled to
zero the corrupted run must be byte-identical to the perfect run --
the hardening layer may not perturb clean traces at all.

Results are printed and written to ``BENCH_7.json`` (repo root).
"""

import json
import os

import pytest

from benchmarks.conftest import print_table
from repro.core import PipelineConfig
from repro.obs import validate_report
from repro.testing.degradation import (
    KNOBS,
    degradation_summary,
    points,
    run_degradation,
)

pytestmark = pytest.mark.slow

_BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_7.json")

SEVERITIES = (0.0, 0.25, 0.5, 1.0)
DURATION = 30.0
SEED = 11


@pytest.fixture(scope="module")
def report(syn_bundle):
    records = syn_bundle.byte_records(DURATION)
    config = PipelineConfig(
        catalog=syn_bundle.catalog(),
        constraints=syn_bundle.default_constraints(),
    )
    return run_degradation(
        records, config, knobs=KNOBS, severities=SEVERITIES, seed=SEED
    )


def test_degradation_curves(report):
    print(degradation_summary(report))
    rows = [
        [
            point["knob"],
            "%g" % point["severity"],
            "yes" if point["byte_identical"] else "no",
            "%.3f" % point["signal_recovery"],
            "%.3f" % point["spurious_rate"],
            "%+.3f" % point["reduction_ratio_delta"],
            "%.3f" % point["dedup_correctness"],
            point["corruption_events"],
        ]
        for point in points(report)
    ]
    print_table(
        "Degradation sweep (SYN, {}s, severities {})".format(
            DURATION, "/".join("%g" % s for s in SEVERITIES)
        ),
        ["knob", "sev", "ident", "recovery", "spurious",
         "d(reduction)", "dedup", "events"],
        rows,
    )

    payload = {
        "benchmark": "degradation",
        "dataset": "SYN",
        "duration_seconds": DURATION,
        "seed": SEED,
        "severities": list(SEVERITIES),
        "baseline": dict(report.sections["baseline"]),
        "curves": [dict(point) for point in points(report)],
    }
    with open(_BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The report itself must satisfy the repro.degrade/1 schema.
    validate_report(report.to_dict())

    # Severity-0 identity gate, per knob.
    for knob in KNOBS:
        (zero,) = [
            p for p in points(report, knob) if p["severity"] == 0.0
        ]
        assert zero["byte_identical"] is True, (
            "knob %s perturbed a clean trace at severity 0" % knob
        )
        assert zero["signal_recovery"] == 1.0
        assert zero["spurious_rate"] == 0.0
        assert zero["reduction_ratio_delta"] == 0.0

    # Sanity: full severity must actually corrupt something somewhere.
    assert any(
        p["corruption_events"] > 0
        for p in points(report)
        if p["severity"] == 1.0
    )


def test_duplicates_and_truncation_are_absorbed(report):
    """The two satellite fixes, visible at benchmark scale: exact
    replays change nothing, truncated payloads are skipped not fatal."""
    (dup,) = [
        p
        for p in points(report, "exact_duplicate")
        if p["severity"] == 1.0
    ]
    assert dup["exact_duplicates_dropped"] > 0
    assert dup["signal_recovery"] == 1.0
    assert dup["spurious_rate"] == 0.0

    (trunc,) = [
        p
        for p in points(report, "payload_truncation")
        if p["severity"] == 1.0
    ]
    assert trunc["short_payload_skipped"] > 0
    assert trunc["spurious_rate"] == 0.0
