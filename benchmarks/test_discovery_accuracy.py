"""Discovery accuracy and throughput on the SYN fleet.

Runs the DBC-less discovery front end over several distinct SYN
journeys and scores recovered boundaries against the ground-truth
database (observed-boundary P/R/F1 per journey, micro-averaged across
the fleet) plus throughput in frames and synthesized translation
tuples per second.

The hard gate mirrors the acceptance criterion: micro-averaged
boundary F1 on clean traces must be at least 0.9. Results are printed
and written to ``BENCH_9.json`` (repo root).
"""

import json
import os
import time

import pytest

from benchmarks.conftest import print_table
from repro.discovery import discover, score_discovery

pytestmark = pytest.mark.slow

_BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_9.json")

F1_GATE = 0.9


@pytest.fixture(scope="module")
def journey_runs(journeys_syn, syn_bundle):
    truth = syn_bundle.database
    runs = []
    for index, records in enumerate(journeys_syn):
        records = list(records)
        start = time.perf_counter()
        result = discover(records=records)
        seconds = time.perf_counter() - start
        report = score_discovery(truth, result)
        runs.append({
            "journey": index,
            "frames": len(records),
            "seconds": seconds,
            "tuples": len(result.catalog),
            "totals": dict(report.sections["totals"]),
        })
    return runs


def test_discovery_accuracy_and_throughput(journey_runs):
    rows = []
    matched = discoverable = recovered = encoding_matched = 0
    for run in journey_runs:
        totals = run["totals"]
        matched += totals["matched"]
        discoverable += totals["discoverable"]
        recovered += totals["recovered"]
        encoding_matched += totals["encoding_matched"]
        rows.append([
            run["journey"],
            run["frames"],
            "%.3f" % totals["precision"],
            "%.3f" % totals["recall"],
            "%.3f" % totals["f1"],
            "%.3f" % totals["encoding_accuracy"],
            run["tuples"],
            "%.0f" % (run["frames"] / run["seconds"]),
            "%.0f" % (run["tuples"] / run["seconds"]),
        ])
    precision = matched / recovered if recovered else 0.0
    recall = matched / discoverable if discoverable else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    print_table(
        "Discovery accuracy (SYN, {} journeys x 60s)".format(
            len(journey_runs)
        ),
        ["journey", "frames", "prec", "recall", "f1", "enc",
         "tuples", "frames/s", "tuples/s"],
        rows,
    )
    print(
        "fleet micro-average: precision %.3f recall %.3f f1 %.3f"
        % (precision, recall, f1)
    )

    payload = {
        "benchmark": "discovery_accuracy",
        "dataset": "SYN",
        "journeys": len(journey_runs),
        "duration_seconds": 60.0,
        "f1_gate": F1_GATE,
        "micro": {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "encoding_accuracy": (
                encoding_matched / matched if matched else 0.0
            ),
        },
        "runs": journey_runs,
    }
    with open(_BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Hard gate: clean-trace boundary recovery.
    assert f1 >= F1_GATE, "micro F1 %.3f below gate %.2f" % (f1, F1_GATE)


def test_every_journey_recovers_without_spurious_messages(journey_runs):
    for run in journey_runs:
        assert run["totals"]["spurious_messages"] == 0
        assert run["totals"]["recovered"] > 0
