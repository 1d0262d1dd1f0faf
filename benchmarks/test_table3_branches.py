"""Table 3: classification + type-dependent processing throughput.

Verifies at volume that sequences engineered for each row of Table 3 are
classified into the right branch and measures the per-branch
homogenization throughput (outliers -> smoothing -> SWAB -> SAX for α;
translation + gradient for β; relabelling for γ).
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import classify
from repro.core.branches import process_branch
from repro.core.sequence import order_rows

N = 5_000


def make_sequence(row):
    """Synthesize (times, values) for one Table 3 configuration."""
    rng = np.random.default_rng(42)
    if row == "numeric_high":
        times = [0.01 * i for i in range(N)]
        values = list(
            np.sin(np.linspace(0, 60, N)) * 50 + 100 + rng.normal(0, 0.5, N)
        )
    elif row == "numeric_low":
        times = [5.0 * i for i in range(N // 10)]
        values = list((np.arange(N // 10) % 17).astype(float))
    elif row == "string_ordinal":
        times = [0.5 * i for i in range(N // 5)]
        values = (["low", "medium", "high", "medium"] * N)[: N // 5]
    elif row == "string_binary":
        times = [0.5 * i for i in range(N // 5)]
        values = (["ON", "OFF"] * N)[: N // 5]
    elif row == "string_nominal":
        times = [0.5 * i for i in range(N // 5)]
        values = (["driving", "parking", "standby"] * N)[: N // 5]
    else:  # numeric_binary
        times = [0.5 * i for i in range(N // 5)]
        values = ([0, 1] * N)[: N // 5]
    return times, values


EXPECTED = {
    "numeric_high": ("numeric", "alpha"),
    "numeric_low": ("ordinal", "beta"),
    "string_ordinal": ("ordinal", "beta"),
    "string_binary": ("binary", "gamma"),
    "string_nominal": ("nominal", "gamma"),
    "numeric_binary": ("binary", "gamma"),
}


@pytest.mark.parametrize("row", sorted(EXPECTED))
def test_table3_branch(benchmark, row):
    times, values = make_sequence(row)
    rows = [(t, v, "s", "FC") for t, v in zip(times, values)]
    sequence = order_rows(rows)

    def classify_and_process():
        classification = classify(sequence.t, sequence.v)
        out = process_branch(sequence, classification)
        return classification, out

    classification, out = benchmark.pedantic(
        classify_and_process, rounds=1, iterations=1
    )
    expected_type, expected_branch = EXPECTED[row]

    print_table(
        "Table 3 row '{}'".format(row),
        ["criterion", "value"],
        [
            ("z_type", classification.criteria.z_type),
            ("z_rate", classification.criteria.z_rate),
            ("z_num", classification.criteria.z_num),
            ("z_val", classification.criteria.z_val),
            ("data type", classification.data_type),
            ("branch", classification.branch),
            ("input rows", len(rows)),
            ("output rows", len(out)),
        ],
    )
    assert classification.data_type == expected_type
    assert classification.branch == expected_branch
    assert out
    # Homogeneous layout regardless of branch.
    assert all(len(r) == 6 for r in out)
