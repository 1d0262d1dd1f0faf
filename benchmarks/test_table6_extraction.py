"""Table 6: signal extraction times, proposed vs in-house tool.

The paper extracts a fixed signal set from growing numbers of journeys:

    ========  ==========  =========  ========  ========  ========
    journeys  trace rows  extracted  #signals  proposed  in-house
    ========  ==========  =========  ========  ========  ========
       1        0.481e9    12.75e6       9       9.58 m    41.66 m
       1        0.481e9    79.47e6      89     168.05 m    41.66 m
       7        4.286e9    94.01e6       9      62.00 m   372.88 m
       7        4.286e9   586.12e6      89     183.25 m   372.88 m
      12        5.901e9   133.62e6       9      87.62 m   504.27 m
      12        5.901e9   833.07e6      89     269.65 m   504.27 m
    ========  ==========  =========  ========  ========  ========

Measured protocol, scaled to this reproduction (1, 3 and 7 journeys of
the SYN vehicle; "few" = 3 of 13 signals, "all" = 13 signals):

* proposed = preselection + interpretation + writing the result tables
  to the store, one :func:`repro.fleet.workers.run_jobs` job per journey
  on ``min(journeys, os.cpu_count())`` worker processes -- the paper's
  cluster parallelism over journeys, measured on this machine's cores;
* in-house  = sequential ingest (interpretation of every known signal on
  ingest) of the same journeys.

Asserted shape (the paper's findings):

1. in-house time is independent of how many signals are extracted;
2. in-house time scales linearly with the number of journeys;
3. proposed time grows with the number of extracted signals;
4. for few signals over several journeys the proposed approach wins;
5. the proposed advantage shrinks (or flips) when all signals are
   extracted -- the Table 6 crossover.
"""

import os

import pytest

from benchmarks.conftest import (
    JOURNEYS,
    best_of,
    extract_journeys,
    print_table,
)
from repro.baseline import InHouseTool
from repro.datasets import SYN_SPEC

JOURNEY_COUNTS = (1, 3, JOURNEYS)


def proposed_extraction(journeys, database, signal_ids):
    """Proposed pipeline: returns (wall seconds, extracted rows)."""
    seconds, outputs = extract_journeys(
        journeys, database, signal_ids,
        workers=min(len(journeys), os.cpu_count()),
    )
    return seconds, sum(rows for rows, _digest in outputs)


def inhouse_extraction(journeys, database, signal_ids):
    """Baseline: returns (seconds, extracted rows). Ingest dominates."""
    def run():
        tool = InHouseTool(database)
        tool.ingest_journeys(journeys)
        return sum(len(v) for v in tool.extract(signal_ids).values())

    return best_of(run)


@pytest.fixture(scope="module")
def measured(journeys_syn):
    from repro.datasets import build_dataset

    bundle = build_dataset(SYN_SPEC)
    database = bundle.database
    few = list(bundle.alpha_ids[:3])
    all_signals = list(bundle.signal_ids)
    rows = []
    for journey_count in JOURNEY_COUNTS:
        journeys = journeys_syn[:journey_count]
        trace_rows = sum(len(j) for j in journeys)
        for label, signal_ids in (("few", few), ("all", all_signals)):
            proposed_s, extracted = proposed_extraction(
                journeys, database, signal_ids
            )
            inhouse_s, _n = inhouse_extraction(journeys, database, signal_ids)
            rows.append(
                {
                    "journeys": journey_count,
                    "trace_rows": trace_rows,
                    "signals": label,
                    "num_signals": len(signal_ids),
                    "extracted": extracted,
                    "proposed": proposed_s,
                    "inhouse": inhouse_s,
                }
            )
    return rows


def test_table6_report(benchmark, measured):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "Table 6 -- extraction time, proposed (one job per journey on "
        "up to {} worker processes) vs in-house (sequential)".format(
            os.cpu_count()),
        [
            "journeys", "trace rows", "extracted rows", "# signals",
            "proposed [s]", "in-house [s]", "speedup",
        ],
        [
            (
                r["journeys"],
                r["trace_rows"],
                r["extracted"],
                r["num_signals"],
                round(r["proposed"], 3),
                round(r["inhouse"], 3),
                round(r["inhouse"] / r["proposed"], 2),
            )
            for r in measured
        ],
    )
    assert len(measured) == 2 * len(JOURNEY_COUNTS)


def _cell(measured, journeys, signals):
    return next(
        r
        for r in measured
        if r["journeys"] == journeys and r["signals"] == signals
    )


class TestTable6Shape:
    """Each test notes a finding; the trivial benchmark call keeps them
    runnable under --benchmark-only."""

    def test_inhouse_independent_of_signal_count(self, benchmark, measured):
        """Finding 1: ingest interprets everything regardless."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for journeys in JOURNEY_COUNTS:
            few = _cell(measured, journeys, "few")["inhouse"]
            all_s = _cell(measured, journeys, "all")["inhouse"]
            assert all_s == pytest.approx(few, rel=0.35)

    def test_inhouse_linear_in_journeys(self, benchmark, measured):
        """Finding 2: 3x the journeys ~ 3x the ingest time."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        one = _cell(measured, 1, "few")["inhouse"]
        three = _cell(measured, 3, "few")["inhouse"]
        assert three / one == pytest.approx(3.0, rel=0.5)

    def test_proposed_grows_with_signal_count(self, benchmark, measured):
        """Finding 3: more extracted rows, more interpretation work."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for journeys in JOURNEY_COUNTS:
            few = _cell(measured, journeys, "few")
            all_s = _cell(measured, journeys, "all")
            assert all_s["extracted"] > few["extracted"]
        # Time comparison on the multi-journey cells, where the signal
        # grows well above measurement jitter.
        few = _cell(measured, 3, "few")
        all_s = _cell(measured, 3, "all")
        assert all_s["proposed"] > few["proposed"]

    def test_proposed_wins_for_few_signals_many_journeys(self, benchmark, measured):
        """Finding 4: the paper's headline 5.7x cell (9 signals,
        12 journeys); here 3 of 13 signals over 3 journeys."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        cell = _cell(measured, 3, "few")
        speedup = cell["inhouse"] / cell["proposed"]
        assert speedup > 1.5

    def test_crossover_direction(self, benchmark, measured):
        """Finding 5: extracting every signal erodes the advantage --
        the speedup for 'all' must be smaller than for 'few'."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        few = _cell(measured, 3, "few")
        all_s = _cell(measured, 3, "all")
        speedup_few = few["inhouse"] / few["proposed"]
        speedup_all = all_s["inhouse"] / all_s["proposed"]
        assert speedup_all < speedup_few
