"""Fleet-scale signal extraction: proposed pipeline vs in-house tool.

A small-scale rendition of the paper's Table 6: several journeys of the
SYN vehicle are recorded; a handful of signals ("per domain usually
between 9 and 100 signals are extracted") are pulled out of every
journey, once with the distributed pipeline (preselect + interpret +
write to the table store, measured like the paper measures it) and once
with the sequential in-house tool (which must ingest-and-interpret every
known signal of every row).

Run with::

    python examples/fleet_extraction.py
"""

import tempfile
import time

from repro.baseline import InHouseTool
from repro.core import PipelineConfig, PreprocessingPipeline
from repro.datasets import SYN_SPEC, build_dataset
from repro.engine import EngineContext, TableStore
from repro.protocols.frames import BYTE_RECORD_COLUMNS

NUM_JOURNEYS = 3
JOURNEY_SECONDS = 60.0
FEW_SIGNALS = 3


def main():
    print("generating {} journeys of {} s each ...".format(
        NUM_JOURNEYS, JOURNEY_SECONDS
    ))
    bundles = [
        build_dataset(SYN_SPEC, seed_offset=j) for j in range(NUM_JOURNEYS)
    ]
    journeys = [b.byte_records(JOURNEY_SECONDS) for b in bundles]
    total_rows = sum(len(j) for j in journeys)
    database = bundles[0].database
    few = list(bundles[0].alpha_ids[:FEW_SIGNALS])
    print("total trace rows: {}".format(total_rows))

    # --- Proposed: distributed extraction + write to the store --------
    # The cluster is modelled by the measured-makespan executor (see
    # DESIGN.md): tasks run serially, and the executor estimates the
    # wall time 10 workers would need. Only the single-process wall time
    # is measured, so only it enters the speedup below.
    ctx = EngineContext.simulated_cluster(num_workers=10)
    with tempfile.TemporaryDirectory() as tmp:
        store = TableStore(tmp)
        catalog = database.translation_catalog(few)
        pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))
        tables = [
            ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), journey).cache()
            for journey in journeys
        ]
        ctx.executor.reset_clock()
        start = time.perf_counter()
        extracted_rows = 0
        for index, k_b in enumerate(tables):
            k_s = pipeline.extract_signals(k_b, cache=False)
            manifest = store.write("journey_{:02d}".format(index), k_s)
            extracted_rows += manifest["num_rows"]
        proposed_wall = time.perf_counter() - start
        proposed_seconds = ctx.executor.simulated_seconds
        stored = store.list_tables()

    print("\nproposed pipeline ({} signals):".format(len(few)))
    print("  extracted rows          : {}".format(extracted_rows))
    print("  stored tables           : {}".format(stored))
    print("  single-core wall time   : {:.2f} s".format(proposed_wall))
    print("  10-worker cluster time  : {:.2f} s (modelled makespan, not "
          "measured)".format(proposed_seconds))

    # --- Baseline: sequential ingest-then-extract ----------------------
    tool = InHouseTool(database)
    start = time.perf_counter()
    tool.ingest_journeys(journeys)
    extracted = tool.extract(few)
    inhouse_seconds = time.perf_counter() - start
    print("\nin-house tool (must interpret ALL {} signals):".format(
        len(database.alphabet())
    ))
    print("  rows scanned        : {}".format(tool.stats.rows_scanned))
    print("  signals interpreted : {}".format(tool.stats.signals_interpreted))
    print("  extracted rows      : {}".format(
        sum(len(v) for v in extracted.values())
    ))
    print("  extraction time     : {:.2f} s".format(inhouse_seconds))

    print("\nspeedup of the proposed approach: {:.2f}x (measured, both in "
          "one process)".format(inhouse_seconds / proposed_wall))
    print("(the paper reports 5.7x for 9 signals / 12 journeys on its "
          "cluster; shape, not absolute numbers, is what transfers)")


if __name__ == "__main__":
    main()
