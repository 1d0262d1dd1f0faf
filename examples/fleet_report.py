"""Fleet-scale batch preprocessing with fault screening.

The outer loop of Fig. 1: a small fleet of SYN vehicles records journeys;
one domain's parameterization is applied to every journey; per-journey
signal tables land in a table store; and a screening pass flags the
journeys whose traces contain injected faults (one vehicle suffers an
ECU brown-out on each drive).

Run with::

    python examples/fleet_report.py
"""

import tempfile

from repro.core import PipelineConfig, PreprocessingPipeline
from repro.core.extension import CycleViolationExtension, ExtensionSet
from repro.datasets import SYN_SPEC
from repro.datasets.fleet import Fleet
from repro.engine import EngineContext, TableStore
from repro.mining import find_cycle_violations
from repro.obs import stopwatch
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.vehicle.faults import MessageDropout, inject
from repro.vehicle.recorder import TraceRecorder

NUM_VEHICLES = 3
JOURNEYS_PER_VEHICLE = 2
JOURNEY_SECONDS = 30.0
FAULTY_VEHICLE = 1


def main():
    fleet = Fleet(
        SYN_SPEC,
        num_vehicles=NUM_VEHICLES,
        journeys_per_vehicle=JOURNEYS_PER_VEHICLE,
    )
    bundle = fleet.reference_bundle
    watch_signal = bundle.alpha_ids[0]
    watch_message = None
    for message in fleet.database.messages:
        if watch_signal in message.signal_names():
            watch_message = message
            break
    cycle = bundle.cycle_times[watch_signal]

    print("fleet: {} vehicles x {} journeys, watching {} (cycle {} s)".format(
        NUM_VEHICLES, JOURNEYS_PER_VEHICLE, watch_signal, cycle
    ))

    # Record all journeys; vehicle 1 gets a dropout fault injected.
    recorder = TraceRecorder()
    refs = fleet.journey_refs()
    journeys = []
    ground_truth = {}
    for ref in refs:
        # Fault injection needs frames (not byte records), so drive the
        # simulation layer directly for each journey.
        from repro.datasets import build_dataset

        sim = build_dataset(SYN_SPEC, seed_offset=ref.seed_offset()).simulation
        frames = sim.run(JOURNEY_SECONDS)
        if ref.vehicle_id == FAULTY_VEHICLE:
            frames, report = inject(
                frames,
                [MessageDropout(
                    watch_message.channel, watch_message.message_id,
                    burst_length=10, num_bursts=1,
                )],
                seed=ref.seed_offset(),
            )
            ground_truth[ref.name] = report.timestamps("dropout")
        journeys.append(recorder.record(frames))

    # One parameterization for the whole fleet.
    config = PipelineConfig(
        catalog=bundle.catalog([watch_signal]),
        extensions=ExtensionSet(
            (CycleViolationExtension(watch_signal, cycle, tolerance=3.0),)
        ),
    )

    ctx = EngineContext.serial()
    pipeline = PreprocessingPipeline(config)
    with tempfile.TemporaryDirectory() as tmp:
        # Lines 3-6 of Algorithm 1 per journey; one stored signal table
        # per journey, named after it.
        store = TableStore(tmp)
        extracted_rows = 0
        with stopwatch() as watch:
            for ref, records in zip(refs, journeys):
                k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), records)
                k_s = pipeline.extract_signals(k_b, cache=False)
                extracted_rows += store.write(ref.name, k_s)["num_rows"]
        print("\nbatch extraction:", {
            "journeys": len(store.list_tables()),
            "trace_rows": sum(map(len, journeys)),
            "extracted_rows": extracted_rows,
            "seconds": round(watch.seconds, 3),
        })

        print("\nscreening for cycle violations per journey:")
        flagged = []
        for ref, records in zip(refs, journeys):
            k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), records)
            result = pipeline.run(k_b)
            violations = [
                v for v in find_cycle_violations(result) if v.factor > 3.0
            ]
            marker = ""
            if violations:
                flagged.append(ref.name)
                marker = "  <-- {} violation(s), worst {:.1f}x".format(
                    len(violations), violations[0].factor
                )
            print("  {}: {} rows{}".format(
                ref.name, len(records), marker
            ))

        print("\nflagged journeys : {}".format(flagged))
        print("ground truth     : {}".format(sorted(ground_truth)))
        hit = set(flagged) == set(ground_truth)
        print("screening {} the injected faults".format(
            "exactly matches" if hit else "differs from"
        ))


if __name__ == "__main__":
    main()
