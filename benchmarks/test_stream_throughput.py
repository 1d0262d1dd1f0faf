"""Streaming ingest throughput by session count.

Replays several SYN journeys through :class:`StreamIngestService` and
measures sustained ingest rate (frames/s) and window sealing rate
(sealed windows/s) as the number of vehicle sessions grows,
plus the checkpoint commit latency distribution.

The hard gate is the durability contract the whole subsystem exists
for: a service killed mid-stream and resumed from its committed
checkpoints must finalize to byte-identical ``R_out`` rows as an
uninterrupted run. A throughput number for a stream that loses or
double-counts frames would be meaningless, so the gate runs first.

Results are printed and written to ``BENCH_8.json`` (repo root).
"""

import asyncio
import json
import os

import pytest

from benchmarks.conftest import print_table
from repro.core import PipelineConfig
from repro.datasets import SYN_SPEC, build_dataset
from repro.engine import EngineContext
from repro.obs import MetricsRegistry, stopwatch
from repro.stream import ReplaySource, StreamConfig, StreamIngestService

pytestmark = pytest.mark.slow

_BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_8.json")

DURATION = 20.0
SESSION_COUNTS = (1, 2, 4, 8)
STREAM = StreamConfig(window_seconds=1.0, grace_seconds=0.5,
                      checkpoint_every=500)


def _vehicle(journey):
    bundle = build_dataset(SYN_SPEC, seed_offset=journey)
    records = bundle.byte_records(DURATION)
    config = PipelineConfig(
        catalog=bundle.catalog(),
        constraints=bundle.default_constraints(),
    )
    return records, config


@pytest.fixture(scope="module")
def vehicles():
    return [_vehicle(j) for j in range(max(SESSION_COUNTS))]


def _serve(run_dir, vehicles, metrics=None, max_frames=None):
    ctx = EngineContext.serial(default_parallelism=3)
    service = StreamIngestService(run_dir, STREAM, metrics=metrics)
    for index, (records, config) in enumerate(vehicles):
        service.add_vehicle(
            "veh{}".format(index), ReplaySource(records), config, ctx
        )
    result = asyncio.run(service.serve(max_frames=max_frames))
    return service, result


def _final_rows(service):
    return {
        vehicle_id: sorted(res.r_out.collect(), key=repr)
        for vehicle_id, res in service.finalize_all().items()
    }


def test_stream_throughput(vehicles, tmp_path):
    # -- gate: kill-and-resume byte identity ----------------------------
    clean_service, clean_result = _serve(tmp_path / "clean", vehicles[:2])
    assert not clean_result.killed
    baseline = _final_rows(clean_service)

    kill_at = sum(len(records) for records, _ in vehicles[:2]) // 2
    killed_service, killed_result = _serve(
        tmp_path / "killed", vehicles[:2], max_frames=kill_at
    )
    assert killed_result.killed
    resumed_service, resumed_result = _serve(
        tmp_path / "killed", vehicles[:2]
    )
    assert not resumed_result.killed
    assert _final_rows(resumed_service) == baseline, \
        "kill/resume diverged from the uninterrupted run"

    # -- measured region: serve() by session count -----------------------
    rows = []
    points = []
    for count in SESSION_COUNTS:
        metrics = MetricsRegistry()
        ctx = EngineContext.serial(default_parallelism=3)
        service = StreamIngestService(
            tmp_path / "bench-{}".format(count), STREAM, metrics=metrics
        )
        for index in range(count):
            records, config = vehicles[index]
            service.add_vehicle(
                "veh{}".format(index), ReplaySource(records), config, ctx
            )
        with stopwatch() as watch:
            result = asyncio.run(service.serve())
        assert not result.killed
        counters = metrics.counters()
        frames = counters["stream.frames_received"]
        windows = counters["stream.windows_sealed"]
        checkpoint_hist = metrics.histogram(
            "stream.checkpoint.seconds"
        ).summary()
        point = {
            "sessions": count,
            "frames": frames,
            "windows_sealed": windows,
            "seconds": watch.seconds,
            "frames_per_second": frames / watch.seconds,
            "windows_per_second": windows / watch.seconds,
            "checkpoints": counters["stream.checkpoints"],
            "checkpoint_seconds": checkpoint_hist,
            "late_dropped": counters.get("stream.late_dropped", 0),
        }
        points.append(point)
        rows.append([
            count,
            frames,
            windows,
            "%.2f" % watch.seconds,
            "%.0f" % point["frames_per_second"],
            "%.1f" % point["windows_per_second"],
            point["checkpoints"],
            "%.4f" % (checkpoint_hist.get("p95") or 0.0),
        ])
        # A paced replay of a clean journey must not drop anything.
        assert point["late_dropped"] == 0

    print_table(
        "Streaming ingest throughput (SYN, {}s journeys)".format(DURATION),
        ["sessions", "frames", "windows", "seconds", "frames/s",
         "windows/s", "ckpts", "ckpt p95 s"],
        rows,
    )

    payload = {
        "benchmark": "stream_throughput",
        "dataset": "SYN",
        "duration_seconds": DURATION,
        "stream_config": {
            "window_seconds": STREAM.window_seconds,
            "grace_seconds": STREAM.grace_seconds,
            "checkpoint_every": STREAM.checkpoint_every,
        },
        "kill_resume_byte_identical": True,
        "points": points,
    }
    with open(_BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Sanity: every session's work actually happened.
    for point, count in zip(points, SESSION_COUNTS):
        expected = sum(len(records) for records, _ in vehicles[:count])
        assert point["frames"] == expected
