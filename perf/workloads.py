"""The four workloads: input generation, the timed operation, its outcome.

Every workload is a closed loop of one client: the next operation
starts when the previous one has been checked. Each operation builds a
fresh ``EngineContext.serial()`` -- the context the CLI and
``repro.fleet.workers`` use -- so executor counters read as per-operation
values.

A workload is three functions over plain data:

* :func:`prepare` (set-up, parent process) simulates the journeys for a
  seed, dumps the trace files and computes an independent reference with
  ``repro.baseline.InHouseTool``; it returns a JSON manifest;
* ``Workload.run`` (the timed region, measuring process) goes from the
  trace *file* to the last collected result row;
* ``Workload.describe`` (untimed) turns what ``run`` returned into an
  :class:`Outcome`: result rows for the digest plus the counters the
  program itself exposes (``PipelineResult``, ``executor.metrics``,
  the stream ``MetricsRegistry``).
"""

from __future__ import annotations

import asyncio
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.baseline import InHouseTool
from repro.core import PipelineConfig, PreprocessingPipeline
from repro.core.splitting import split_signal_types
from repro.datasets import SPECS, build_dataset
from repro.engine import EngineContext, TableStore
from repro.obs import MetricsRegistry
from repro.stream import ReplaySource, StreamConfig, StreamIngestService
from repro.tracefile import codec_for

#: Simulated seconds per trace under ``--smoke``.
SMOKE_DURATION = 5.0

#: As BENCH_8: 1 s windows, 0.5 s grace, a snapshot every 500 frames.
STREAM_CONFIG = StreamConfig(
    window_seconds=1.0, grace_seconds=0.5, checkpoint_every=500
)

_ENGINE_COUNTERS = (
    "tasks_run", "shuffles", "rows_shuffled", "columnar_tasks",
    "columnar_fallbacks", "kernel_fallbacks", "columnar_exchange_bytes",
)


@dataclass
class Outcome:
    """What one operation produced, as far as the program reports it."""

    rows: list  # result rows, hashed by :func:`digest`
    signal_ids: set  # signal types present in the result
    out_rows: int
    reduced_rows: int
    signal_groups: int
    tracefile_bytes: int
    engine: dict  # executor counters of this operation
    k_pre_rows: int  # as the program reports them; where it does not
    k_s_rows: int  # (extract, stream), the reference's counts
    timings: dict = field(default_factory=dict)  # PipelineResult.timings
    store_bytes: int = 0
    stream: dict = field(default_factory=dict)  # stream.* registry values


@dataclass
class State:
    """Per-process inputs of a workload, rebuilt from the manifest."""

    paths: list
    configs: list  # one PipelineConfig per trace file
    signal_ids: list  # sorted catalog signal ids
    manifest: dict  # what :func:`prepare` returned


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key of repro.datasets.SPECS
    duration: float  # simulated seconds per vehicle
    vehicles: int
    suffix: str  # trace format: ``codec_for`` picks the codec from it
    run: object  # (state, scratch dir) -> raw; the timed region
    describe: object  # (state, raw) -> Outcome; untimed
    #: The result rows are all of ``K_s``, so they must equal the
    #: reference decode row for row.
    stores_k_s: bool = False


def digest(rows):
    """sha256 of the canonically sorted rows (``repr``-keyed, as BENCH_8)."""
    text = "\n".join(sorted(map(repr, rows)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _engine_counters(context):
    metrics = context.executor.metrics
    return {name: getattr(metrics, name) for name in _ENGINE_COUNTERS}


# -- batch_syn / batch_lig -----------------------------------------------
def _load_table(context, path):
    """File -> ``K_b`` the way ``repro.fleet.workers`` do it."""
    return codec_for(path).load_table(context, path)


def _run_batch(state, _scratch):
    context = EngineContext.serial()
    k_b = _load_table(context, state.paths[0])
    result = PreprocessingPipeline(state.configs[0]).run(k_b)
    return context, result, result.r_out.collect()


def _describe_batch(state, raw):
    context, result, rows = raw
    outcomes = result.outcomes.values()
    return Outcome(
        rows=rows,
        signal_ids={row[1] for row in rows},
        out_rows=len(rows),
        reduced_rows=sum(o.rows_after_reduction for o in outcomes),
        signal_groups=sum(max(len(o.groups), 1) for o in outcomes),
        tracefile_bytes=state.manifest["file_bytes"],
        engine=_engine_counters(context),
        k_pre_rows=result.counts["k_pre"],
        k_s_rows=result.counts["k_s"],
        timings=dict(result.timings),
    )


# -- extract_syn ---------------------------------------------------------
def _run_extract(state, scratch):
    context = EngineContext.serial()
    store = TableStore(scratch / "store")
    k_b = _load_table(context, state.paths[0])
    k_s = PreprocessingPipeline(state.configs[0]).extract_signals(k_b)
    groups = split_signal_types(k_s, state.signal_ids)
    for s_id, table in groups.items():
        store.write(s_id, table)
    stored = {
        s_id: store.read(context, s_id).count() for s_id in groups
    }
    return context, store, stored


def _describe_extract(state, raw):
    context, store, stored = raw
    engine = _engine_counters(context)
    # A second context, so re-reading the rows for the digest does not
    # count as work of the operation.
    reader = EngineContext.serial()
    rows = [
        row for s_id in stored for row in store.read(reader, s_id).collect()
    ]
    out_rows = sum(stored.values())
    return Outcome(
        rows=rows,
        signal_ids={s_id for s_id, count in stored.items() if count},
        out_rows=out_rows,
        reduced_rows=out_rows,
        signal_groups=len(stored),
        tracefile_bytes=state.manifest["file_bytes"],
        engine=engine,
        k_pre_rows=state.manifest["k_pre_rows"],
        k_s_rows=out_rows,
        store_bytes=_tree_bytes(store.root),
    )


def _tree_bytes(root):
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# -- stream_syn ----------------------------------------------------------
def _run_stream(state, scratch):
    sources = [
        ReplaySource(codec_for(p).load_records(p)) for p in state.paths
    ]
    context = EngineContext.serial()
    service = StreamIngestService(
        scratch / "stream", STREAM_CONFIG, metrics=MetricsRegistry()
    )
    for index, (source, config) in enumerate(zip(sources, state.configs)):
        service.add_vehicle("veh{}".format(index), source, config, context)
    served = asyncio.run(service.serve())
    final = service.finalize_all()
    rows = [
        (vehicle_id,) + tuple(row)
        for vehicle_id, result in final.items()
        for row in result.r_out.collect()
    ]
    return context, service, served, final, rows


def _describe_stream(state, raw):
    context, service, served, final, rows = raw
    if served.killed:
        raise RuntimeError("stream service reported a killed run")
    counters = service.metrics.counters()
    commits = service.metrics.histogram("stream.checkpoint.seconds")
    reduced = sum(
        len(entry["reduced_rows"])
        for session in service.sessions.values()
        for entry in session.runner.export_state()["states"].values()
    )
    return Outcome(
        rows=rows,
        signal_ids={row[2] for row in rows},
        out_rows=len(rows),
        reduced_rows=reduced,
        signal_groups=sum(len(r.classifications) for r in final.values()),
        tracefile_bytes=state.manifest["file_bytes"],
        engine=_engine_counters(context),
        k_pre_rows=state.manifest["k_pre_rows"],
        k_s_rows=state.manifest["k_s_rows"],
        stream={
            "frames_received": counters["stream.frames_received"],
            "checkpoints": counters["stream.checkpoints"],
            "windows_sealed": counters["stream.windows_sealed"],
            "late_dropped": counters.get("stream.late_dropped", 0),
            "checkpoint_p50_s": commits.percentile(50),
            "checkpoint_p90_s": commits.percentile(90),
        },
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("batch_syn", "SYN", 30.0, 1, ".ctrc",
                 _run_batch, _describe_batch),
        Workload("batch_lig", "LIG", 8.0, 1, ".btrc",
                 _run_batch, _describe_batch),
        Workload("extract_syn", "SYN", 100.0, 1, ".ctrc",
                 _run_extract, _describe_extract, stores_k_s=True),
        Workload("stream_syn", "SYN", 12.0, 2, ".btrc",
                 _run_stream, _describe_stream),
    )
}


# -- set-up --------------------------------------------------------------
def _bundle(workload, seed_offset):
    return build_dataset(SPECS[workload.dataset], seed_offset=seed_offset)


def prepare(workload, seed, directory, smoke=False):
    """Simulate, dump and reference-decode the inputs of one run.

    Vehicle ``i`` is journey ``build_dataset(spec, seed_offset=seed+i)``.
    The reference is the single-pass ``InHouseTool`` decode of the same
    records: row counts and signal ids for every workload, and the
    digest of all ``K_s`` rows, which ``extract_syn`` must reproduce.
    """
    directory = Path(directory)
    duration = SMOKE_DURATION if smoke else workload.duration
    files = []
    for index in range(workload.vehicles):
        bundle = _bundle(workload, seed + index)
        records = bundle.byte_records(duration)
        path = str(directory / "{}-{}{}".format(
            workload.name, index, workload.suffix
        ))
        codec_for(path).dump_records(records, path)
        entry = _reference(bundle, records)
        entry.update(
            path=path, seed_offset=seed + index,
            frames=len(records), bytes=os.path.getsize(path),
        )
        files.append(entry)
    inhouse_seconds = sum(f.pop("inhouse_seconds") for f in files)
    frames = sum(f["frames"] for f in files)
    return {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "dataset": workload.dataset,
        "duration_s": duration,
        "vehicles": workload.vehicles,
        "frames": frames,
        "file_bytes": sum(f["bytes"] for f in files),
        "k_pre_rows": sum(f["k_pre_rows"] for f in files),
        "k_s_rows": sum(f["k_s_rows"] for f in files),
        "signal_ids": sorted({s for f in files for s in f["signal_ids"]}),
        "inhouse_frames_per_s": frames / inhouse_seconds,
        "files": files,
    }


def _reference(bundle, records):
    catalog = bundle.catalog()
    keys = catalog.preselection_keys()
    tool = InHouseTool(bundle.database)
    stats = tool.ingest(records)
    extracted = tool.extract(sorted(set(catalog.signal_ids())))
    return {
        "k_pre_rows": sum(1 for r in records if (r[3], r[2]) in keys),
        "k_s_rows": sum(len(rows) for rows in extracted.values()),
        "signal_ids": sorted(s for s, rows in extracted.items() if rows),
        "k_s_digest": digest(
            (t, v, s_id, b_id)
            for s_id, rows in extracted.items() for t, v, b_id in rows
        ),
        "inhouse_seconds": stats.seconds,
    }


def open_state(workload, manifest):
    """Rebuild the parameterization in the measuring process."""
    configs = []
    for entry in manifest["files"]:
        bundle = _bundle(workload, entry["seed_offset"])
        configs.append(PipelineConfig(
            catalog=bundle.catalog(),
            constraints=bundle.default_constraints(),
        ))
    return State(
        paths=[entry["path"] for entry in manifest["files"]],
        configs=configs,
        signal_ids=sorted(set(configs[0].catalog.signal_ids())),
        manifest=manifest,
    )
