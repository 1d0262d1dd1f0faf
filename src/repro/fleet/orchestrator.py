"""The fleet run driver: prepare, run, resume, status.

One run directory is one sweep: ``catalog.json`` (the durable
manifest), ``traces/`` (the inputs), ``checkpoints/`` + ``failures/``
(per-job durable state), ``output/`` (the aggregated
:class:`~repro.engine.storage.TableStore` table), ``fleet-summary.json``
(deterministic sweep summary) and ``fleet-report.json`` (the
``repro.fleet/1`` observability report, the only timing-bearing
artifact).

The crash-safety contract: every per-trace job result is checkpointed
atomically *as it lands*, so killing the driver at any instant and
calling :func:`resume` re-runs exactly the jobs whose commits had not
landed and produces final artifacts byte-identical to an uninterrupted
sweep (``output/`` and ``fleet-summary.json``; the report carries wall
times and is exempt). Orchestrator death is modelled the same way task
death is everywhere else in this repo -- a
:class:`~repro.engine.executor.FaultPolicy` rolled at coordinates
``(COMMIT_STAGE, commit_index)`` raises
:class:`~repro.engine.errors.InjectedFaultError` *before* the commit
would land, so tests can kill a sweep after exactly ``k`` checkpoints.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import EngineContext, TableStore
from repro.engine.errors import InjectedFaultError
from repro.engine.storage import atomic_write_bytes
from repro.fleet.catalog import JobCatalog, build_catalog
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.errors import CatalogError, JobError
from repro.fleet.report import FLEET_REPORT_FORMAT, FleetReport
from repro.fleet.workers import run_jobs
from repro.obs import MetricsRegistry, stopwatch

#: Stage name the commit-crash fault policy rolls against; the partition
#: coordinate is the number of commits already landed this process.
COMMIT_STAGE = "fleet.commit"

#: Subdirectory holding simulated/imported trace files.
TRACE_DIR = "traces"

#: TableStore table name of the merged fleet output.
OUTPUT_TABLE = "fleet_r_out"

SUMMARY_FILE = "fleet-summary.json"
REPORT_FILE = "fleet-report.json"


@dataclass
class FleetRunResult:
    """Everything a sweep produced, for callers and tests."""

    run_dir: Path
    catalog: JobCatalog
    statuses: dict  # job_id -> done | cached | failed
    executed: list = field(default_factory=list)
    cached: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # job_id -> failure row
    summary: dict = field(default_factory=dict)
    report: object = None  # FleetReport
    registry: object = None  # MetricsRegistry


def default_params(dataset):
    """The CLI's default parameter document for *dataset*.

    One ``unchanged_within_cycle`` constraint per signal at the signal's
    true cycle time -- the same fallback ``repro pipeline`` applies when
    no ``--params`` file is given.
    """
    from repro.datasets import SPECS, build_dataset

    bundle = build_dataset(SPECS[dataset])
    return {
        "signals": list(bundle.signal_ids),
        "constraints": [
            {
                "signal": s,
                "type": "unchanged_within_cycle",
                "cycle_time": bundle.cycle_times[s],
            }
            for s in bundle.signal_ids
        ],
    }


def prepare_run(run_dir, dataset, num_traces, duration=6.0, params=None,
                trace_format="trc"):
    """Simulate *num_traces* journeys and write the catalog; returns it.

    Each trace is one journey of the data set's vehicle with a distinct
    seed offset (``repro simulate --journey i``), dumped under
    ``run_dir/traces/``. A given *params* document is checked against
    the data set's database first: a bad one raises
    :class:`~repro.core.params.ParameterizationError` before any journey
    is simulated or any file written.
    """
    from repro.core.params import ParameterizationError, config_from_dict
    from repro.datasets import SPECS, build_dataset
    from repro.tracefile import codec_for

    if dataset not in SPECS:
        raise CatalogError("unknown dataset {!r}".format(dataset))
    if num_traces < 1:
        raise CatalogError("num_traces must be >= 1")
    bundle = build_dataset(SPECS[dataset])  # journey 0
    if params is not None:
        try:
            config_from_dict(params, bundle.database)
        except ValueError as exc:  # includes unknown-signal DatabaseError
            raise ParameterizationError(str(exc)) from exc
    run_dir = Path(run_dir)
    trace_dir = run_dir / TRACE_DIR
    trace_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for journey in range(num_traces):
        if journey:
            bundle = build_dataset(SPECS[dataset], seed_offset=journey)
        path = trace_dir / "journey{:04d}.{}".format(journey, trace_format)
        codec_for(path).dump_records(bundle.byte_records(duration), path)
        paths.append(path)
    if params is None:
        params = default_params(dataset)
    catalog = build_catalog(run_dir, paths, dataset, params)
    catalog.save(run_dir)
    return catalog


def make_catalog(run_dir, trace_paths, dataset, params=None):
    """Catalog existing trace files under *run_dir* and persist it."""
    if params is None:
        params = default_params(dataset)
    catalog = build_catalog(run_dir, trace_paths, dataset, params)
    catalog.save(run_dir)
    return catalog


def run(run_dir, workers=1, fault_policy=None, commit_policy=None,
        max_retries=2, retry_backoff=0.01, registry=None):
    """Execute (or continue) the sweep described by ``run_dir``'s catalog.

    One loop over the jobs without a checkpoint (:func:`run_jobs`, at
    most *workers* in flight), committing each outcome as it lands, then
    one aggregate over the checkpoints. Jobs whose checkpoints already
    exist are *cached* (never re-run), so ``run`` after a kill is already
    a resume -- :func:`resume` is the intention-revealing alias.
    Previously-failed jobs get a fresh attempt; their recorded failures
    are cleared on success.

    *fault_policy* injects faults into worker jobs at ``("fleet.job",
    index)``; *commit_policy* injects orchestrator death at
    ``(COMMIT_STAGE, commit_index)`` -- the crash fires *before* that
    commit lands.
    """
    run_dir = Path(run_dir)
    catalog = JobCatalog.load(run_dir)
    store = CheckpointStore(run_dir)
    store.gc()
    obs = registry if registry is not None else MetricsRegistry()
    for name in ("fleet.jobs_executed", "fleet.jobs_cached",
                 "fleet.jobs_checkpointed"):
        obs.counter(name)

    completed = set(store.completed_ids())
    statuses = {}
    jobs = []
    for job in catalog:
        if job.job_id in completed:
            statuses[job.job_id] = "cached"
            obs.inc("fleet.jobs_cached")
            continue
        statuses[job.job_id] = "pending"
        jobs.append({
            "job_id": job.job_id,
            "index": job.index,
            "trace": job.trace,
            "trace_path": str(run_dir / job.trace),
            "dataset": catalog.dataset,
            "params": catalog.params,
        })
    obs.set_gauge("fleet.jobs_total", len(catalog))

    outcomes = run_jobs(
        jobs, workers=workers, fault_policy=fault_policy,
        max_retries=max_retries, retry_backoff=retry_backoff, registry=obs,
    )
    with stopwatch() as watch:
        with closing(outcomes):
            for commits, (job, outcome) in enumerate(outcomes):
                # The crash point: orchestrator death before this commit.
                if commit_policy is not None and commit_policy.crashes_for(
                    COMMIT_STAGE, commits
                ):
                    raise InjectedFaultError(
                        "injected orchestrator crash before commit "
                        "{}".format(commits)
                    )
                if isinstance(outcome, JobError):
                    store.record_failure(job["job_id"], outcome.to_dict())
                    statuses[job["job_id"]] = "failed"
                else:
                    store.save(job["job_id"], outcome)
                    obs.inc("fleet.jobs_checkpointed")
                    obs.inc("fleet.jobs_executed")
                    statuses[job["job_id"]] = "done"
        summary = _aggregate(run_dir, catalog, store)

    executed = [j for j, s in statuses.items() if s == "done"]
    failed = _live_failures(store, catalog)
    obs.set_gauge("fleet.wall_seconds", watch.seconds)
    if watch.seconds > 0:
        obs.set_gauge(
            "fleet.traces_per_second", len(executed) / watch.seconds
        )
        obs.set_gauge(
            "fleet.rows_per_second",
            summary.get("trace_rows", 0) / watch.seconds,
        )
    fleet_report = _build_report(
        run_dir, catalog, store, statuses, failed, obs, workers
    )
    fleet_report.write(run_dir / REPORT_FILE)
    return FleetRunResult(
        run_dir=run_dir,
        catalog=catalog,
        statuses=statuses,
        executed=executed,
        cached=[j for j, s in statuses.items() if s == "cached"],
        failed=failed,
        summary=summary,
        report=fleet_report,
        registry=obs,
    )


def resume(run_dir, **kwargs):
    """Continue a killed sweep: checkpointed jobs are skipped, the rest run.

    Same contract as :func:`run` (which is checkpoint-aware); provided
    as the intention-revealing entry point the CLI's ``fleet resume``
    uses. Raises :class:`CatalogError` if the directory holds no
    catalog.
    """
    return run(run_dir, **kwargs)


def status(run_dir):
    """Inspect a run directory without executing anything.

    Returns ``{"jobs": n, "completed": ..., "failed": ..., "pending":
    ..., "failures": [...]}.``
    """
    run_dir = Path(run_dir)
    catalog = JobCatalog.load(run_dir)
    store = CheckpointStore(run_dir)
    known = set(catalog.job_ids())
    completed = [j for j in store.completed_ids() if j in known]
    failures = _live_failures(store, catalog)
    pending = [
        j for j in catalog.job_ids()
        if j not in set(completed) and j not in failures
    ]
    return {
        "run_dir": str(run_dir),
        "dataset": catalog.dataset,
        "jobs": len(catalog),
        "completed": len(completed),
        "failed": len(failures),
        "pending": len(pending),
        "aggregated": (run_dir / SUMMARY_FILE).is_file(),
        "failures": [
            dict(row, job_id=job_id)
            for job_id, row in sorted(failures.items())
        ],
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _aggregate(run_dir, catalog, store):
    """Fan-in: merge all checkpointed results into the final artifacts.

    Reads *only* durable checkpoints (never in-memory outcome values),
    so an uninterrupted sweep and a kill-plus-resume sweep aggregate
    from bit-identical inputs -- the root of the byte-identical-output
    guarantee. Everything written here is deterministic: rows are merged
    in catalog order into a fixed partitioning, and the summary carries
    no timings.
    """
    payloads = []
    for job in catalog:
        if store.has(job.job_id):
            payloads.append((job, store.load(job.job_id)))
    rows = []
    columns = None
    for job, payload in payloads:
        columns = columns or list(payload["r_columns"])
        rows.extend(
            tuple(r) + (job.trace,) for r in payload["r_rows"]
        )
    if columns is not None:
        context = EngineContext.serial()
        table = context.table_from_rows(
            columns + ["trace"], rows, num_partitions=4
        )
        TableStore(run_dir / "output").write(OUTPUT_TABLE, table)
    failures = _live_failures(store, catalog)
    summary = {
        "format": FLEET_REPORT_FORMAT,
        "dataset": catalog.dataset,
        "jobs": len(catalog),
        "completed": len(payloads),
        "failed": len(failures),
        "trace_rows": sum(p["trace_rows"] for _, p in payloads),
        "rows_out": sum(p["rows_out"] for _, p in payloads),
        "per_trace": [
            {
                "job_id": job.job_id,
                "index": job.index,
                "trace": job.trace,
                "trace_rows": payload["trace_rows"],
                "rows_out": payload["rows_out"],
            }
            for job, payload in payloads
        ],
        "failures": [
            {
                "job_id": job.job_id,
                "index": job.index,
                "trace": job.trace,
                "stage": failures[job.job_id].get("stage"),
            }
            for job in catalog if job.job_id in failures
        ],
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(Path(run_dir) / SUMMARY_FILE, text.encode("utf-8"))
    return summary


def _live_failures(store, catalog):
    """Failure rows of this catalog's jobs that have no checkpoint.

    Drops records of jobs that have since succeeded, or that belong to a
    different catalog generation.
    """
    known = set(catalog.job_ids())
    return {
        job_id: row for job_id, row in store.failures().items()
        if job_id in known and not store.has(job_id)
    }


def _build_report(run_dir, catalog, store, statuses, failed, registry,
                  workers):
    """Assemble the ``repro.fleet/1`` report for this sweep."""
    report = FleetReport()
    report.set_meta(
        run_dir=str(run_dir),
        dataset=catalog.dataset,
        jobs=len(catalog),
        workers=workers,
    )
    report.run.merge_registry(registry)
    for job in catalog:
        status = statuses.get(job.job_id, "pending")
        extra = {}
        if store.has(job.job_id):
            payload = store.load(job.job_id)
            report.merge_job_payload(payload)
            extra = {
                "trace_rows": payload["trace_rows"],
                "rows_out": payload["rows_out"],
            }
        report.add_job_row(
            job.job_id, job.index, job.trace, status, **extra
        )
    for job_id, row in sorted(failed.items()):
        report.add_failure_row(dict(row, job_id=job_id))
    return report
