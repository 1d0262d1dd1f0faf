"""Where per-trace pipeline jobs execute: :func:`run_jobs`.

``workers <= 1`` runs each job in the driver; ``workers > 1`` ships jobs
to a pool of forked worker processes, with at most ``workers`` jobs in
flight. This is the repository's one process pool: parallelism is per
journey, and the engine runs each journey in its worker (DESIGN.md).

Failure isolation is the point of this layer: one trace's crash or
poisoned input is *contained to its job*. Every job runs through the
engine's one attempt loop, :func:`~repro.engine.executor.run_attempts`:
injected faults (a :class:`~repro.engine.executor.FaultPolicy` at fleet
coordinates ``("fleet.job", index)``) model transient worker loss and
are retried with exponential backoff; genuine exceptions fail the job
immediately. Either way the job yields a structured
:class:`~repro.fleet.errors.JobError` naming the trace and stage, and
the sweep continues. An error the driver could not unpickle comes back
from a worker as an :class:`~repro.engine.errors.ExecutionError` naming
it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue

from repro.engine.errors import ExecutionError
from repro.engine.executor import count_attempts, run_attempts
from repro.fleet.errors import JobError
from repro.obs import MetricsRegistry

#: Stage name fault policies roll against for fleet jobs; the partition
#: coordinate is the job's catalog index, so tests can target one trace.
JOB_STAGE = "fleet.job"


def execute_trace_job(payload):
    """Run Algorithm 1 over one trace file; returns a checkpoint payload.

    Module-level (picklable) so the process-pool runner can ship it to
    workers. The payload dict carries everything needed to run
    self-contained in a fresh process: the absolute trace path, the
    dataset name and the declarative parameter document. The returned
    dict is plain data (rows, counts, the report's dict form) -- exactly
    what gets checkpointed and what the aggregation job consumes.
    """
    from repro.core.params import config_from_dict
    from repro.core.pipeline import PreprocessingPipeline
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext
    from repro.tracefile import codec_for

    bundle = build_dataset(SPECS[payload["dataset"]])
    config = config_from_dict(payload["params"], bundle.database)
    context = EngineContext.serial()
    k_b = codec_for(payload["trace_path"]).load_table(
        context, payload["trace_path"]
    )
    result = PreprocessingPipeline(config).run(k_b)
    return {
        "job_id": payload["job_id"],
        "index": payload["index"],
        "trace": payload["trace"],
        "trace_rows": k_b.count(),
        "rows_out": result.counts["r_out"],
        "r_columns": list(result.r_out.columns),
        "r_rows": result.r_out.collect(),
        "counts": dict(result.counts),
        "classification": {
            s_id: list(pair)
            for s_id, pair in result.classification_summary().items()
        },
        "stage_seconds": dict(result.timings),
        "report": result.report.to_dict(),
    }


def run_jobs(jobs, fn=execute_trace_job, workers=1, fault_policy=None,
             max_retries=2, retry_backoff=0.01, registry=None):
    """Run ``fn(job)`` for every job; yield ``(job, value | JobError)``.

    A job is a payload dict carrying at least ``job_id``, ``index`` and
    ``trace``. Outcomes are yielded in completion order: catalog order
    for ``workers <= 1`` (run in the driver), whichever job lands first
    otherwise. A pool
    holds at most ``workers`` jobs at once and gets the next one as
    soon as one lands, before the caller sees the outcome. Closing the
    generator early (the caller crashed) terminates the pool.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    obs = registry if registry is not None else MetricsRegistry()
    for name in ("fleet.jobs_run", "fleet.jobs_failed",
                 "fleet.job_retries", "fleet.faults_injected"):
        obs.counter(name)

    def settle(job, outcome):
        value, error, attempts, seconds = outcome
        count_attempts(obs, outcome, "fleet.job_retries",
                       "fleet.faults_injected")
        obs.observe("fleet.job_seconds", seconds)
        if error is None:
            obs.inc("fleet.jobs_run")
            return value
        obs.inc("fleet.jobs_failed")
        return _job_error(job, error, attempts)

    args = (fault_policy, JOB_STAGE)
    budget = (max_retries, retry_backoff)
    if workers <= 1:
        for job in jobs:
            yield job, settle(
                job, run_attempts(fn, job, *args, job["index"], *budget)
            )
        return

    landed = queue.SimpleQueue()
    pending = iter(jobs)
    pool = multiprocessing.get_context("fork").Pool(processes=workers)

    def submit():
        job = next(pending, None)
        if job is None:
            return 0
        try:
            pickle.dumps(job)
        except Exception as exc:
            raise ExecutionError(
                "fleet job {!r} payload is not picklable: {}".format(
                    job.get("job_id"), exc
                ),
                exc,
            )
        pool.apply_async(
            _run_in_worker, (fn, job, *args, job["index"], *budget),
            callback=lambda outcome: landed.put((job, outcome)),
            # The pool itself failed the job (e.g. an unpicklable result).
            error_callback=lambda exc: landed.put((job, (None, exc, 1, 0.0))),
        )
        return 1

    try:
        inflight = sum(submit() for _ in range(workers))
        while inflight:
            job, outcome = landed.get()
            inflight += submit() - 1
            yield job, settle(job, outcome)
    finally:
        pool.terminate()
        pool.join()


def _run_in_worker(*args):
    """:func:`run_attempts` in a pool worker, with an error the driver
    can rebuild."""
    value, error, attempts, seconds = run_attempts(*args)
    if error is not None and not _rebuildable(error, set()):
        error = ExecutionError(
            "{}: {}".format(type(error).__name__, error)
        )
    return value, error, attempts, seconds


def _rebuildable(exc, seen):
    """Whether the driver can unpickle *exc*: an exception comes back as
    ``type(exc)(*exc.args)`` plus its attributes, and one whose class
    rejects its own args (or holds such a cause) would stop the pool's
    result thread, leaving the sweep waiting forever."""
    if id(exc) in seen:
        return True
    seen.add(id(exc))
    try:
        type(exc)(*exc.args)
    except Exception:
        return False
    return all(
        _rebuildable(value, seen)
        for value in getattr(exc, "__dict__", {}).values()
        if isinstance(value, BaseException)
    )


def _job_error(job, exc, attempts):
    stage = getattr(exc, "stage", None) or JOB_STAGE
    return JobError(
        "job {!r} (trace {!r}) failed after {} attempt(s) in stage "
        "{!r}: {}".format(job["job_id"], job["trace"], attempts, stage, exc),
        job_id=job["job_id"],
        trace=job["trace"],
        stage=stage,
        attempts=attempts,
        cause=exc,
    )


__all__ = ["JOB_STAGE", "execute_trace_job", "run_jobs"]
