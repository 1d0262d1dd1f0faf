"""Where per-trace pipeline jobs execute: :func:`run_jobs`.

``workers <= 1`` runs each job in the driver; ``workers > 1`` forks one
worker process per job, with at most ``workers`` of them alive at once.
This is the repository's one process boundary: parallelism is per
journey, and the engine runs each journey in its worker (DESIGN.md).

Failure isolation is the point of this layer: one trace's crash or
poisoned input is *contained to its job*. Every job runs once. Its
exception, a worker that dies before sending a result, or a result the
driver cannot unpickle each yield a structured
:class:`~repro.fleet.errors.JobError` naming the trace and stage, and the
sweep continues.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from multiprocessing.connection import wait

# Imported here, not in the job, so a forked worker starts with them.
from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.datasets import SPECS, build_dataset
from repro.engine import EngineContext
from repro.engine.errors import ExecutionError
from repro.fleet.errors import JobError
from repro.obs import MetricsRegistry, stopwatch
from repro.tracefile import codec_for

#: The stage a job's failure names when no step of it reported one: a
#: worker that died, a result the driver could not read, an error
#: before the trace is opened.
JOB_STAGE = "fleet.job"


class StepError(Exception):
    """A step of a job raised *cause*; *step* names the step. It crosses
    the worker boundary as its two arguments, and :func:`run_jobs`
    unwraps it into the failure's stage and cause."""

    def __init__(self, step, cause):
        super().__init__(step, cause)
        self.step, self.cause = step, cause


@contextmanager
def step(name):
    """Run the body as the job step *name*: what it raises fails the
    job in stage *name*."""
    try:
        yield
    except Exception as exc:
        raise StepError(name, exc) from None


def execute_trace_job(payload):
    """Run Algorithm 1 over one trace file; returns a checkpoint payload.

    The payload dict carries everything needed to run self-contained in
    a worker process: the absolute trace path, the dataset name and the
    declarative parameter document. The returned dict is plain data
    (rows, counts, the report's dict form) -- exactly what gets
    checkpointed and what the aggregation job consumes. A failure names
    the step that raised: ``load`` (the trace codec) or ``pipeline``
    (Algorithm 1).
    """
    bundle = build_dataset(SPECS[payload["dataset"]])
    config = config_from_dict(payload["params"], bundle.database)
    context = EngineContext.serial()
    with step("load"):
        k_b = codec_for(payload["trace_path"]).load_table(
            context, payload["trace_path"]
        )
    with step("pipeline"):
        result = PreprocessingPipeline(config).run(k_b)
        r_rows = result.r_out.collect()
    return {
        "job_id": payload["job_id"],
        "index": payload["index"],
        "trace": payload["trace"],
        "trace_rows": k_b.count(),
        "rows_out": result.counts["r_out"],
        "r_columns": list(result.r_out.columns),
        "r_rows": r_rows,
        "counts": dict(result.counts),
        "classification": {
            s_id: list(pair)
            for s_id, pair in result.classification_summary().items()
        },
        "stage_seconds": dict(result.timings),
        "report": result.report.to_dict(),
    }


def run_jobs(jobs, fn=execute_trace_job, workers=1, registry=None):
    """Run ``fn(job)`` once for every job; yield ``(job, value | JobError)``.

    A job is a payload dict carrying at least ``job_id``, ``index`` and
    ``trace``. Outcomes are yielded in completion order: catalog order
    for ``workers <= 1`` (run in the driver), whichever job lands first
    otherwise. At most ``workers`` worker processes are alive, one per
    job; the next job's worker starts as soon as one lands, before the
    caller sees the outcome. Closing the generator early (the caller
    crashed) kills the workers still running.
    """
    obs = registry if registry is not None else MetricsRegistry()
    for name in ("fleet.jobs_run", "fleet.jobs_failed"):
        obs.counter(name)

    def settle(job, outcome):
        value, error, seconds = outcome
        obs.observe("fleet.job_seconds", seconds)
        if error is None:
            obs.inc("fleet.jobs_run")
            return value
        obs.inc("fleet.jobs_failed")
        return _job_error(job, error)

    if workers <= 1:
        for job in jobs:
            yield job, settle(job, _attempt(fn, job))
        return

    fork = multiprocessing.get_context("fork")
    pending = iter(jobs)
    running = {}  # the driver's end of each worker's pipe -> (job, process)

    def start():
        job = next(pending, None)
        if job is None:
            return False
        # The forked worker inherits *job*: nothing pickles it.
        reader, writer = fork.Pipe(duplex=False)
        process = fork.Process(target=_work, args=(fn, job, writer),
                               daemon=True)
        process.start()
        writer.close()  # the worker holds the only writer: EOF is its exit
        running[reader] = (job, process)
        return True

    try:
        # The job count, not *workers*, bounds the first round of forks.
        while len(running) < workers and start():
            pass
        while running:
            for reader in wait(list(running)):
                job, process = running.pop(reader)
                outcome = _receive(reader, process)
                start()
                yield job, settle(job, outcome)
    finally:
        for reader, (_job, process) in running.items():
            process.kill()
            process.join()
            reader.close()


def _attempt(fn, job):
    """``(value, error, seconds)`` of one ``fn(job)`` call: its
    exception is returned, not raised, so it reaches the driver from a
    worker process as data."""
    value = error = None
    with stopwatch() as watch:
        try:
            value = fn(job)
        except Exception as exc:
            error = exc
    return value, error, watch.seconds


def _work(fn, job, writer):
    """A worker's body: run the job, then send the driver a label and
    the outcome. The label names the outcome in plain text the driver
    can always read -- ``"<Class>: <message>"`` of the error, or the
    value's class -- so an outcome it cannot unpickle is still named."""
    value, error, seconds = outcome = _attempt(fn, job)
    if error is None:
        writer.send("{} result the driver cannot unpickle".format(
            type(value).__name__))
    else:
        writer.send("{}: {}".format(type(error).__name__, error))
    try:
        writer.send(outcome)
    except Exception as exc:  # the outcome does not pickle
        writer.send((None, ExecutionError(
            "{}: {}".format(type(exc).__name__, exc)), seconds))
    writer.close()


def _receive(reader, process):
    """The outcome a worker sent through *reader*, after it exited.

    A worker that exits without sending it fails its job with an
    :class:`~repro.engine.errors.ExecutionError` naming its exit code;
    an outcome the driver cannot unpickle fails it with one naming the
    outcome's class (the label the worker sent first).
    """
    label = None
    try:
        label = reader.recv()
        outcome = reader.recv()
    except Exception:
        outcome = None
    finally:
        reader.close()
        process.join()
    if outcome is not None:
        return outcome
    if label is None or process.exitcode != 0:
        return None, ExecutionError(
            "worker process exited with code {} before sending its "
            "result".format(process.exitcode)
        ), 0.0
    return None, ExecutionError(label), 0.0


def _job_error(job, exc):
    stage = JOB_STAGE
    if isinstance(exc, StepError):
        stage, exc = exc.step, exc.cause
    return JobError(
        "job {!r} (trace {!r}) failed in stage {!r}: {}".format(
            job["job_id"], job["trace"], stage, exc
        ),
        job_id=job["job_id"],
        trace=job["trace"],
        stage=stage,
        cause=exc,
    )


__all__ = ["JOB_STAGE", "StepError", "execute_trace_job", "run_jobs",
           "step"]
