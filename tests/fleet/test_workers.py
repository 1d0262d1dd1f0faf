"""run_jobs: one run per job, failure isolation, worker processes, metrics."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.errors import ExecutionError
from repro.fleet import JobError, run_jobs
from repro.fleet.workers import JOB_STAGE, StepError, step
from repro.obs import MetricsRegistry, stopwatch


def double_index(payload):
    """Module-level so the process pool can pickle it."""
    return payload["index"] * 2


def explode(payload):
    raise ValueError("poisoned trace {}".format(payload["trace"]))


def _job(index=0, **extra):
    return dict(
        job_id="job{:02d}".format(index),
        index=index,
        trace="traces/j{}.trc".format(index),
        **extra,
    )


def _one(job, **kwargs):
    [(landed, outcome)] = run_jobs([job], **kwargs)
    assert landed is job
    return outcome


class TestInDriver:
    def test_runs_and_yields_the_value(self):
        assert _one(_job(3), fn=double_index) == 6

    def test_yields_in_catalog_order(self):
        jobs = [_job(i) for i in range(4)]
        landed = [job for job, _ in run_jobs(jobs, fn=double_index)]
        assert landed == jobs

    def test_genuine_exception_fails_the_job_once(self):
        calls = []

        def explode_counted(payload):
            calls.append(payload["index"])
            explode(payload)

        registry = MetricsRegistry()
        error = _one(_job(0), fn=explode_counted, registry=registry)
        assert isinstance(error, JobError)
        assert (error.job_id, error.trace) == ("job00", "traces/j0.trc")
        assert isinstance(error.cause, ValueError)
        assert calls == [0]
        assert str(error) == (
            "job 'job00' (trace 'traces/j0.trc') failed in stage "
            "'fleet.job': poisoned trace traces/j0.trc"
        )
        assert registry.snapshot()["counters"]["fleet.jobs_failed"] == 1

    def test_one_failure_never_poisons_the_next_job(self):
        outcomes = [
            outcome for _, outcome in run_jobs(
                [_job(0), _job(1, poison=True), _job(2)],
                fn=explode_if_poisoned,
            )
        ]
        assert outcomes[0] == 0
        assert isinstance(outcomes[1], JobError)
        assert outcomes[2] == 4

    def test_counters_and_durations_recorded(self):
        registry = MetricsRegistry()
        _one(_job(0), fn=double_index, registry=registry)
        snap = registry.snapshot()
        assert snap["counters"]["fleet.jobs_run"] == 1
        assert snap["histograms"]["fleet.job_seconds"]["count"] == 1

    def test_no_workers_means_the_driver(self):
        jobs = [_job(i) for i in range(3)]
        landed = [job for job, _ in run_jobs(jobs, fn=double_index,
                                             workers=0)]
        assert landed == jobs


def explode_if_poisoned(payload):
    if payload.get("poison"):
        explode(payload)
    return double_index(payload)


class TestPool:
    def test_runs_jobs_on_workers(self):
        outcomes = run_jobs(
            [_job(i) for i in range(4)], fn=double_index, workers=2
        )
        assert sorted(value for _, value in outcomes) == [0, 2, 4, 6]

    def test_worker_crash_isolated_to_its_job(self):
        outcomes = dict(
            (job["index"], outcome) for job, outcome in run_jobs(
                [_job(0, poison=True), _job(1)],
                fn=explode_if_poisoned, workers=2,
            )
        )
        assert isinstance(outcomes[0], JobError)
        assert outcomes[0].trace == "traces/j0.trc"
        assert outcomes[1] == 2

    def test_counters_and_durations_recorded_on_workers(self):
        registry = MetricsRegistry()
        outcomes = run_jobs(
            [_job(1), _job(2)], fn=double_index, workers=2,
            registry=registry,
        )
        assert sorted(value for _, value in outcomes) == [2, 4]
        snap = registry.snapshot()
        assert snap["counters"]["fleet.jobs_run"] == 2
        assert snap["histograms"]["fleet.job_seconds"]["count"] == 2

    def test_unpicklable_payload_runs_on_a_worker(self):
        """A forked worker inherits its payload: one that does not
        pickle (an open file) runs like any other."""
        with open(__file__) as handle:
            outcomes = list(run_jobs(
                [_job(i, fh=handle) for i in range(3)], fn=double_index,
                workers=2,
            ))
        assert sorted(value for _job, value in outcomes) == [0, 2, 4]

    def test_never_more_than_workers_jobs_in_flight(self):
        pulled = []

        def jobs():
            for i in range(6):
                pulled.append(i)
                yield _job(i)

        landed = 0
        peak = 0
        for _job_landed, _value in run_jobs(
            jobs(), fn=double_index, workers=2
        ):
            landed += 1
            # Submitted but not yet landed, the replacement included.
            peak = max(peak, len(pulled) - landed)
        assert landed == 6
        assert peak == 2

    def test_a_huge_worker_count_forks_one_process_per_job(self,
                                                          monkeypatch):
        started = []
        start = multiprocessing.context.ForkProcess.start

        def counted(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            counted)
        with stopwatch() as watch:
            outcomes = list(run_jobs([_job(0), _job(1)], fn=double_index,
                                     workers=10**9))
        assert sorted(value for _job, value in outcomes) == [0, 2]
        assert len(started) == 2
        assert watch.seconds < 1.0


class StagedError(RuntimeError):
    """An exception with a ``stage`` attribute: not a step, so the
    failure keeps the job stage."""

    stage = "lines-10-29"


def explode_in_a_stage(payload):
    raise StagedError("bad window in {}".format(payload["trace"]))


def explode_in_a_step(payload):
    with step("pipeline"):
        raise ValueError("bad window in {}".format(payload["trace"]))


def unpicklable_result(payload):
    return lambda: payload["index"]


class TestNoJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_sweep_yields_nothing(self, workers):
        registry = MetricsRegistry()
        assert list(run_jobs([], fn=double_index, workers=workers,
                             registry=registry)) == []
        counters = registry.snapshot()["counters"]
        assert counters["fleet.jobs_run"] == 0
        assert counters["fleet.jobs_failed"] == 0


class TestJobErrors:
    def test_stage_defaults_to_the_job_stage(self):
        error = _one(_job(0), fn=explode)
        assert error.stage == JOB_STAGE
        assert error.to_dict()["cause"] == "ValueError"

    def test_stage_taken_from_the_step(self):
        error = _one(_job(0), fn=explode_in_a_step)
        assert error.stage == "pipeline"
        assert "in stage 'pipeline': bad window in traces/j0.trc" in str(error)
        assert type(error.cause) is ValueError
        assert error.to_dict()["cause"] == "ValueError"

    def test_a_stage_attribute_of_the_cause_is_not_a_step(self):
        error = _one(_job(0), fn=explode_in_a_stage)
        assert error.stage == JOB_STAGE
        assert type(error.cause) is StagedError

    def test_a_step_error_is_its_step_and_cause(self):
        error = StepError("load", KeyError("x"))
        assert (error.step, type(error.cause)) == ("load", KeyError)


class TestPoolFailures:
    def test_genuine_exception_fails_the_job_on_a_worker(self):
        registry = MetricsRegistry()
        outcomes = list(run_jobs(
            [_job(0), _job(1)], fn=explode, workers=2, registry=registry,
        ))
        assert all(isinstance(o.cause, ValueError) for _, o in outcomes)
        counters = registry.snapshot()["counters"]
        assert counters["fleet.jobs_failed"] == 2
        assert counters["fleet.jobs_run"] == 0

    def test_unpicklable_result_fails_its_job_only(self):
        outcomes = list(run_jobs(
            [_job(0), _job(1)], fn=unpicklable_result, workers=2,
        ))
        assert len(outcomes) == 2
        assert all(isinstance(o, JobError) for _, o in outcomes)
        assert all(type(o.cause) is ExecutionError for _, o in outcomes)

    def test_closing_early_stops_the_sweep(self):
        pulled = []

        def jobs():
            for i in range(8):
                pulled.append(i)
                yield _job(i)

        outcomes = run_jobs(jobs(), fn=double_index, workers=2)
        next(outcomes)
        outcomes.close()
        # Nothing past the in-flight window was ever submitted.
        assert len(pulled) <= 3
