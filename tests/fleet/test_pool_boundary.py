"""What crosses the fleet's process boundary: job causes, result rows
and whole journeys come back from a worker as the driver made them, and
a worker that dies, or sends what the driver cannot read, fails its own
job only."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro import fleet
from repro.core.branches import BranchError
from repro.core.extension import ExtensionError
from repro.core.params import ParameterizationError
from repro.core.pipeline import PipelineError
from repro.core.reduction import ReductionError
from repro.core.representation import RepresentationError
from repro.core.rules import TRUNCATED, RuleError
from repro.engine.errors import ExecutionError, PlanError, SchemaError
from repro.fleet import JobError, run_jobs
from repro.fleet.catalog import JobCatalog
from repro.network.database import DatabaseError
from repro.protocols.signalcodec import CodecError, ShortPayloadError
from repro.tracefile import (
    BinaryTraceError,
    ColumnarTraceError,
    TraceFormatError,
)

class StagedError(RuntimeError):
    """An error naming the stage it failed in, as a job's cause may."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


#: One error of every kind a journey's job can raise: engine, trace
#: loaders, parameters, Algorithm 1's stages and the signal codec.
CAUSES = [
    SchemaError("unknown column 'm_id'"),
    PlanError("join of tables without the key 'm_id'"),
    ExecutionError("task failed", cause=KeyError("s_id")),
    StagedError("bad window", stage="lines-10-29"),
    TraceFormatError("line 3: bad timestamp"),
    BinaryTraceError("bad magic b'this is '"),
    ColumnarTraceError("truncated file: 20 bytes"),
    ParameterizationError("unknown signal 'wpos'"),
    PipelineError("no rules for bus 'FC'"),
    RuleError("rule 'wpos' has no extraction"),
    BranchError("window must be positive"),
    ReductionError("unknown reduction 'mode'"),
    RepresentationError("no signal in K_s"),
    ExtensionError("no derivation for 'wacc'"),
    CodecError("length 70 exceeds 64 bits"),
    ShortPayloadError("payload of 2 bytes, signal ends at byte 4"),
    DatabaseError("duplicate message id 0x10"),
]


def raise_cause(payload):
    raise CAUSES[payload["index"]]


class TwoPartError(Exception):
    """Rejects its own ``args`` on rebuild, as unpickling does."""

    def __init__(self, kind, message):
        super().__init__("{}: {}".format(kind, message))


def raise_unrebuildable(payload):
    if payload["index"] == 0:
        raise TwoPartError("trace", "bad frame")
    if payload["index"] == 1:
        raise ExecutionError(
            "task failed", cause=TwoPartError("trace", "bad frame")
        )
    return payload["index"]


def truncated_row(payload):
    return [(payload["index"], TRUNCATED)]


def _job(index):
    return dict(job_id="job{:02d}".format(index), index=index,
                trace="traces/j{}.trc".format(index))


def _same(left, right):
    """Equal as the driver sees it: same exception class, args and
    attributes (exceptions never compare equal by value)."""
    if isinstance(left, BaseException):
        return type(left) is type(right) and left.args == right.args \
            and _same(vars(left), vars(right))
    if isinstance(left, dict):
        return left.keys() == right.keys() \
            and all(_same(left[k], right[k]) for k in left)
    return left == right


def _sweep_within(seconds, jobs, **kwargs):
    """``dict(run_jobs(...))`` by job index, failing (not hanging) if
    the sweep does not finish in *seconds*."""
    landed = {}

    def sweep():
        for job, outcome in run_jobs(jobs, **kwargs):
            landed[job["index"]] = outcome

    thread = threading.Thread(target=sweep, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the sweep hung"
    return landed


@pytest.fixture(scope="module")
def pooled_causes():
    return _sweep_within(
        60, [_job(i) for i in range(len(CAUSES))], fn=raise_cause,
        workers=2,
    )


class TestJobCauses:
    @pytest.mark.parametrize(
        "index", range(len(CAUSES)),
        ids=[type(cause).__name__ for cause in CAUSES],
    )
    def test_a_job_cause_comes_back_intact(self, index, pooled_causes):
        error = pooled_causes[index]
        assert isinstance(error, JobError)
        assert error.job_id == _job(index)["job_id"]
        assert _same(error.cause, CAUSES[index])

    def test_a_staged_error_names_its_stage_across_the_pool(
        self, pooled_causes
    ):
        index = next(
            i for i, cause in enumerate(CAUSES) if type(cause) is StagedError
        )
        assert pooled_causes[index].stage == "lines-10-29"

    def test_a_cause_the_driver_cannot_rebuild_fails_its_job_only(self):
        landed = _sweep_within(
            60, [_job(0), _job(2)], fn=raise_unrebuildable, workers=2,
        )
        assert landed[2] == 2
        error = landed[0]
        assert isinstance(error, JobError)
        assert type(error.cause) is ExecutionError
        assert str(error.cause) == "TwoPartError: trace: bad frame"

    def test_a_nested_cause_the_driver_cannot_rebuild_is_named(self):
        landed = _sweep_within(
            60, [_job(1)], fn=raise_unrebuildable, workers=2,
        )
        assert type(landed[1].cause) is ExecutionError
        assert str(landed[1].cause) == "ExecutionError: task failed"


class TestTruncated:
    def test_a_pickle_round_trip_keeps_the_singleton(self):
        assert pickle.loads(pickle.dumps(TRUNCATED)) is TRUNCATED

    def test_a_worker_made_truncated_is_the_driver_singleton(self):
        landed = _sweep_within(
            60, [_job(i) for i in range(3)], fn=truncated_row, workers=2,
        )
        assert sorted(landed) == [0, 1, 2]
        for index, rows in landed.items():
            assert rows == [(index, TRUNCATED)]
            assert rows[0][1] is TRUNCATED


FORMATS = ("trc", "btrc", "ctrc")
DATASET = "SYN"
DURATION = 2.5

#: What a job's outcome holds besides timings (``stage_seconds`` and
#: the run report's spans differ from run to run).
_TIMELESS = ("job_id", "index", "trace", "trace_rows", "rows_out",
             "r_columns", "r_rows", "counts", "classification")


@pytest.fixture(scope="module")
def journeys(tmp_path_factory):
    """One prepared one-journey sweep per trace format."""
    runs = {}
    for trace_format in FORMATS:
        run_dir = tmp_path_factory.mktemp("pool-" + trace_format)
        fleet.prepare_run(run_dir, DATASET, 1, duration=DURATION,
                          trace_format=trace_format)
        catalog = JobCatalog.load(run_dir)
        [job] = catalog.jobs
        runs[trace_format] = dict(
            job_id=job.job_id, index=job.index, trace=job.trace,
            trace_path=str(run_dir / job.trace), dataset=catalog.dataset,
            params=catalog.params,
        )
    return runs


class TestJourneys:
    @pytest.mark.parametrize("trace_format", FORMATS)
    def test_a_journey_in_a_worker_equals_the_driver(
        self, trace_format, journeys
    ):
        payload = journeys[trace_format]
        [(_, driver)] = run_jobs([payload], workers=1)
        pooled = _sweep_within(60, [payload], workers=2)[payload["index"]]
        assert driver["rows_out"] > 0
        assert {k: pooled[k] for k in _TIMELESS} == \
            {k: driver[k] for k in _TIMELESS}

    @pytest.mark.parametrize("trace_format, loader_error", [
        ("trc", TraceFormatError),
        ("btrc", BinaryTraceError),
        ("ctrc", ColumnarTraceError),
    ])
    def test_a_corrupt_trace_fails_as_its_loader_error(
        self, trace_format, loader_error, journeys, tmp_path
    ):
        payload = dict(
            journeys[trace_format],
            trace_path=str(tmp_path / ("corrupt." + trace_format)),
        )
        with open(payload["trace_path"], "wb") as handle:
            handle.write(b"this is not a trace\n")
        error = _sweep_within(60, [payload], workers=2)[payload["index"]]
        assert isinstance(error, JobError)
        assert type(error.cause) is loader_error
        assert error.trace == payload["trace"]


class Unreadable:
    """Pickles fine in the worker; rebuilding it in the driver fails."""

    def __reduce__(self):
        return (Unreadable, ("an argument it rejects",))


def die_or_double(payload):
    """Job 0 exits with code 3, job 1 is SIGKILLed, job 2 exits cleanly
    without a result and job 3 returns what the driver cannot unpickle;
    every other job doubles its index."""
    index = payload["index"]
    if index == 0:
        os._exit(3)
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    if index == 2:
        sys.exit(0)
    if index == 3:
        return Unreadable()
    if payload.get("sleep"):
        time.sleep(payload["sleep"])
    return index * 2


class TestWorkerDeath:
    @pytest.mark.parametrize("index, code", [(0, 3), (1, -signal.SIGKILL),
                                             (2, 0)],
                             ids=["exit-3", "sigkill", "exit-0"])
    def test_a_dead_worker_fails_only_its_job(self, index, code):
        landed = _sweep_within(
            60, [_job(index), _job(4), _job(5)], fn=die_or_double,
            workers=2,
        )
        assert (landed[4], landed[5]) == (8, 10)
        error = landed[index]
        assert isinstance(error, JobError)
        assert error.job_id == _job(index)["job_id"]
        assert type(error.cause) is ExecutionError
        assert "exited with code {} before sending its result".format(
            code) in str(error)
        assert repr(_job(index)["job_id"]) in str(error)

    def test_deaths_and_results_in_one_sweep(self):
        landed = _sweep_within(
            60, [_job(i) for i in range(6)], fn=die_or_double, workers=2,
        )
        assert sorted(landed) == list(range(6))
        assert all(isinstance(landed[i], JobError) for i in range(4))
        assert (landed[4], landed[5]) == (8, 10)

    def test_a_result_the_driver_cannot_unpickle_is_named(self):
        landed = _sweep_within(
            60, [_job(3), _job(4)], fn=die_or_double, workers=2,
        )
        assert landed[4] == 8
        assert type(landed[3].cause) is ExecutionError
        assert str(landed[3].cause) == \
            "Unreadable result the driver cannot unpickle"


class TestWorkerProcesses:
    @pytest.fixture
    def started(self, monkeypatch):
        """Every worker process started, and the most alive at once."""
        fork = multiprocessing.context.ForkProcess
        record = {"processes": [], "peak": 0}
        start = fork.start

        def counting_start(process):
            alive = sum(p.is_alive() for p in record["processes"])
            record["processes"].append(process)
            record["peak"] = max(record["peak"], alive + 1)
            start(process)

        monkeypatch.setattr(fork, "start", counting_start)
        return record

    def test_no_more_workers_than_jobs(self, started):
        landed = _sweep_within(
            60, [_job(4), _job(5)], fn=die_or_double, workers=8,
        )
        assert landed == {4: 8, 5: 10}
        assert len(started["processes"]) == 2
        assert started["peak"] <= 2

    def test_at_most_workers_alive(self, started):
        jobs = [dict(_job(i), sleep=0.05) for i in range(4, 10)]
        landed = _sweep_within(60, jobs, fn=die_or_double, workers=2)
        assert sorted(landed) == list(range(4, 10))
        assert len(started["processes"]) == 6
        assert started["peak"] == 2

    def test_closing_early_kills_the_running_workers(self, started):
        jobs = [_job(4)] + [dict(_job(i), sleep=60) for i in range(5, 8)]
        outcomes = run_jobs(jobs, fn=die_or_double, workers=2)
        assert next(outcomes) == (jobs[0], 8)
        outcomes.close()
        # Job 4's worker finished; jobs 5 and 6 were running, job 7 was
        # never started.
        assert len(started["processes"]) == 3
        assert not any(p.is_alive() for p in started["processes"])
        assert [p.exitcode for p in started["processes"][1:]] == \
            [-signal.SIGKILL] * 2
