"""What crosses the fleet pool's process boundary: job causes, result
rows and whole journeys come back from a worker as the driver made them."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import fleet
from repro.core.branches import BranchError
from repro.core.extension import ExtensionError
from repro.core.params import ParameterizationError
from repro.core.pipeline import PipelineError
from repro.core.reduction import ReductionError
from repro.core.representation import RepresentationError
from repro.core.rules import TRUNCATED, RuleError
from repro.engine.errors import (
    ExecutionError,
    InjectedFaultError,
    PlanError,
    SchemaError,
    TaskError,
)
from repro.fleet import JobError, run_jobs
from repro.fleet.catalog import JobCatalog
from repro.network.database import DatabaseError
from repro.protocols.signalcodec import CodecError, ShortPayloadError
from repro.tracefile import (
    BinaryTraceError,
    ColumnarTraceError,
    TraceFormatError,
)

#: One error of every kind a journey's job can raise: engine, trace
#: loaders, parameters, Algorithm 1's stages and the signal codec.
CAUSES = [
    SchemaError("unknown column 'm_id'"),
    PlanError("join of tables without the key 'm_id'"),
    ExecutionError("task failed", cause=KeyError("s_id")),
    TaskError(
        "stage narrow[2] failed", stage="narrow[2]", partition=3,
        attempts=3, cause=InjectedFaultError("injected crash"),
    ),
    InjectedFaultError("injected crash at attempt 0"),
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
        workers=2, max_retries=0,
    )


class TestJobCauses:
    @pytest.mark.parametrize(
        "index", range(len(CAUSES)),
        ids=[type(cause).__name__ for cause in CAUSES],
    )
    def test_a_job_cause_comes_back_intact(self, index, pooled_causes):
        error = pooled_causes[index]
        assert isinstance(error, JobError)
        assert error.attempts == 1
        assert _same(error.cause, CAUSES[index])

    def test_a_task_error_names_its_stage_across_the_pool(
        self, pooled_causes
    ):
        index = next(
            i for i, cause in enumerate(CAUSES) if type(cause) is TaskError
        )
        assert pooled_causes[index].stage == "narrow[2]"

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
