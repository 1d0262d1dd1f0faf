"""Exception hierarchy for the dataflow engine.

The engine mirrors the error categories a user of a distributed tabular
framework (such as Apache Spark, which the paper uses) would encounter:
schema problems, analysis-time plan problems and execution-time failures.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class SchemaError(EngineError):
    """A column reference or column definition is invalid."""


class PlanError(EngineError):
    """The logical plan is malformed (e.g. joining incompatible tables)."""


class ExecutionError(EngineError):
    """A task failed while executing a physical plan."""

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class TaskError(ExecutionError):
    """A per-partition task failed permanently (retries exhausted).

    Carries the structured coordinates of the failure so callers -- and
    the differential fuzz harness -- can name the exact stage and
    partition instead of parsing a message string.
    """

    def __init__(self, message, stage=None, partition=None, attempts=None,
                 cause=None):
        super().__init__(message, cause)
        self.stage = stage
        self.partition = partition
        self.attempts = attempts


class InjectedFaultError(EngineError):
    """A failure deliberately injected by a :class:`FaultPolicy`.

    Raised inside tasks to simulate a worker dying mid-stage. Kept
    deliberately simple (single message argument) so it pickles cleanly
    across the process boundary of :mod:`repro.fleet`'s job pool.
    """
