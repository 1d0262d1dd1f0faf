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
