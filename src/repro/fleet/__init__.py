"""repro.fleet -- checkpointed, resumable fleet-run orchestration.

The paper's outer loop at operational scale: a durable catalog of
traces, then a sweep that is a map over journeys followed by one
aggregate. :func:`run` loops over the uncheckpointed jobs
(:func:`run_jobs`: in the driver for ``workers=1``, else one forked
worker per job with at most ``workers`` alive), commits each outcome
atomically as it lands, then merges the checkpoints into the final
output and a ``repro.fleet/1`` report. Kill the driver at any instant;
:func:`resume` re-runs exactly the jobs whose checkpoints had not
landed and produces byte-identical final output.
"""

from repro.fleet.catalog import (
    CATALOG_FILE,
    CATALOG_FORMAT,
    JobCatalog,
    JobSpec,
    build_catalog,
    file_digest,
    job_id_for,
)
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.errors import CatalogError, FleetRunError, JobError
from repro.fleet.orchestrator import (
    OUTPUT_TABLE,
    REPORT_FILE,
    SUMMARY_FILE,
    SUMMARY_FORMAT,
    FleetRunResult,
    default_params,
    make_catalog,
    prepare_run,
    resume,
    run,
    status,
)
from repro.fleet.workers import JOB_STAGE, execute_trace_job, run_jobs
from repro.obs.report import FLEET_REPORT_FORMAT

__all__ = [
    "CATALOG_FILE",
    "CATALOG_FORMAT",
    "CatalogError",
    "CheckpointStore",
    "FLEET_REPORT_FORMAT",
    "FleetRunError",
    "FleetRunResult",
    "JOB_STAGE",
    "JobCatalog",
    "JobError",
    "JobSpec",
    "OUTPUT_TABLE",
    "REPORT_FILE",
    "SUMMARY_FILE",
    "SUMMARY_FORMAT",
    "build_catalog",
    "default_params",
    "execute_trace_job",
    "file_digest",
    "job_id_for",
    "make_catalog",
    "prepare_run",
    "resume",
    "run",
    "run_jobs",
    "status",
]
