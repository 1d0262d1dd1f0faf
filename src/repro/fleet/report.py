"""Fleet-level aggregated reporting: the ``repro.fleet/1`` format.

One sweep produces one fleet report: the per-trace
:class:`~repro.obs.report.RunReport` bundles (stored in each job's
checkpoint payload) merged into a single document with

* **per-stage histograms** -- ``fleet.stage_seconds.<stage>`` holds the
  distribution of each Algorithm-1 stage's wall time across traces, and
  ``fleet.rows_out`` the distribution of per-trace output sizes;
* **exact summed counters** -- every per-trace pipeline/executor counter
  (``pipeline.merge.rows_out``, ``executor.retries``, ...) added up
  fleet-wide, plus the orchestrator's own ``fleet.*`` counters;
* a **job table** (one row per catalog entry with its terminal status);
* a **failure table** (structured :class:`~repro.fleet.errors.JobError`
  rows);
* **throughput gauges** (traces/sec, rows/sec) set by the orchestrator.

The JSON shape extends ``repro.obs/1`` with the two tables, so
validation delegates the shared sections to
:func:`repro.obs.validate_report`.
"""

from __future__ import annotations

import json

from repro.obs import REPORT_FORMAT, ReportSchemaError, RunReport, validate_report

#: Version tag of the serialized fleet report shape.
FLEET_REPORT_FORMAT = "repro.fleet/1"

#: Terminal statuses a job row may carry. ``cached`` means the job's
#: checkpoint predates this sweep (it was skipped by resume).
JOB_STATUSES = ("done", "cached", "failed", "pending")


class FleetReport:
    """A :class:`RunReport` plus the fleet's job and failure tables."""

    def __init__(self, name="fleet.run"):
        self.run = RunReport(name)
        self.jobs = []
        self.failures = []

    # Delegates so callers use the familiar RunReport surface.
    @property
    def metrics(self):
        return self.run.metrics

    @property
    def spans(self):
        return self.run.spans

    @property
    def meta(self):
        return self.run.meta

    def set_meta(self, **entries):
        self.run.set_meta(**entries)
        return self

    def add_job_row(self, job_id, index, trace, status, **extra):
        if status not in JOB_STATUSES:
            raise ValueError("unknown job status {!r}".format(status))
        row = {"job_id": job_id, "index": index, "trace": trace,
               "status": status}
        row.update(extra)
        self.jobs.append(row)
        return row

    def add_failure_row(self, row):
        self.failures.append(dict(row))
        return self

    def merge_job_payload(self, payload):
        """Fold one checkpointed per-trace result into the aggregate.

        Stage wall times become observations in the per-stage
        histograms; the per-trace report's counters (exact integers, so
        summation is lossless) accumulate fleet-wide.
        """
        for stage, seconds in sorted(payload.get("stage_seconds", {}).items()):
            self.metrics.observe(
                "fleet.stage_seconds.{}".format(stage), seconds
            )
        self.metrics.observe("fleet.rows_out", payload.get("rows_out", 0))
        self.metrics.observe("fleet.trace_rows", payload.get("trace_rows", 0))
        per_trace = payload.get("report", {})
        for name, value in per_trace.get("counters", {}).items():
            self.metrics.inc(name, value)
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self):
        payload = self.run.to_dict()
        payload["format"] = FLEET_REPORT_FORMAT
        payload["jobs"] = [dict(row) for row in self.jobs]
        payload["failures"] = [dict(row) for row in self.failures]
        return payload

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          default=str)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path


def validate_fleet_report(payload):
    """Check a payload against the ``repro.fleet/1`` shape.

    Returns the payload when valid, raises
    :class:`~repro.obs.ReportSchemaError` listing every problem
    otherwise. Accepts a dict or a JSON string. The spans/counters/
    gauges/histograms sections share the ``repro.obs/1`` rules and are
    checked by delegating to :func:`repro.obs.validate_report`.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except ValueError as exc:
            raise ReportSchemaError(
                "fleet report is not valid JSON: {}".format(exc)
            )
    if not isinstance(payload, dict):
        raise ReportSchemaError("fleet report must be a JSON object")
    errors = []
    if payload.get("format") != FLEET_REPORT_FORMAT:
        errors.append("format must be {!r}, got {!r}".format(
            FLEET_REPORT_FORMAT, payload.get("format")))
    jobs = payload.get("jobs")
    if not isinstance(jobs, list):
        errors.append("jobs must be a list")
    else:
        for i, row in enumerate(jobs):
            prefix = "jobs[{}]".format(i)
            if not isinstance(row, dict):
                errors.append("{} must be an object".format(prefix))
                continue
            if not isinstance(row.get("job_id"), str) or not row["job_id"]:
                errors.append(
                    "{}.job_id must be a non-empty string".format(prefix)
                )
            if not isinstance(row.get("trace"), str):
                errors.append("{}.trace must be a string".format(prefix))
            if row.get("status") not in JOB_STATUSES:
                errors.append("{}.status must be one of {}".format(
                    prefix, "/".join(JOB_STATUSES)))
            for key in ("index", "trace_rows", "rows_out"):
                if key in row and (
                    not isinstance(row[key], int)
                    or isinstance(row[key], bool) or row[key] < 0
                ):
                    errors.append(
                        "{}.{} must be an int >= 0".format(prefix, key)
                    )
    failures = payload.get("failures")
    if not isinstance(failures, list):
        errors.append("failures must be a list")
    else:
        for i, row in enumerate(failures):
            prefix = "failures[{}]".format(i)
            if not isinstance(row, dict):
                errors.append("{} must be an object".format(prefix))
                continue
            if not isinstance(row.get("job_id"), str) or not row["job_id"]:
                errors.append(
                    "{}.job_id must be a non-empty string".format(prefix)
                )
            if not isinstance(row.get("error"), str) or not row["error"]:
                errors.append(
                    "{}.error must be a non-empty string".format(prefix)
                )
    if errors:
        raise ReportSchemaError(
            "invalid fleet report: {}".format("; ".join(errors))
        )
    obs_payload = {
        key: value for key, value in payload.items()
        if key not in ("jobs", "failures")
    }
    obs_payload["format"] = REPORT_FORMAT
    validate_report(obs_payload)
    return payload
