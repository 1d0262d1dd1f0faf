"""The job catalog: a durable manifest of traces -> job specs.

A fleet sweep is defined once, up front, as data: every trace file
becomes a :class:`JobSpec` whose id is *content-addressed* -- a digest
over the trace bytes, the shared parameter document and the dataset
name. Two runs over the same inputs therefore agree on every job id,
which is what makes checkpoints from a killed sweep safely reusable by
``resume`` (a changed trace or changed parameterization changes the id
and the stale checkpoint is simply never looked up).

The catalog is persisted the way :class:`~repro.engine.storage.TableStore`
persists tables (:func:`~repro.engine.storage.atomic_write_bytes`):
staged into a hidden sibling file and renamed over the target, so a
crash mid-write leaves either the old catalog or the new one -- never a
half-written JSON document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.engine.storage import atomic_write_bytes
from repro.fleet.errors import CatalogError

#: Version tag of the serialized catalog shape.
CATALOG_FORMAT = "repro.fleet.catalog/1"

#: File name of the catalog inside a run directory.
CATALOG_FILE = "catalog.json"


def _canonical_json(payload):
    """Deterministic JSON rendering used for content addressing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def file_digest(path):
    """SHA-256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def job_id_for(trace_sha256, dataset, params):
    """Content-addressed job id: digest of (trace bytes, dataset, params)."""
    material = _canonical_json(
        {"trace": trace_sha256, "dataset": dataset, "params": params}
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JobSpec:
    """One per-trace pipeline job of a sweep.

    ``trace`` is stored relative to the run directory so a run directory
    can be archived or moved wholesale; ``index`` is the job's position
    in catalog order, the deterministic coordinate fault policies and
    aggregation use.
    """

    job_id: str
    index: int
    trace: str
    trace_sha256: str
    trace_bytes: int

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """The job of a catalog entry, its field types checked."""
        try:
            job = cls(**{f.name: payload[f.name] for f in fields(cls)})
        except (KeyError, TypeError) as exc:
            raise CatalogError(
                "malformed job entry in catalog: {}".format(exc)
            )
        for name, kind in (("job_id", str), ("index", int), ("trace", str),
                           ("trace_sha256", str), ("trace_bytes", int)):
            value = getattr(job, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise CatalogError(
                    "field {!r} must be {}, got {!r}".format(
                        name, "an integer" if kind is int else "a string",
                        value,
                    )
                )
        if job.trace_bytes < 0:
            raise CatalogError("field 'trace_bytes' must be >= 0, got "
                               "{}".format(job.trace_bytes))
        return job


class JobCatalog:
    """An ordered, content-addressed set of jobs plus shared parameters."""

    def __init__(self, dataset, params, jobs):
        self.dataset = dataset
        self.params = params  # declarative parameter document (JSON dict)
        self.jobs = list(jobs)
        seen = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise CatalogError(
                    "duplicate job id {!r} (identical trace bytes under the "
                    "same parameterization)".format(job.job_id)
                )
            seen.add(job.job_id)

    def __len__(self):
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def job_ids(self):
        return [job.job_id for job in self.jobs]

    def job(self, job_id):
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise CatalogError("no job {!r} in catalog".format(job_id))

    # -- persistence -----------------------------------------------------
    def to_dict(self):
        return {
            "format": CATALOG_FORMAT,
            "dataset": self.dataset,
            "params": self.params,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def save(self, run_dir):
        """Atomically persist under *run_dir*; returns the catalog path."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        return atomic_write_bytes(run_dir / CATALOG_FILE,
                                  text.encode("utf-8"))

    @classmethod
    def load(cls, run_dir):
        """Load the catalog of *run_dir*; :class:`CatalogError` on problems."""
        path = Path(run_dir) / CATALOG_FILE
        if not path.is_file():
            raise CatalogError(
                "no catalog at {!r} (not a fleet run directory?)".format(
                    str(path)
                )
            )
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CatalogError(
                "catalog {!r} is not valid JSON: {}".format(str(path), exc)
            )
        if not isinstance(payload, dict) \
                or payload.get("format") != CATALOG_FORMAT:
            raise CatalogError(
                "catalog {!r} has format {!r}, expected {!r}".format(
                    str(path),
                    payload.get("format") if isinstance(payload, dict)
                    else type(payload).__name__,
                    CATALOG_FORMAT,
                )
            )
        jobs = payload.get("jobs")
        if not isinstance(jobs, list):
            raise CatalogError(
                "catalog {!r} is missing its job list".format(str(path))
            )
        from repro.datasets import SPECS

        dataset, params = payload.get("dataset"), payload.get("params")
        if not isinstance(dataset, str) or dataset not in SPECS:
            raise CatalogError("catalog {!r} names unknown dataset {!r}; "
                               "expected one of {}".format(
                                   str(path), dataset, sorted(SPECS)))
        if params is not None and not isinstance(params, dict):
            raise CatalogError("catalog {!r} params must be an object or "
                               "null, got {!r}".format(str(path), params))
        specs = []
        for position, entry in enumerate(jobs):
            try:
                specs.append(_placed_job(entry, position, run_dir))
            except CatalogError as exc:
                raise CatalogError("catalog {!r} job {}: {}".format(
                    str(path), position, exc))
        return cls(dataset=dataset, params=params, jobs=specs)


def _placed_job(entry, position, run_dir):
    """The job of catalog entry *entry*, checked to sit at *position*
    and to name a trace under *run_dir* (:func:`build_catalog` records
    nothing else)."""
    job = JobSpec.from_dict(entry)
    if job.index != position:
        raise CatalogError("index is {}, expected {}".format(
            job.index, position))
    root = Path(run_dir).resolve()
    trace = Path(job.trace)
    if trace.is_absolute() or root not in (root / trace).resolve().parents:
        raise CatalogError("trace {!r} is not a relative path under the run "
                           "directory".format(job.trace))
    return job


def build_catalog(run_dir, trace_paths, dataset, params):
    """Digest *trace_paths* into a :class:`JobCatalog` rooted at *run_dir*.

    Traces must live under *run_dir* (they are recorded relative to it);
    missing files raise :class:`CatalogError` up front rather than
    surfacing later as mid-sweep job failures.
    """
    run_dir = Path(run_dir)
    jobs = []
    for index, trace in enumerate(trace_paths):
        trace = Path(trace)
        if not trace.is_file():
            raise CatalogError(
                "trace file {!r} does not exist".format(str(trace))
            )
        try:
            relative = str(trace.resolve().relative_to(run_dir.resolve()))
        except ValueError:
            raise CatalogError(
                "trace {!r} is outside the run directory {!r}".format(
                    str(trace), str(run_dir)
                )
            )
        sha = file_digest(trace)
        jobs.append(
            JobSpec(
                job_id=job_id_for(sha, dataset, params),
                index=index,
                trace=relative,
                trace_sha256=sha,
                trace_bytes=trace.stat().st_size,
            )
        )
    return JobCatalog(dataset=dataset, params=params, jobs=jobs)
