"""Shared benchmark fixtures.

Benchmarks regenerate the paper's tables and figures at a documented
scale (the paper's traces are 20 h from a real vehicle on a 70-node
cluster; here durations are tens of seconds, and every time is the
measured wall time of this machine -- see DESIGN.md and EXPERIMENTS.md).
Parallelism is per journey: one :func:`repro.fleet.workers.run_jobs`
job per journey, on real worker processes. Dataset bundles and traces
are session-scoped: generating them is simulation work, not part of any
measured region.
"""

from __future__ import annotations

import hashlib
import tempfile
import time

import pytest

from repro.core import PipelineConfig, PreprocessingPipeline
from repro.datasets import LIG_SPEC, STA_SPEC, SYN_SPEC, build_dataset
from repro.engine import EngineContext, TableStore
from repro.fleet import JobError, run_jobs
from repro.protocols.frames import BYTE_RECORD_COLUMNS

#: Simulated seconds of driving per data set used across benchmarks.
DURATIONS = {"SYN": 60.0, "LIG": 30.0, "STA": 40.0}

#: SYN journeys measured by Table 6 and the worker sweep.
JOURNEYS = 7


@pytest.fixture(scope="session")
def syn_bundle():
    return build_dataset(SYN_SPEC)


@pytest.fixture(scope="session")
def lig_bundle():
    return build_dataset(LIG_SPEC)


@pytest.fixture(scope="session")
def sta_bundle():
    return build_dataset(STA_SPEC)


@pytest.fixture(scope="session")
def bundles(syn_bundle, lig_bundle, sta_bundle):
    return {"SYN": syn_bundle, "LIG": lig_bundle, "STA": sta_bundle}


@pytest.fixture(scope="session")
def journeys_syn():
    """Raw byte records of distinct SYN journeys (Table 6)."""
    from repro.datasets import journeys

    return journeys(SYN_SPEC, JOURNEYS, 60.0)


def best_of(fn, attempts=5):
    """``(seconds, value)`` of the fastest of *attempts* ``fn()`` calls:
    sub-second regions jitter with scheduler noise."""
    best = None
    for _attempt in range(attempts):
        start = time.perf_counter()
        value = fn()
        seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = seconds, value
    return best


def extract_journeys(journeys, database, signal_ids, workers, attempts=5):
    """The paper's proposed extraction over *journeys* on *workers*
    processes: ``(best wall seconds, per-journey outputs)``.

    Each journey is one job of :func:`run_jobs`: lines 2-6 over its
    ``K_b`` and the write of its ``K_s`` to a shared table store. A job
    returns its row count and the sha256 of the stored table, in
    journey order.
    """
    catalog = database.translation_catalog(signal_ids)
    pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))
    jobs = [
        {"job_id": "j{:02d}".format(index), "index": index,
         "trace": "SYN journey {}".format(index), "records": records}
        for index, records in enumerate(journeys)
    ]

    def extract(root, job):
        k_b = EngineContext.serial().table_from_rows(
            list(BYTE_RECORD_COLUMNS), job["records"])
        store = TableStore(root)
        rows = store.write(job["job_id"], pipeline.extract_signals(
            k_b, cache=False))["num_rows"]
        digest = hashlib.sha256(store.path(job["job_id"]).read_bytes())
        return rows, digest.hexdigest()

    def sweep():
        with tempfile.TemporaryDirectory() as root:
            outputs = [None] * len(jobs)
            for job, outcome in run_jobs(
                jobs, fn=lambda job: extract(root, job), workers=workers
            ):
                if isinstance(outcome, JobError):
                    raise outcome
                outputs[job["index"]] = outcome
            return outputs

    return best_of(sweep, attempts)


def print_table(title, header, rows):
    """Uniform console rendering for regenerated paper tables."""
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
