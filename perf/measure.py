"""The measuring process: warm up, run operations for a fixed time, check.

Started by ``perf/run.py`` with a clean environment, once per run, so
that peak memory and CPU time are those of the operations alone and not
of the set-up that simulated the inputs. Reads the manifest
:func:`perf.workloads.prepare` wrote, prints one JSON document on its
last line of standard output.

The box this runs on is shared: operations slow down by 20-40% for tens
of seconds at a time, CPU time along with wall time. So a run makes many
short operations and reports its *fastest* one (best-of-N, as the
repo's BENCH_5/6 and Table 6 benchmarks do); medians and quartiles are
taken across runs, by the caller. Measured while this was written, on
20 s runs of 0.4 s operations: fastest-of-run spread 2% run to run,
median-of-run 15%.

With ``--trace 1`` operations alternate untraced / traced: the fastest
traced one gives every per-layer number (one coherent operation, so
self times add up to its wall time), and the fastest untraced one of the
same process and minute is what ``bench.trace_overhead_frac`` is taken
against.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import GOLDEN_FORMAT, GOLDEN_PATH, trace, workloads  # noqa: E402

#: Keys of one golden entry besides the digest.
GOLDEN_COUNTS = ("out_rows", "k_pre_rows", "k_s_rows")


def load_golden():
    payload = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if payload.get("format") != GOLDEN_FORMAT:
        raise ValueError("golden.json is not {}".format(GOLDEN_FORMAT))
    return payload


def golden_entry(outcome):
    """The golden record of one operation's outcome."""
    entry = {"digest": workloads.digest(outcome.rows)}
    entry.update((key, getattr(outcome, key)) for key in GOLDEN_COUNTS)
    return entry


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib():
    """High-water RSS of this process since exec.

    ``ru_maxrss`` is inherited through fork+exec on Linux (the parent's
    high-water mark is folded into the child's), so a big set-up process
    would leak into the figure; ``VmHWM`` belongs to this address space.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Verifier:
    """The three-part output check; returns the problems of an outcome."""

    def __init__(self, workload, manifest, golden):
        self.workload = workload
        self.manifest = manifest
        self.golden = golden  # entry for this workload, or None
        self.first_digest = None

    def problems(self, outcome):
        found = []
        entry = golden_entry(outcome)
        # (a) golden, seed 0 at full size only.
        if self.golden is not None:
            for key, value in entry.items():
                if self.golden.get(key) != value:
                    found.append("golden {}: {!r} != {!r}".format(
                        key, value, self.golden.get(key)))
        # (b) independent reference, any seed.
        for key in ("k_pre_rows", "k_s_rows"):
            if getattr(outcome, key) != self.manifest[key]:
                found.append("{} {} != InHouseTool's {}".format(
                    key, getattr(outcome, key), self.manifest[key]))
        if self.workload.stores_k_s:
            reference = self.manifest["files"][0]["k_s_digest"]
            if entry["digest"] != reference:
                found.append("stored rows differ from InHouseTool's decode")
        # (c) any seed: repeatable, nothing dropped, nothing missing.
        if self.first_digest is None:
            self.first_digest = entry["digest"]
        elif entry["digest"] != self.first_digest:
            found.append("digest differs from the first operation's")
        if outcome.stream.get("late_dropped", 0):
            found.append("stream.late_dropped = {}".format(
                outcome.stream["late_dropped"]))
        missing = set(self.manifest["signal_ids"]) - outcome.signal_ids
        if missing:
            found.append("signals missing from the result: {}".format(
                sorted(missing)))
        return found


def layer_metrics(outcome, manifest, spans, counts, wall):
    """Per-layer metrics of one traced operation (see perf/README.md)."""
    own = trace.self_by(spans, lambda s: s.name)
    layers = trace.self_by(spans, lambda s: s.layer)
    inclusive = {
        name: trace.inclusive_seconds(spans, name)
        for name in ("tracefile.load", "engine.execute", "engine.store_write",
                     "engine.store_read", "core.process_window",
                     "core.finalize", "stream.serve", "stream.finalize",
                     "stream.checkpoint")
    }
    metrics = {
        "tracefile.load_s": inclusive["tracefile.load"],
        "tracefile.bytes": outcome.tracefile_bytes,
        "engine.execute_s": inclusive["engine.execute"],
        "engine.execute_calls": trace.call_count(spans, "engine.execute"),
        "engine.store_write_s": inclusive["engine.store_write"],
        "engine.store_read_s": inclusive["engine.store_read"],
        "engine.store_bytes": outcome.store_bytes,
        "core.branch_self_s": (
            own["core.process_branch"] + own["core.classify"]
        ),
        "core.process_window_s": inclusive["core.process_window"],
        "core.finalize_s": inclusive["core.finalize"],
        "core.k_pre_rows": outcome.k_pre_rows,
        "core.k_s_rows": outcome.k_s_rows,
        "core.reduced_rows": outcome.reduced_rows,
        "core.signal_groups": outcome.signal_groups,
        "core.out_rows": outcome.out_rows,
        "analysis.swab_s": own["analysis.swab"],
        "analysis.swab_calls": trace.call_count(spans, "analysis.swab"),
        "analysis.swab_points": counts["analysis.swab_points"],
        "analysis.sax_s": own["analysis.sax"],
        "analysis.outliers_s": own["analysis.outliers"],
        "analysis.smoothing_s": own["analysis.smoothing"],
        "analysis.trend_s": own["analysis.trend"],
        "stream.serve_s": inclusive["stream.serve"],
        "stream.finalize_s": inclusive["stream.finalize"],
        "stream.checkpoint_s": inclusive["stream.checkpoint"],
        "stream.checkpoint_bytes": counts["stream.checkpoint_bytes"],
        "baseline.inhouse_frames_per_s": manifest["inhouse_frames_per_s"],
        "bench.span_coverage_frac": 1.0 - own[trace.ROOT_SPAN] / wall,
    }
    for name in ("tracefile", "engine", "core", "analysis", "stream",
                 trace.ROOT_LAYER):
        metrics["layer.{}_s".format(name)] = layers[name]
    for name, value in outcome.engine.items():
        metrics["engine." + name] = value
    stages = ("preselect", "interpret", "split", "reduce", "extend",
              "branch", "merge")
    for stage in stages:
        metrics["core.{}_s".format(stage)] = outcome.timings.get(stage, 0.0)
    # Only a PipelineResult has stage timings to subtract; elsewhere the
    # gap is bench.span_coverage_frac's business.
    unattributed = 0.0
    if outcome.timings:
        unattributed = wall - inclusive["tracefile.load"] - sum(
            outcome.timings[stage] for stage in stages
        )
    metrics["core.unattributed_s"] = unattributed
    metrics["core.unattributed_frac"] = unattributed / wall
    serve = inclusive["stream.serve"]
    metrics["stream.ingest_frames_per_s"] = (
        outcome.stream["frames_received"] / serve if serve else 0.0
    )
    metrics["stream.overhead_s"] = (
        serve - inclusive["core.process_window"]
        - inclusive["stream.checkpoint"]
    )
    for name in ("checkpoints", "windows_sealed", "late_dropped",
                 "checkpoint_p50_s", "checkpoint_p90_s"):
        metrics["stream." + name] = outcome.stream.get(name, 0)
    return metrics


def measure(workload, manifest, seconds, traced, golden, trace_path=None):
    """Run the closed loop; returns the document ``main`` prints.

    ``seconds=None`` stops after the warm-up operation (a set-up rep).
    """
    state = workloads.open_state(workload, manifest)
    work = Path(manifest["work_dir"])
    verifier = Verifier(workload, manifest, golden)
    doc = {
        "attempted": 0, "failed": 0, "problems": [],
        "wall_s": [], "cpu_s": [], "traced_wall_s": [], "layer": None,
        "leftover_wrappers": [],
    }

    def operation(tracer=None):
        """One checked operation: (outcome, wall, cpu), None if it failed."""
        doc["attempted"] += 1
        scratch = Path(tempfile.mkdtemp(prefix="op-", dir=work))
        try:
            cpu = _cpu_seconds()
            start = time.perf_counter()
            if tracer is None:
                raw = workload.run(state, scratch)
                wall = time.perf_counter() - start
            else:
                with tracer.operation(doc["attempted"]) as root:
                    raw = workload.run(state, scratch)
                wall = root.seconds  # without installing the wrappers
            cpu = _cpu_seconds() - cpu
            outcome = workload.describe(state, raw)
            problems = verifier.problems(outcome)
        except Exception:  # an operation that raises is a failed one
            traceback.print_exc()
            problems = ["operation raised (traceback on stderr)"]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if problems:
            doc["failed"] += 1
            doc["problems"].extend(problems)
            return None
        return outcome, wall, cpu

    warm = operation()
    if warm is not None:
        doc["golden"] = golden_entry(warm[0])  # for --record-golden
    doc["ready_at"] = time.time()  # start-up and warm-up end here
    if seconds is None:
        return doc

    best = None  # (wall, outcome, tracer) of the fastest traced operation
    measuring = time.perf_counter()
    while True:
        done = operation()
        if done is not None:
            doc["wall_s"].append(done[1])
            doc["cpu_s"].append(done[2])
        if traced:
            tracer = trace.Tracer()
            done = operation(tracer)
            if done is not None:
                doc["traced_wall_s"].append(done[1])
                if best is None or done[1] < best[0]:
                    best = (done[1], done[0], tracer)
        if time.perf_counter() - measuring >= seconds:
            break
    doc["leftover_wrappers"] = trace.leftover_wrappers()
    doc["peak_rss_mib"] = _peak_rss_mib()
    if best is not None and doc["wall_s"]:
        wall, outcome, tracer = best
        doc["layer"] = layer_metrics(
            outcome, manifest, tracer.spans, tracer.counts, wall
        )
        base = min(doc["wall_s"])
        doc["layer"]["bench.trace_overhead_frac"] = (wall - base) / base
        if trace_path is not None:
            Path(trace_path).write_text(json.dumps(
                [span.to_dict() for span in tracer.spans]
            ))
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--warmup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--record-golden", action="store_true",
                        help="skip the golden check (it is being rewritten)")
    args = parser.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[manifest["workload"]]
    golden = None
    if manifest["seed"] == 0 and not manifest["smoke"] \
            and not args.record_golden:
        golden = load_golden()["workloads"][workload.name]
    doc = measure(
        workload, manifest, None if args.warmup_only else args.seconds,
        bool(args.trace), golden, trace_path=args.trace_out,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
