"""End-to-end scoreboard: trace file -> result rows, on four workloads.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 perf/run.py --workload batch_syn --seed 0 --seconds 16 --trace 0

sets up ``SETUP_REPS`` times (simulate, dump, reference decode, start a
measuring process, warm up); the last measuring process
(``perf/measure.py``) then runs operations for ``--seconds`` and checks
every output; every metric is printed by name, followed by one JSON line. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Without ``--workload`` it runs the whole suite -- ``--rounds`` passes,
round-robin over the workloads, plus one traced run each -- summarises
the per-run values per workload and writes ``<out>/result.json`` for
``perf/compare.py``. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import GOLDEN_FORMAT, GOLDEN_PATH, RESULT_FORMAT  # noqa: E402

DEFAULT_OUT = ".perf_out"

#: Set-ups per run; ``setup_s`` takes their median.
SETUP_REPS = 3

#: Switches that change which engine path runs: never inherited.
_SCRUBBED = ("REPRO_KERNELS", "REPRO_COLUMNAR", "REPRO_COLUMNAR_EXCHANGE")


class BenchError(Exception):
    """A run that cannot report: printed as one line, exit code 2."""


def load_contract():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read {}: {}".format(path, exc))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONHASHSEED"] = "0"
    return env


def summarize(values):
    """Median with quartiles, min and max of per-run values (no tail
    percentile: a suite has far fewer than 20 runs)."""
    ordered = sorted(values)
    out = {
        "value": statistics.median(ordered), "n": len(ordered),
        "min": ordered[0], "max": ordered[-1], "samples": list(values),
    }
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _measuring_process(manifest_path, *options):
    """Run ``measure.py`` to its end; returns the document it printed."""
    child = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), str(manifest_path),
         *options],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    if child.returncode != 0:
        raise BenchError("measuring process exited with {}".format(
            child.returncode))
    return json.loads(child.stdout.strip().splitlines()[-1])


def run_once(name, seed, seconds, traced, out_dir, smoke=False,
             record_golden=False):
    """Set up, measure and check one workload once; returns raw samples.

    One set-up is everything a user waits for before the first measured
    operation: simulate the journeys, dump the trace files, decode the
    reference, start a measuring process and let it import the program
    and do its warm-up operation. A run sets up ``SETUP_REPS`` times --
    the earlier measuring processes exit after their warm-up, the last
    one goes on to measure -- and ``setup_s`` is the median.
    """
    from perf import workloads

    workload = workloads.WORKLOADS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=name + "-", dir=out_dir))
    options = ["--seconds", str(seconds), "--trace", str(int(traced))]
    if traced:
        options += ["--trace-out", str(out_dir / "trace-{}.json".format(name))]
    if record_golden:
        options.append("--record-golden")
    reps = 1 if smoke else SETUP_REPS
    setup_s = []
    try:
        for rep in range(reps):
            start = time.time()
            manifest = workloads.prepare(workload, seed, work, smoke=smoke)
            manifest["work_dir"] = str(work)
            manifest_path = work / "manifest.json"
            manifest_path.write_text(json.dumps(manifest))
            doc = _measuring_process(
                manifest_path,
                *(options if rep == reps - 1 else ["--warmup-only"]))
            setup_s.append(doc["ready_at"] - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in doc["problems"]:
        print("check failed [{}]: {}".format(name, problem), file=sys.stderr)
    if doc["leftover_wrappers"]:
        raise BenchError("trace wrappers left installed: {}".format(
            doc["leftover_wrappers"]))
    doc.update(
        workload=name, seed=seed, setup_reps_s=setup_s,
        setup_s=statistics.median(setup_s),
        inputs={key: manifest[key] for key in (
            "dataset", "duration_s", "vehicles", "frames", "file_bytes")},
    )
    return doc


def end_to_end(doc):
    """End-to-end metric values of one run (its fastest operation)."""
    if not doc["wall_s"]:
        raise BenchError("no operation of {} succeeded".format(
            doc["workload"]))
    frames = doc["inputs"]["frames"]
    return {
        "frames_per_s": frames / min(doc["wall_s"]),
        "cpu_s_per_mframe": min(doc["cpu_s"]) / frames * 1e6,
        "peak_rss_mb": doc["peak_rss_mib"],
        "setup_s": doc["setup_s"],
    }


def per_layer(doc):
    """Per-layer metric values of one traced run (its fastest traced
    operation)."""
    if doc["layer"] is None:
        raise BenchError("no traced operation of {} succeeded".format(
            doc["workload"]))
    return doc["layer"]


def _declared(contract, section):
    return {m["name"]: m["unit"] for m in contract[section]}


def _metrics_block(values, units):
    if set(values) != set(units):
        raise BenchError(
            "metrics differ from BENCHMARK.json: missing {}, extra {}".format(
                sorted(set(units) - set(values)),
                sorted(set(values) - set(units))))
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in units
    }


def _print_metrics(name, block, n):
    for metric, entry in block.items():
        value = entry["value"]
        shown = str(value) if isinstance(value, int) else \
            "{:.6g}".format(value)
        print("{:<12} {:<32} {:>16} {:<10} n={}".format(
            name, metric, shown, entry["unit"], n))


def _print_error_rate(name, failed, attempted):
    print("{:<12} {:<32} {:>16.6g} {:<10} failed={} attempted={}".format(
        name, "error_rate", failed / attempted, "frac", failed, attempted))


# -- one workload, as the contract's driver runs it ------------------------
def run_workload(args, contract):
    traced = bool(args.trace)
    doc = run_once(args.workload, args.seed, args.seconds, traced, args.out,
                   smoke=args.smoke)
    if traced:
        block = _metrics_block(
            per_layer(doc), _declared(contract, "per_layer"))
        n = len(doc["traced_wall_s"])
    else:
        block = _metrics_block(
            end_to_end(doc), _declared(contract, "end_to_end"))
        n = len(doc["wall_s"])
    _print_metrics(args.workload, block, "{} ops".format(n))
    _print_error_rate(args.workload, doc["failed"], doc["attempted"])
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": block,
    }))
    return 0


# -- the whole suite ---------------------------------------------------------
def _git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_golden(args, contract):
    """Rewrite perf/golden.json from one seed-0 operation per workload."""
    golden = {"format": GOLDEN_FORMAT, "seed": 0, "workloads": {}}
    for name in (w["name"] for w in contract["workloads"]):
        doc = run_once(name, 0, 0.0, False, args.out, record_golden=True)
        if doc["failed"]:
            raise BenchError("cannot record golden: {} failed".format(name))
        golden["workloads"][name] = doc["golden"]
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("recorded {}".format(GOLDEN_PATH))
    return 0


def run_suite(args, contract):
    import numpy

    names = [w["name"] for w in contract["workloads"]]
    load_before = os.getloadavg()
    if load_before[0] > os.cpu_count():
        print("warning: 1-min load average {:.2f} exceeds nproc {}".format(
            load_before[0], os.cpu_count()), file=sys.stderr)
    rounds = 1 if args.smoke else args.rounds

    timed = {name: [] for name in names}
    traced = {}
    for round_index in range(rounds):
        for name in names:
            timed[name].append(run_once(
                name, args.seed, args.seconds, False, args.out,
                smoke=args.smoke))
            if round_index == 0:
                traced[name] = run_once(
                    name, args.seed, args.seconds, True, args.out,
                    smoke=args.smoke)

    e2e_units = _declared(contract, "end_to_end")
    layer_units = _declared(contract, "per_layer")
    result = {
        "format": RESULT_FORMAT,
        "smoke": args.smoke,
        "header": {
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "seed": args.seed,
            "rounds": rounds,
            "seconds": args.seconds,
            "inputs": {name: timed[name][0]["inputs"] for name in names},
        },
        "workloads": {},
    }
    failed_total = 0
    for name in names:
        runs = timed[name] + [traced[name]]
        attempted = sum(d["attempted"] for d in runs)
        failed = sum(d["failed"] for d in runs)
        failed_total += failed
        per_run = [end_to_end(d) for d in timed[name]]
        summaries = {
            metric: summarize([run[metric] for run in per_run])
            for metric in per_run[0]
        }
        block = _metrics_block(
            {m: summary["value"] for m, summary in summaries.items()},
            e2e_units)
        for metric, entry in block.items():
            entry.update(summaries[metric])
        layer_block = _metrics_block(per_layer(traced[name]), layer_units)
        result["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": block,
            "per_layer": layer_block,
        }
        _print_metrics(name, block, "{} runs".format(rounds))
        _print_metrics(name, layer_block, "{} ops".format(
            len(traced[name]["traced_wall_s"])))
        _print_error_rate(name, failed, attempted)
    path = Path(args.out) / "result.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("wrote {}".format(path))
    return 1 if failed_total else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=5,
                        help="suite mode: passes over the workloads")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for inputs, traces and result.json")
    parser.add_argument("--smoke", action="store_true",
                        help="5 s traces, one operation; not comparable")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite perf/golden.json and exit "
                             "(benchmark-archetype PRs only)")
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        if args.smoke:
            args.seconds = 0.0  # one operation per run
        elif args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        if args.record_golden:
            return record_golden(args, contract)
        if args.workload is None:
            return run_suite(args, contract)
        if args.workload not in {w["name"] for w in contract["workloads"]}:
            raise BenchError("unknown workload {!r}".format(args.workload))
        return run_workload(args, contract)
    except ImportError as exc:
        print("error: the program is not importable from {}: {}".format(
            ROOT / "src", exc), file=sys.stderr)
        return 2
    except BenchError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
