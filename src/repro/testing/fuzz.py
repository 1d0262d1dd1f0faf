"""Fuzz-harness CLI for the differential oracle.

The reference combo runs the engine's interpreted row path while the
default matrix runs the columnar production path, so every fuzz case
doubles as a reference-vs-production equivalence check (see
:mod:`repro.testing.oracle` and :mod:`repro.engine.codegen`).

Fast, deterministic budget (tier-1 CI runs a fixed one through
``tests/engine/test_differential.py``)::

    python -m repro.testing.fuzz --seeds 40

Longer offline runs, skipping the process pool::

    python -m repro.testing.fuzz --seeds 5000 --start 1000 --no-multiprocessing

Re-execute a shrunk reproducer written by a previous failing run::

    python -m repro.testing.fuzz --reproduce fuzz-failures/seed-17.json

Exit status is 0 when every combination agreed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.obs import RunReport
from repro.testing.generator import generate_case
from repro.testing.oracle import (
    DEFAULT_COMBOS,
    DifferentialOracle,
)
from repro.testing.shrinker import (
    load_reproducer,
    shrink_case,
    write_reproducer,
)


def run_fuzz(num_seeds, start=0, out_dir="fuzz-failures", max_ops=8,
             use_multiprocessing=True, fail_fast=False, shrink=True,
             lossy=False, log=None):
    """Run *num_seeds* differential cases; shrink and persist failures.

    Returns ``(failures, combos_run)`` where *failures* is a list of
    ``(seed, report, reproducer_path)`` tuples.
    """
    log = log or (lambda message: None)
    combos = DEFAULT_COMBOS
    if not use_multiprocessing:
        combos = tuple(
            c for c in combos if c.kind != "multiprocessing"
        )
    failures = []
    combos_run = 0
    with DifferentialOracle(combos=combos) as oracle:
        for seed in range(start, start + num_seeds):
            case, spec = generate_case(seed, max_ops=max_ops, lossy=lossy)
            report = oracle.check_case(case, spec, seed=seed)
            combos_run += report.combos_run
            if report.invalid:
                log("seed {}: invalid case ({})".format(seed, report.detail))
                continue
            if report.ok:
                continue
            log("seed {}: DIVERGENCE in {}".format(
                seed, ", ".join(d.combo for d in report.divergences)
            ))
            path = None
            if shrink:
                run_report = RunReport("fuzz.divergence")
                with run_report.span("shrink"):
                    small_case, small_spec = shrink_case(
                        case, spec, oracle.diverges
                    )
                with run_report.span("recheck"):
                    final = oracle.check_case(
                        small_case, small_spec, seed=seed
                    )
                run_report.set_meta(
                    seed=seed,
                    ops=len(small_spec),
                    trace_rows=small_case.total_rows(),
                    divergent_combos=[d.combo for d in final.divergences],
                )
                for name, executor in sorted(oracle.executors().items()):
                    run_report.merge_registry(
                        executor.obs, prefix="combo.{}.".format(name)
                    )
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(out_dir, "seed-{}.json".format(seed))
                write_reproducer(
                    path, small_case, small_spec,
                    seed=seed, divergences=final.divergences,
                    report=run_report,
                )
                log("seed {}: shrunk to {} ops / {} rows -> {}".format(
                    seed, len(small_spec), small_case.total_rows(), path
                ))
            failures.append((seed, report, path))
            if fail_fast:
                break
    return failures, combos_run


def reproduce(path, use_multiprocessing=True, log=print):
    """Re-run a reproducer file; returns the fresh CaseReport."""
    case, spec, payload = load_reproducer(path)
    combos = DEFAULT_COMBOS
    if not use_multiprocessing:
        combos = tuple(c for c in combos if c.kind != "multiprocessing")
    with DifferentialOracle(combos=combos) as oracle:
        report = oracle.check_case(case, spec, seed=payload.get("seed"))
    log("spec ({} ops): {}".format(len(spec), list(spec)))
    log("trace rows: {}  catalog rows: {}".format(
        case.total_rows(), len(case.catalog_rows)
    ))
    if report.ok:
        log("no divergence reproduced (bug fixed, or environment-specific)")
    for d in report.divergences:
        log("DIVERGENCE {} [{}]: {}".format(d.combo, d.kind, d.detail))
        if d.missing:
            log("  missing rows (sample): {}".format(list(d.missing)))
        if d.extra:
            log("  extra rows (sample): {}".format(list(d.extra)))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential plan fuzzing for repro.engine.",
    )
    parser.add_argument("--seeds", type=int, default=40,
                        help="number of seeded cases to run (default 40)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--max-ops", type=int, default=8,
                        help="max plan ops per generated spec (default 8)")
    parser.add_argument("--out", default="fuzz-failures",
                        help="directory for shrunk reproducers")
    parser.add_argument("--no-multiprocessing", action="store_true",
                        help="skip MultiprocessingExecutor combos")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first divergence")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without shrinking")
    parser.add_argument("--lossy", action="store_true",
                        help="corrupt each dataset with transport faults "
                             "(duplicate frames, clock steps, truncation)")
    parser.add_argument("--reproduce", metavar="FILE",
                        help="re-run a reproducer JSON instead of fuzzing")
    args = parser.parse_args(argv)

    if args.reproduce:
        try:
            report = reproduce(
                args.reproduce,
                use_multiprocessing=not args.no_multiprocessing,
            )
        except (OSError, ValueError) as exc:
            print(
                "error: cannot load reproducer {}: {}".format(
                    args.reproduce, exc
                ),
                file=sys.stderr,
            )
            return 2
        return 1 if report.divergences else 0

    failures, combos_run = run_fuzz(
        args.seeds,
        start=args.start,
        out_dir=args.out,
        max_ops=args.max_ops,
        use_multiprocessing=not args.no_multiprocessing,
        fail_fast=args.fail_fast,
        shrink=not args.no_shrink,
        lossy=args.lossy,
        log=print,
    )
    print("{} seeds, {} plan/executor/optimizer combinations, {} divergent".format(
        args.seeds, combos_run, len(failures)
    ))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
