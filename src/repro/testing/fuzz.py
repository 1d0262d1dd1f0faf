"""The differential's CLI: generated journeys on every axis.

Each seed's journey runs at the points of
:func:`repro.testing.differential.draw_points`, and every ``R_out`` (and
``K_s``) digest must equal the serial whole-trace run's::

    python -m repro.testing.fuzz --seeds 200 [--lossy]
    python -m repro.testing.fuzz --seeds 5000 --start 200
    python -m repro.testing.fuzz --reproduce fuzz-failures/seed-17.json

Exit status is 0 when every point agreed, 1 on a divergence or a
failing reference run and 2 when a reproducer cannot be loaded.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.testing.differential import (
    REFERENCE,
    check,
    draw_points,
    journey,
    load_reproducer,
    shrink_and_write,
)


def run_fuzz(num_seeds, start=0, out_dir="fuzz-failures", fail_fast=False,
             shrink=True, lossy=False, log=None):
    """Check *num_seeds* journeys; shrink and write each divergence.

    Returns ``(failures, runs)``: ``(seed, CaseReport, reproducer path
    or None)`` per journey that diverged or whose reference failed, and
    the runs compared.
    """
    log = log or (lambda message: None)
    failures, runs = [], 0
    for seed in range(start, start + num_seeds):
        case = journey(seed, lossy)
        report = check(case, case.records,
                       draw_points(seed, len(case.records)))
        runs += report.runs
        path = None
        if report.invalid:
            # Journeys are valid by construction: a failing reference is
            # a bug, reported without shrinking.
            log("seed {}: the reference fails ({})".format(
                seed, report.invalid))
        elif not report.divergences:
            continue
        else:
            log("seed {}: DIVERGENCE at {}".format(seed, ", ".join(
                str(d.point) for d in report.divergences)))
        if report.divergences and shrink:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "seed-{}.json".format(seed))
            frames = shrink_and_write(seed, lossy, case,
                                      report.divergences[0], path)
            log("seed {}: shrunk to {} of {} frames -> {}".format(
                seed, len(frames), len(case.records), path))
        failures.append((seed, report, path))
        if fail_fast:
            break
    return failures, runs


def reproduce(path, log=print):
    """Re-run a reproducer file; returns the fresh CaseReport."""
    seed, lossy, frames, point = load_reproducer(path)
    case = journey(seed, lossy)
    report = check(case, [case.records[i] for i in frames],
                   [REFERENCE, point])
    log("seed {}{}: {} of {} frames at {}".format(
        seed, " (lossy)" if lossy else "", len(frames), len(case.records),
        point))
    if report.invalid:
        log("the reference fails: {}".format(report.invalid))
    elif not report.divergences:
        log("no divergence reproduced (bug fixed, or environment-specific)")
    for d in report.divergences:
        log("DIVERGENCE {} [{}]: {}".format(d.point, d.kind, d.detail))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="R_out differential over generated journeys.",
    )
    parser.add_argument("--seeds", type=int, default=40,
                        help="number of seeded journeys (default 40)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--out", default="fuzz-failures",
                        help="directory for shrunk reproducers")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first divergence")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without shrinking")
    parser.add_argument("--lossy", action="store_true",
                        help="corrupt each journey with transport faults "
                             "(duplicates, clock steps, drops, truncation)")
    parser.add_argument("--reproduce", metavar="FILE",
                        help="re-run a reproducer JSON instead of fuzzing")
    args = parser.parse_args(argv)

    if args.reproduce:
        try:
            report = reproduce(args.reproduce)
        except (OSError, ValueError) as exc:
            print("error: cannot load reproducer {}: {}".format(
                args.reproduce, exc), file=sys.stderr)
            return 2
        return 1 if report.divergences else 0

    failures, runs = run_fuzz(
        args.seeds,
        start=args.start,
        out_dir=args.out,
        fail_fast=args.fail_fast,
        shrink=not args.no_shrink,
        lossy=args.lossy,
        log=print,
    )
    invalid = sum(1 for _seed, report, _path in failures if report.invalid)
    print("{} journeys, {} runs against the reference, {} divergent{}".format(
        args.seeds, runs, len(failures) - invalid,
        ", {} with a failing reference".format(invalid) if invalid else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
