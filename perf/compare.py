"""Compare two suite results: ``python3 perf/compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate. For every (workload, end-to-end metric)
prints both medians, the ratio B/A with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``ok``         B is not worse than A by more than the bound;
* ``REGRESSED``  it is;
* ``unresolved`` A's own samples spread, quartile to quartile, wider
  than the bound, so this pair of files cannot tell.

Per-layer metrics that are exact counts must be identical. Exits 1 on
any ``REGRESSED`` or differing count, 2 on files that cannot be
compared (smoke results, different seeds or inputs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import RESULT_FORMAT  # noqa: E402

#: Units of per-layer metrics that must repeat exactly run to run.
EXACT_UNITS = ("count", "rows", "bytes")


class CompareError(Exception):
    pass


def load_result(path):
    try:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CompareError("cannot read {}: {}".format(path, exc))
    if result.get("format") != RESULT_FORMAT:
        raise CompareError("{} is not a {} file".format(path, RESULT_FORMAT))
    if result.get("smoke"):
        raise CompareError(
            "{} is a --smoke result: its numbers mean nothing".format(path))
    return result


def worse_by(a, b, better):
    """Share of A's median by which B is worse (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(a, b, contract):
    """Returns (table rows, differing exact counts)."""
    for key in ("seed", "inputs"):
        if a["header"][key] != b["header"][key]:
            raise CompareError(
                "the two results were not measured on the same {}".format(key))
    rows = []
    counts = []
    for workload in (w["name"] for w in contract["workloads"]):
        in_a = a["workloads"][workload]
        in_b = b["workloads"][workload]
        for metric in contract["end_to_end"]:
            base = in_a["end_to_end"][metric["name"]]
            cand = in_b["end_to_end"][metric["name"]]
            if "q1" not in base:
                raise CompareError(
                    "A has one sample of {}: run at least 2 rounds".format(
                        metric["name"]))
            spread = (base["q3"] - base["q1"]) / base["value"]
            worse = worse_by(base["value"], cand["value"], metric["better"])
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": base["value"],
                "b": cand["value"], "ratio": cand["value"] / base["value"],
                "spread_a": spread, "bound": metric["bound"],
                "better": metric["better"], "verdict": verdict,
            })
        if in_a["failed"] != in_b["failed"]:
            counts.append((workload, "failed operations",
                           in_a["failed"], in_b["failed"]))
        for metric in contract["per_layer"]:
            if metric["unit"] not in EXACT_UNITS:
                continue
            left = in_a["per_layer"][metric["name"]]["value"]
            right = in_b["per_layer"][metric["name"]]["value"]
            if left != right:
                counts.append((workload, metric["name"], left, right))
    return rows, counts


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        contract = json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        rows, counts = compare(
            load_result(argv[0]), load_result(argv[1]), contract)
    except CompareError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    print("{:<12} {:<17} {:>12} {:>12} {:>17} {:>9} {:>6}  {}".format(
        "workload", "metric", "A median", "B median", "B/A (base A)",
        "A spread", "bound", "verdict"))
    for row in rows:
        print("{:<12} {:<17} {:>12.6g} {:>12.6g} {:>17} {:>8.1%} "
              "{:>5.0%}  {} ({} is better)".format(
                  row["workload"], row["metric"], row["a"], row["b"],
                  "{:.3f} of {:.4g}".format(row["ratio"], row["a"]),
                  row["spread_a"], row["bound"], row["verdict"],
                  row["better"]))
    for workload, name, left, right in counts:
        print("{:<12} {:<32} A={} B={}  DIFFERS (exact count)".format(
            workload, name, left, right))
    regressed = [r for r in rows if r["verdict"] == "REGRESSED"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print("{} compared, {} REGRESSED, {} unresolved, {} counts differ".format(
        len(rows), len(regressed), len(unresolved), len(counts)))
    return 1 if regressed or counts else 0


if __name__ == "__main__":
    sys.exit(main())
