"""Benchmark trend gate: every committed BENCH artifact must hold its gate.

Each slow-marked benchmark writes a ``BENCH_<n>.json`` artifact at the
repo root recording what it measured *and* the gate it asserted
(byte-identity flags, accuracy floors). Those artifacts
are committed, so a perf or correctness regression that slips past a
stale artifact -- a rerun that silently produced worse numbers, a
hand-edited gate, a benchmark dropped from CI -- would otherwise go
unnoticed until someone reran the whole slow suite.

This module re-checks every committed artifact against its gate rules
without rerunning anything: load each ``BENCH_*.json``, apply the rules
registered for its ``benchmark`` name, and fail on the first file whose
gated metric no longer clears its recorded gate. Unknown benchmark
names are reported but not failed (new benchmarks register rules here
when they grow a gate).

Run directly (``python -m benchmarks.bench_trend``) or via the
slow-marked wrapper in ``benchmarks/test_bench_trend.py``.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass

#: Repo root: BENCH artifacts live next to ROADMAP.md.
DEFAULT_ROOT = os.path.join(os.path.dirname(__file__), "..")


@dataclass(frozen=True)
class Check:
    """One gated metric read from one artifact."""

    path: str  # artifact file name
    metric: str  # dotted path of the gated metric
    value: object
    gate: object
    ok: bool

    def describe(self):
        state = "ok" if self.ok else "REGRESSED"
        return "{}: {} = {!r} (gate {!r}) {}".format(
            self.path, self.metric, self.value, self.gate, state
        )


def _floor(path, metric, value, gate):
    return Check(path, metric, value, gate,
                 value is not None and gate is not None and value >= gate)


def _flag(path, metric, value):
    return Check(path, metric, value, True, value is True)


def _dig(payload, dotted):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _check_degradation(path, payload):
    # Severity 0.0 is the lossless control: the degraded pipeline must
    # reproduce the clean run byte for byte.
    checks = []
    for curve in payload.get("curves", []):
        if curve.get("severity") == 0.0:
            checks.append(
                _flag(path, "curves[severity=0.0].byte_identical",
                      curve.get("byte_identical"))
            )
    if not checks:
        checks.append(
            _flag(path, "curves[severity=0.0].byte_identical", None)
        )
    return checks


def _check_stream_throughput(path, payload):
    return [
        _flag(path, "kill_resume_byte_identical",
              payload.get("kill_resume_byte_identical")),
    ]


def _check_discovery_accuracy(path, payload):
    return [
        _floor(path, "micro.f1", _dig(payload, "micro.f1"),
               payload.get("f1_gate")),
    ]


#: benchmark name (the artifact's ``benchmark`` field) -> rule.
RULES = {
    "degradation": _check_degradation,
    "stream_throughput": _check_stream_throughput,
    "discovery_accuracy": _check_discovery_accuracy,
}


def check_artifacts(root=DEFAULT_ROOT):
    """Check every ``BENCH_*.json`` under *root*.

    Returns ``(checks, unknown)``: all gated-metric checks (failed ones
    have ``ok=False``), plus the file names whose ``benchmark`` field
    has no registered rule.
    """
    checks = []
    unknown = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)
        with open(path) as handle:
            payload = json.load(handle)
        rule = RULES.get(payload.get("benchmark"))
        if rule is None:
            unknown.append(name)
            continue
        checks.extend(rule(name, payload))
    return checks, unknown


def regressions(root=DEFAULT_ROOT):
    """The failing checks only."""
    checks, _unknown = check_artifacts(root)
    return [c for c in checks if not c.ok]


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="re-check committed BENCH_*.json artifacts "
                    "against their gates"
    )
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help="directory holding BENCH_*.json")
    args = parser.parse_args(argv)
    checks, unknown = check_artifacts(args.root)
    for check in checks:
        print(check.describe())
    for name in unknown:
        print("{}: no gate rules registered (skipped)".format(name))
    failed = [c for c in checks if not c.ok]
    if failed:
        print("{} gated metric(s) regressed".format(len(failed)))
        return 1
    print("{} gated metric(s) hold across {} artifact(s)".format(
        len(checks), len(set(c.path for c in checks))
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
