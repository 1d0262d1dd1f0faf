"""Gate the committed BENCH artifacts: no recorded metric may regress.

Runs with the slow suite so every benchmark session ends by re-checking
*all* committed ``BENCH_*.json`` artifacts -- including the ones this
session did not rerun -- against the gates they recorded.
"""

import json

import pytest

from benchmarks.bench_trend import (
    DEFAULT_ROOT,
    RULES,
    check_artifacts,
    main,
    regressions,
)

pytestmark = pytest.mark.slow


def test_committed_artifacts_hold_their_gates():
    checks, unknown = check_artifacts()
    assert checks, "no BENCH_*.json artifacts found at the repo root"
    assert unknown == [], (
        "artifacts without gate rules (register them in "
        "benchmarks/bench_trend.py): {}".format(unknown)
    )
    failed = [c.describe() for c in checks if not c.ok]
    assert failed == []


def test_every_committed_benchmark_name_has_a_rule():
    import glob
    import os

    names = set()
    for path in glob.glob(os.path.join(DEFAULT_ROOT, "BENCH_*.json")):
        with open(path) as handle:
            names.add(json.load(handle).get("benchmark"))
    assert names <= set(RULES)


def test_cli_exits_zero_on_clean_artifacts(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "gated metric(s) hold" in out


def test_regression_detected_in_doctored_artifact(tmp_path, capsys):
    (tmp_path / "BENCH_9.json").write_text(json.dumps({
        "benchmark": "discovery_accuracy",
        "f1_gate": 0.9,
        "micro": {"f1": 0.7},
    }))
    bad = regressions(str(tmp_path))
    assert len(bad) == 1
    assert bad[0].metric == "micro.f1"
    assert main(["--root", str(tmp_path)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
