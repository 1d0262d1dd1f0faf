"""Smoke test of the scoreboard: ``python -m pytest perf/tests -q``.

Runs the whole suite once with ``--smoke`` (5 s traces, one operation
per run) and checks the *shape* of what it produces; the numbers of a
smoke run mean nothing and ``compare.py`` refuses them.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-smoke")
    done = _run(ROOT / "perf" / "run.py", "--smoke", "--out", out)
    assert done.returncode == 0, done.stderr
    result = json.loads((out / "result.json").read_text())
    return out, result, done.stdout


def test_result_validates_against_schema(smoke):
    jsonschema = pytest.importorskip("jsonschema")
    _out, result, _stdout = smoke
    schema = json.loads((ROOT / "perf" / "schema.json").read_text())
    jsonschema.validate(result, schema)
    assert result["smoke"] is True


def test_every_declared_metric_and_workload_is_reported(smoke):
    _out, result, stdout = smoke
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert NAME.match(name)
        entry = result["workloads"][name]
        assert entry["failed"] == 0 and entry["error_rate"] == 0
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
            assert set(entry[section]) == set(declared)
            for metric, unit in declared.items():
                assert NAME.match(metric)
                assert entry[section][metric]["unit"] == unit
                assert re.search(
                    r"^{}\s+{}\s".format(re.escape(name), re.escape(metric)),
                    stdout, re.M,
                ), "{} {} not printed".format(name, metric)


def test_span_tree_is_well_formed(smoke):
    out, result, _stdout = smoke
    for name in WORKLOADS:
        spans = json.loads((out / "trace-{}.json".format(name)).read_text())
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert [root["name"] for root in roots] == [trace.ROOT_SPAN]
        assert len({span["op"] for span in spans}) == 1
        covered = dict.fromkeys(by_id, 0.0)
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                continue
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            covered[parent["id"]] += span["end"] - span["start"]
        for span in spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            assert own >= -1e-9, span
        # Self times by layer add up to the operation's wall time.
        layers = result["workloads"][name]["per_layer"]
        total = sum(
            layers["layer.{}_s".format(layer)]["value"]
            for layer in ("tracefile", "engine", "core", "analysis",
                          "stream", "bench")
        )
        wall = roots[0]["end"] - roots[0]["start"]
        assert total == pytest.approx(wall, rel=0.01)


def test_workloads_bypass_the_layers_they_claim_to(smoke):
    _out, result, _stdout = smoke
    layers = {n: result["workloads"][n]["per_layer"] for n in WORKLOADS}
    assert layers["extract_syn"]["analysis.swab_calls"]["value"] == 0
    assert layers["extract_syn"]["layer.analysis_s"]["value"] == 0
    assert layers["extract_syn"]["engine.store_bytes"]["value"] > 0
    assert layers["batch_syn"]["analysis.swab_calls"]["value"] > 0
    assert layers["batch_syn"]["layer.stream_s"]["value"] == 0
    assert layers["stream_syn"]["stream.checkpoints"]["value"] > 0
    assert layers["stream_syn"]["stream.late_dropped"]["value"] == 0
    assert layers["stream_syn"]["core.branch_s"]["value"] == 0


def test_wrappers_are_fully_removed():
    from repro.analysis import segmentation
    from repro.core import branches
    from repro.engine.executor import Executor

    swab, execute = segmentation.swab, Executor.execute
    tracer = trace.Tracer()
    with tracer.operation(1):
        assert segmentation.swab is not swab
        assert branches.swab is segmentation.swab
        assert Executor.execute is not execute
        segmentation.swab([0.0, 1.0, 2.0, 3.0], 0.5)
    assert segmentation.swab is swab and branches.swab is swab
    assert Executor.execute is execute
    assert trace.leftover_wrappers() == []
    assert [s.name for s in tracer.spans] == [trace.ROOT_SPAN, "analysis.swab"]
    assert tracer.counts["analysis.swab_points"] == 4


def test_compare_refuses_a_smoke_result(smoke):
    out, _result, _stdout = smoke
    done = _run(ROOT / "perf" / "compare.py",
                out / "result.json", out / "result.json")
    assert done.returncode == 2
    assert "--smoke" in done.stderr


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json and perf/: nothing to measure, exit non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("perf/run.py", "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
