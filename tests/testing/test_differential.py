"""Tier-1 run of the ``R_out`` differential over generated journeys.

A fixed seed budget of clean and lossy journeys runs at every point of
``draw_points`` -- partition count, layout, window and kill point --
and must agree with the serial whole-trace run. Four planted
mutants, each a monkeypatch of one layer, must each be caught within
that budget; the poisoned one also shrinks to a small reproducer that
``--reproduce`` replays.
"""

import json
import re
import zlib

import pytest

import repro.core.incremental as incremental
import repro.stream.checkpoint as checkpoint
import repro.tracefile.colbin as colbin
from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext
from repro.engine import ColumnarPartition
from repro.engine.executor import Executor
from repro.obs import validate_report
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.testing.differential import (
    LAYOUTS,
    MAX_PARTITIONS,
    REFERENCE,
    check,
    diverges,
    draw_points,
    journey,
    load_reproducer,
)
from repro.testing.fuzz import main as fuzz_main
from repro.testing.fuzz import run_fuzz

#: Journeys per mode in tier-1; every mutant below is caught within it.
TIER1_SEEDS = 16


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
def test_fixed_seed_budget_has_zero_divergences(lossy):
    failures, runs = run_fuzz(TIER1_SEEDS, lossy=lossy, shrink=False)
    assert failures == []
    assert runs == TIER1_SEEDS * (len(draw_points(0, 10)) - 1)


class TestPoints:
    def test_every_axis_value_is_drawn_and_the_reference_is_first(self):
        points = draw_points(3, 100)
        assert points[0] == REFERENCE
        assert {p.layout for p in points} == set(LAYOUTS)
        assert {p.partitions > 1 for p in points} == {False, True}
        windowed = [p for p in points if p.window is not None]
        assert [p.kill is None for p in windowed] == [True, False]
        assert all(1 <= p.partitions <= MAX_PARTITIONS for p in points)
        assert 1 <= windowed[1].kill < 100

    def test_points_are_a_function_of_the_seed(self):
        assert draw_points(7, 50) == draw_points(7, 50)
        drawn = {tuple(draw_points(seed, 50)[-2:]) for seed in range(20)}
        assert len(drawn) == 20

    def test_a_journey_runs_column_steps(self):
        case = journey(0)
        executor = Executor()
        config = config_from_dict(case.params, case.database)
        k_b = EngineContext(executor).table_from_rows(
            list(BYTE_RECORD_COLUMNS), list(case.records))
        PreprocessingPipeline(config).run(k_b)
        assert executor.metrics.columnar_tasks > 0

    def test_a_failing_reference_is_invalid_not_divergent(self):
        # A truncated payload raises in a clean journey's parameter set
        # (short_payload "raise"): a shrink candidate like it is never
        # kept, as it does not diverge.
        case = journey(0)
        t, payload, *rest = case.records[0]
        records = [(t, payload[:1], *rest)] + list(case.records[1:])
        report = check(case, records, draw_points(0, 10)[:3])
        assert "too short" in report.invalid
        assert report.divergences == []
        assert not diverges(case, records, REFERENCE)


def test_a_failing_reference_on_a_generated_journey_fails_the_run(
    monkeypatch, tmp_path, capsys
):
    """Generated journeys are valid by construction, so a reference
    that raises on one is a failure of the run, not a skipped case."""
    def broken(self, k_b):
        raise RuntimeError("broken pipeline")

    monkeypatch.setattr(PreprocessingPipeline, "run", broken)
    failures, runs = run_fuzz(2)
    assert [(seed, path) for seed, _report, path in failures] == [
        (0, None), (1, None)]
    assert all("broken pipeline" in r.invalid for _s, r, _p in failures)
    assert runs == 0
    capsys.readouterr()
    assert fuzz_main(["--seeds", "2",
                      "--out", str(tmp_path / "failures")]) == 1
    assert capsys.readouterr().out.endswith(
        "2 journeys, 0 runs against the reference, 0 divergent, "
        "2 with a failing reference\n")
    assert not (tmp_path / "failures").exists()


def _poisoned(run_tasks):
    """Drops the last output row of about half the tasks of a run at
    more than one partition: those whose CRC32 roll of ``(stage,
    partition)`` falls below one half. A row list loses its last
    element, a columnar output its last row. The one-partition
    reference stays clean."""

    def mutant(self, task, inputs, stage="task"):
        outputs = run_tasks(self, task, inputs, stage)
        if self.default_parallelism == 1:
            return outputs
        return [
            _drop_last(out) if _poison_roll(stage, index) < 0.5 else out
            for index, out in enumerate(outputs)
        ]
    return mutant


def _poison_roll(stage, partition):
    key = "3|poison|{}|{}".format(stage, partition)
    return (zlib.crc32(key.encode("utf-8")) % 100_000) / 100_000.0


def _drop_last(out):
    if isinstance(out, list) and out:
        return out[:-1]
    if isinstance(out, ColumnarPartition) and len(out):
        return out.gather(range(len(out) - 1))
    return out


def _fresh_carries(reduce_segments):
    return lambda sequences, functions, carries: reduce_segments(
        sequences, functions, [{} for _unused in carries])


def _skip_second_to_last(fold):
    return lambda bodies, vehicle_id: fold(
        bodies[:-2] + bodies[-1:] if len(bodies) > 1 else bodies,
        vehicle_id)


def _drop_each_partition_end(packed_partitions):
    def mutant(*args):
        parts = packed_partitions(*args)
        return [p.slice(0, len(p) - 1) if len(p) else p
                for p in parts[:-1]] + parts[-1:]
    return mutant


MUTANTS = {
    "poisoned-task": (Executor, "run_tasks", _poisoned),
    "windowed-reduce-without-carry": (
        incremental, "reduce_segments", _fresh_carries),
    "log-fold-skips-a-record": (checkpoint, "_fold", _skip_second_to_last),
    "ctrc-partition-drops-its-end": (
        colbin, "packed_partitions", _drop_each_partition_end),
}


def _plant(monkeypatch, name):
    owner, attribute, mutate = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, mutate(getattr(owner, attribute)))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_is_caught_within_the_tier1_budget(monkeypatch, name):
    _plant(monkeypatch, name)
    failures, _runs = run_fuzz(TIER1_SEEDS, fail_fast=True, shrink=False)
    assert failures, "{} survived {} journeys".format(name, TIER1_SEEDS)


class TestReproducer:
    @pytest.fixture
    def poisoned_reproducer(self, monkeypatch, tmp_path):
        _plant(monkeypatch, "poisoned-task")
        failures, _runs = run_fuzz(
            TIER1_SEEDS, out_dir=str(tmp_path / "failures"), fail_fast=True,
        )
        [(seed, report, path)] = failures
        assert report.divergences[0].point.partitions > 1
        return seed, path

    def test_poisoned_task_shrinks_to_twenty_frames_and_reproduces(
        self, poisoned_reproducer, capsys
    ):
        seed, path = poisoned_reproducer
        loaded_seed, lossy, frames, point = load_reproducer(path)
        assert (loaded_seed, lossy) == (seed, False)
        assert point.partitions > 1
        assert 1 <= len(frames) <= 20
        payload = json.loads(open(path, encoding="utf-8").read())
        report = validate_report(payload["report"])
        assert report["name"] == "fuzz.divergence"
        assert report["meta"]["still_divergent"] is True
        assert {"shrink", "recheck"} <= {s["name"] for s in report["spans"]}
        capsys.readouterr()
        assert fuzz_main(["--reproduce", path]) == 1
        assert "DIVERGENCE" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"seed"', '"sed"'),
        lambda text: text.replace('"layout": "', '"layout": "x'),
        lambda text: text.replace('"frames": [', '"frames": [100000, '),
        lambda text: text.replace('"lossy": false', '"lossy": 0'),
        lambda text: "[]",
        lambda text: re.sub(r'"partitions": \d+',
                            '"partitions": {}'.format(MAX_PARTITIONS + 1),
                            text),
        lambda text: text.replace('"partitions":',
                                  '"executor": "serial", "partitions":'),
        lambda text: text.replace('"repro.testing/3"', '"repro.testing/2"'),
    ], ids=["truncated", "no-seed", "off-axis", "frame-range",
            "lossy-type", "not-an-object", "too-many-partitions",
            "names-an-executor", "format-2"])
    def test_a_damaged_reproducer_is_one_error_line(
        self, poisoned_reproducer, tmp_path, capsys, damage
    ):
        _seed, path = poisoned_reproducer
        damaged = tmp_path / "damaged.json"
        damaged.write_text(damage(open(path, encoding="utf-8").read()),
                           encoding="utf-8")
        capsys.readouterr()
        assert fuzz_main(["--reproduce", str(damaged)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load reproducer ")
        assert captured.err.count("\n") == 1

    def test_a_missing_reproducer_is_one_error_line(self, tmp_path, capsys):
        assert fuzz_main(["--reproduce", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("extra", [[], ["--lossy"]], ids=["clean", "lossy"])
def test_cli_clean_run_exits_zero(tmp_path, capsys, extra):
    code = fuzz_main(["--seeds", "2",
                      "--out", str(tmp_path / "failures"), *extra])
    assert code == 0
    assert not (tmp_path / "failures").exists()
    assert capsys.readouterr().out.endswith(
        "2 journeys, {} runs against the reference, 0 divergent\n".format(
            2 * (len(draw_points(0, 10)) - 1)))
