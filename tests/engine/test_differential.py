"""Tier-1 differential fuzz harness run.

Executes a fixed, deterministic seed budget of generated plans across
the full executor/optimizer/path matrix (>= 400 combinations) and
asserts zero divergences; separately proves the oracle is not vacuous
by injecting a divergent mutant executor and shrinking the failure to a
tiny reproducer. The matrix includes the path axis: the reference runs
interpreted over rows, every other combo but one the columnar
production path, so the generated chains/joins/splits/repartitions
exercise columnar kernels and the columnar wide-stage exchange against
the row reference on every seed.
"""

import pytest

from repro.engine import EngineContext
from repro.engine.executor import FaultPolicy, SerialExecutor
from repro.testing import (
    ComboSpec,
    DifferentialOracle,
    apply_spec,
    generate_case,
    load_reproducer,
    run_seeds,
    shrink_case,
    write_reproducer,
)
from repro.testing.fuzz import main as fuzz_main
from repro.testing.fuzz import run_fuzz
from repro.testing.oracle import DEFAULT_COMBOS, REFERENCE_COMBO

#: Fixed tier-1 budget: 70 seeds x 6 combos (reference + 5) = 420.
TIER1_SEEDS = 70


class TestFuzzHarness:
    def test_fixed_seed_budget_has_zero_divergences(self):
        with DifferentialOracle() as oracle:
            reports, combos_run = run_seeds(range(TIER1_SEEDS), oracle)
            fired = {
                name: executor.obs.counter(
                    "optimizer.rule.project_pruning"
                ).value
                for name, executor in oracle.executors().items()
            }
        assert combos_run >= 400
        assert all(not r.invalid for r in reports)
        diverged = [r for r in reports if not r.ok]
        assert diverged == []
        # The generated plans prune projections on every optimizing
        # combo, serial and pooled, interpreted and columnar.
        assert all(
            (fired[combo.name] > 0) == combo.optimize
            for combo in DEFAULT_COMBOS + (REFERENCE_COMBO,)
        )

    def test_matrix_isolates_the_path_and_optimizer_axes(self):
        assert len(DEFAULT_COMBOS) <= 5
        assert (REFERENCE_COMBO.optimize, REFERENCE_COMBO.columnar) == (
            False, False
        )
        by_name = {combo.name: combo for combo in DEFAULT_COMBOS}
        # Each differs from the reference in exactly one axis.
        path_only = by_name["serial-unoptimized-columnar"]
        assert (path_only.optimize, path_only.columnar) == (False, True)
        rules_only = by_name["serial-optimized-interpreted"]
        assert (rules_only.optimize, rules_only.columnar) == (True, False)

    def test_columnar_combo_actually_runs_kernels(self):
        combo = {c.name: c for c in DEFAULT_COMBOS}[
            "serial-unoptimized-columnar"
        ]
        executor = combo.build(4)
        with executor:
            ctx = EngineContext(executor)
            for seed in range(10):
                case, spec = generate_case(seed)
                apply_spec(ctx, case, spec).collect()
            # Layout counters prove the axis is not vacuously equal: the
            # combo ran columnar kernels on the generated plans and never
            # had to drop a chain to the interpreter.
            assert executor.metrics.columnar_tasks > 0
            assert executor.metrics.kernel_fallbacks == 0

    def test_generated_cases_are_deterministic(self):
        for seed in range(10):
            assert generate_case(seed) == generate_case(seed)

    def test_generated_cases_vary_across_seeds(self):
        specs = {generate_case(seed)[1] for seed in range(20)}
        assert len(specs) > 10

    def test_cli_clean_run_exits_zero(self, tmp_path):
        code = fuzz_main([
            "--seeds", "5", "--no-multiprocessing",
            "--out", str(tmp_path / "failures"),
        ])
        assert code == 0
        assert not (tmp_path / "failures").exists()


class TestLossyFuzzing:
    """Corrupted-frame cases: every combo must also agree on lossy input."""

    def test_lossy_budget_has_zero_divergences(self):
        reports, combos_run = run_seeds(range(25), lossy=True)
        assert combos_run >= 150
        assert all(not r.invalid for r in reports)
        assert [r for r in reports if not r.ok] == []

    def test_lossy_mode_preserves_clean_prefix(self):
        # Corruption draws come after every clean draw, so the plan spec
        # and catalog are identical between the two modes for any seed.
        for seed in range(20):
            clean_case, clean_spec = generate_case(seed)
            lossy_case, lossy_spec = generate_case(seed, lossy=True)
            assert lossy_spec == clean_spec
            assert lossy_case.catalog_rows == clean_case.catalog_rows

    def test_lossy_mode_actually_corrupts(self):
        changed = duplicated = mutated = nulled = 0
        for seed in range(30):
            clean_case, _spec = generate_case(seed)
            lossy_case, _spec = generate_case(seed, lossy=True)
            if lossy_case == clean_case:
                continue
            changed += 1
            clean_rows = [
                r for p in clean_case.trace_partitions for r in p
            ]
            lossy_rows = [
                r for p in lossy_case.trace_partitions for r in p
            ]
            if len(lossy_rows) > len(clean_rows):
                duplicated += 1
            if sum(1 for r in lossy_rows if r[3] is None) > sum(
                1 for r in clean_rows if r[3] is None
            ):
                nulled += 1
            # Clock steps / truncation rewrite a row in place.
            if any(r not in clean_rows for r in lossy_rows):
                mutated += 1
        assert changed >= 10
        assert duplicated >= 5
        assert nulled >= 1
        assert mutated >= 1

    def test_lossy_cases_are_deterministic(self):
        for seed in range(10):
            assert generate_case(seed, lossy=True) == generate_case(
                seed, lossy=True
            )

    def test_cli_lossy_run_exits_zero(self, tmp_path):
        code = fuzz_main([
            "--seeds", "5", "--no-multiprocessing", "--lossy",
            "--out", str(tmp_path / "failures"),
        ])
        assert code == 0
        assert not (tmp_path / "failures").exists()


def _poisoned_executor(parallelism):
    """A deliberately-divergent mutant: silently drops task output rows."""
    return SerialExecutor(
        default_parallelism=parallelism,
        fault_policy=FaultPolicy(poison_rate=0.5, seed=3),
        retry_backoff=0.0,
    )


@pytest.fixture
def mutant_oracle():
    with DifferentialOracle(
        combos=(ComboSpec("serial-poisoned", factory=_poisoned_executor),)
    ) as oracle:
        yield oracle


class TestMutantDetection:
    def test_mutant_is_caught_and_shrinks_small(self, mutant_oracle, tmp_path):
        caught = None
        for seed in range(30):
            case, spec = generate_case(seed)
            report = mutant_oracle.check_case(case, spec, seed=seed)
            if report.divergences:
                caught = (seed, case, spec, report)
                break
        assert caught is not None, "poison mutant never diverged"
        seed, case, spec, report = caught
        assert report.divergences[0].kind == "rows"

        small_case, small_spec = shrink_case(
            case, spec, mutant_oracle.diverges
        )
        # The reproducer must stay divergent and be tiny.
        assert mutant_oracle.diverges(small_case, small_spec)
        assert len(small_spec) <= 5
        assert small_case.total_rows() <= 10

        final = mutant_oracle.check_case(small_case, small_spec, seed=seed)
        path = tmp_path / "seed-{}.json".format(seed)
        write_reproducer(
            str(path), small_case, small_spec,
            seed=seed, divergences=final.divergences,
        )
        loaded_case, loaded_spec, payload = load_reproducer(str(path))
        assert loaded_case == small_case
        assert loaded_spec == small_spec
        assert payload["seed"] == seed
        assert payload["divergences"]
        assert mutant_oracle.diverges(loaded_case, loaded_spec)

    def test_run_fuzz_writes_reproducer_for_mutant(self, tmp_path, monkeypatch):
        # Route run_fuzz through the mutant matrix by monkeypatching the
        # default combos it consults.
        import repro.testing.fuzz as fuzz_mod

        monkeypatch.setattr(
            fuzz_mod, "DEFAULT_COMBOS",
            (ComboSpec("serial-poisoned", factory=_poisoned_executor),),
        )
        out = tmp_path / "failures"
        failures, _combos = run_fuzz(
            5, out_dir=str(out), fail_fast=True, log=lambda m: None
        )
        assert failures
        seed, report, path = failures[0]
        assert report.divergences
        assert path is not None
        loaded_case, loaded_spec, payload = load_reproducer(path)
        assert len(loaded_spec) <= 5
        # Every reproducer carries an observability report describing
        # the shrink/recheck run that produced it.
        from repro.obs import validate_report

        report_payload = validate_report(payload["report"])
        assert report_payload["name"] == "fuzz.divergence"
        assert report_payload["meta"]["seed"] == seed
        span_names = {s["name"] for s in report_payload["spans"]}
        assert {"shrink", "recheck"} <= span_names
        assert any(
            name.startswith("combo.") and name.endswith("executor.tasks_run")
            for name in report_payload["counters"]
        )


class TestShrinkerValidityHandling:
    def test_invalid_candidates_are_rejected_not_crashed(self):
        # A spec whose later ops depend on a column created earlier: the
        # shrinker will try dropping the earlier op, producing a
        # schema-invalid spec; the oracle must report "no divergence"
        # for it rather than raising.
        case, _spec = generate_case(1)
        spec = (
            ("with_column_scale", "d1", "m_id", 3),
            ("select", ("t", "d1")),
        )
        with DifferentialOracle() as oracle:
            ctx = EngineContext.serial()
            apply_spec(ctx, case, spec).collect()  # sanity: spec is valid
            assert oracle.diverges(case, spec[1:]) is False
            report = oracle.check_case(case, spec[1:])
            assert report.invalid
