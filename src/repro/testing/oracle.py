"""The differential oracle: one plan, many executors, equal rows.

Every generated (dataset, spec) pair is executed under a matrix of
executor/optimizer/path combinations and compared -- as row
*multisets*, because only partition boundaries and intra-partition
order are execution details -- against an unoptimized serial reference.
Any mismatch, or any combo erroring where the reference succeeds, is a
:class:`Divergence`.

The reference runs the engine's *reference path* (``columnar=False``:
interpreted narrow chains, rows throughout) while the default combos
run the production path (columnar kernels that hand columnar partitions
to the next stage), so reference-vs-production equivalence -- including
what joins, splits and repartitions receive -- is an axis of every fuzz
case. Two serial combos isolate one axis each: the pure path axis
(unoptimized + columnar) and the pure optimizer axis (optimized +
reference path).

Executors are cached per combo so one process pool serves the whole
fuzz run; call :meth:`DifferentialOracle.close` (or use it as a context
manager) to release worker processes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.engine import EngineContext
from repro.engine.errors import EngineError
from repro.engine.executor import MultiprocessingExecutor, SerialExecutor
from repro.testing.generator import apply_spec, generate_case


@dataclass(frozen=True)
class ComboSpec:
    """One executor/optimizer combination of the differential matrix.

    ``factory``, when given, overrides ``kind`` and must be a callable
    ``factory(parallelism) -> Executor``; tests use it to inject mutant
    or fault-injecting executors. ``columnar`` selects the execution
    path: production (True) or the interpreted row reference (False).
    """

    name: str
    kind: str = "serial"  # "serial" | "multiprocessing"
    optimize: bool = True
    columnar: bool = True
    factory: object = None

    def build(self, parallelism):
        if self.factory is not None:
            return self.factory(parallelism)
        kwargs = dict(
            default_parallelism=parallelism,
            optimize_plans=self.optimize,
            columnar=self.columnar,
        )
        if self.kind == "serial":
            return SerialExecutor(**kwargs)
        if self.kind == "multiprocessing":
            return MultiprocessingExecutor(
                num_workers=2, retry_backoff=0.0, **kwargs
            )
        raise ValueError("unknown executor kind {!r}".format(self.kind))


#: The reference is the purest path: serial, unoptimized, interpreted.
#: Every production-path combo therefore checks columnar-vs-interpreted
#: equivalence on every case.
REFERENCE_COMBO = ComboSpec(
    "serial-unoptimized-interpreted", "serial", optimize=False,
    columnar=False,
)

DEFAULT_COMBOS = (
    ComboSpec("serial-optimized", "serial", optimize=True),
    # Pure path axis: identical to the reference except that narrow
    # chains run as columnar kernels.
    ComboSpec("serial-unoptimized-columnar", "serial", optimize=False),
    # Pure optimizer axis: identical to the reference except for rules.
    ComboSpec("serial-optimized-interpreted", "serial", optimize=True,
              columnar=False),
    ComboSpec("multiprocessing-optimized", "multiprocessing", optimize=True),
    ComboSpec("multiprocessing-unoptimized", "multiprocessing",
              optimize=False),
)


@dataclass(frozen=True)
class Divergence:
    """One combo disagreeing with the reference on one case."""

    combo: str
    kind: str  # "rows" or "error"
    detail: str
    missing: tuple = ()  # rows the combo lost (sample)
    extra: tuple = ()  # rows the combo invented (sample)


@dataclass
class CaseReport:
    """Outcome of one differential case."""

    seed: object
    combos_run: int = 0
    reference_rows: int = 0
    divergences: list = field(default_factory=list)
    invalid: bool = False  # the reference itself failed to build/run
    detail: str = ""

    @property
    def ok(self):
        return not self.divergences


class DifferentialOracle:
    """Runs (dataset, spec) cases across the executor matrix."""

    def __init__(self, combos=DEFAULT_COMBOS, reference=REFERENCE_COMBO,
                 parallelism=4, sample=5):
        self.combos = tuple(combos)
        self.reference = reference
        self.parallelism = parallelism
        self.sample = sample
        self._executors = {}

    # -- lifecycle -------------------------------------------------------
    def _executor_for(self, combo):
        executor = self._executors.get(combo.name)
        if executor is None:
            executor = combo.build(self.parallelism)
            self._executors[combo.name] = executor
        return executor

    def executors(self):
        """Live ``{combo name: executor}`` map of this oracle's cache.

        The fuzz harness reads each executor's ``obs`` registry from
        here to embed task/retry/fault metrics into divergence
        reproducers.
        """
        return dict(self._executors)

    def close(self):
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution -------------------------------------------------------
    def _collect(self, combo, case, spec):
        executor = self._executor_for(combo)
        # Fault-injection rolls key on stage labels, which embed the
        # executor's stage sequence number; resetting it per case makes
        # divergence a pure function of (case, spec, combo), so the
        # shrinker's accepted reproducers stay divergent on recheck.
        executor.reset_stage_clock()
        ctx = EngineContext(executor)
        return apply_spec(ctx, case, spec).collect()

    def check_case(self, case, spec, seed=None):
        """Execute one case under every combo; report divergences."""
        report = CaseReport(seed=seed)
        try:
            reference_rows = self._collect(self.reference, case, spec)
        except EngineError as exc:
            # The case itself is invalid (shrinkers produce these);
            # nothing to compare.
            report.invalid = True
            report.divergences = []
            report.detail = str(exc)
            return report
        report.combos_run += 1
        expected = Counter(reference_rows)
        report.reference_rows = len(reference_rows)
        for combo in self.combos:
            try:
                actual_rows = self._collect(combo, case, spec)
            except EngineError as exc:
                report.combos_run += 1
                report.divergences.append(
                    Divergence(combo.name, "error",
                               "{}: {}".format(type(exc).__name__, exc))
                )
                continue
            report.combos_run += 1
            actual = Counter(actual_rows)
            if actual != expected:
                missing = tuple((expected - actual).elements())
                extra = tuple((actual - expected).elements())
                report.divergences.append(
                    Divergence(
                        combo.name,
                        "rows",
                        "expected {} rows, got {} ({} missing, {} extra)".format(
                            sum(expected.values()), sum(actual.values()),
                            len(missing), len(extra),
                        ),
                        missing=missing[: self.sample],
                        extra=extra[: self.sample],
                    )
                )
        return report

    def diverges(self, case, spec):
        """True when at least one combo disagrees with the reference.

        Invalid cases (reference fails to build or run) return False, so
        the shrinker never wanders into schema-invalid candidates.
        """
        return bool(self.check_case(case, spec).divergences)


def run_seeds(seeds, oracle=None, max_ops=8, on_report=None, lossy=False):
    """Run the differential oracle over an iterable of seeds.

    Returns ``(reports, total_combos_run)``. *on_report*, when given, is
    called with each :class:`CaseReport` as it completes (the fuzz CLI
    uses it for progress and fail-fast).
    """
    own = oracle is None
    if own:
        oracle = DifferentialOracle()
    reports = []
    total = 0
    try:
        for seed in seeds:
            case, spec = generate_case(seed, max_ops=max_ops, lossy=lossy)
            report = oracle.check_case(case, spec, seed=seed)
            total += report.combos_run
            reports.append(report)
            if on_report is not None:
                on_report(report)
    finally:
        if own:
            oracle.close()
    return reports, total
