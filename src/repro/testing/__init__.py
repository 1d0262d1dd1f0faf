"""Differential testing harness for the dataflow engine.

The paper's framework is only trustworthy if Algorithm 1 executes
identically whether it runs serially or distributed; this package
enforces that promise mechanically instead of by a handful of
hand-written cases:

* :mod:`repro.testing.generator` -- seeded random trace-shaped tables
  (skewed keys, NULLs, empty partitions) and random logical plans drawn
  from the engine's operator grammar, encoded as pure-data *specs* so
  they serialize and shrink;
* :mod:`repro.testing.oracle` -- executes every generated plan under
  SimulatedClusterExecutor and MultiprocessingExecutor and asserts
  row-multiset equality against a SerialExecutor reference;
* :mod:`repro.testing.shrinker` -- minimizes a diverging (plan, input)
  pair to a small reproducer and writes it to disk as JSON;
* :mod:`repro.testing.fuzz` -- the CLI: ``python -m repro.testing.fuzz
  --seeds N`` for long offline runs, ``--reproduce file.json`` to
  re-execute a shrunk failure.
"""

from repro.testing.generator import (
    DatasetCase,
    apply_spec,
    build_table,
    corrupt_dataset,
    generate_case,
    generate_dataset,
    generate_journey_case,
    generate_spec,
)
from repro.testing.oracle import (
    DEFAULT_COMBOS,
    REFERENCE_COMBO,
    CaseReport,
    ComboSpec,
    DifferentialOracle,
    Divergence,
    run_seeds,
)
from repro.testing.degradation import (
    DEFAULT_SEVERITIES,
    DEGRADE_REPORT_FORMAT,
    KNOBS,
    DegradationError,
    DegradationReport,
    degradation_summary,
    lossy_config,
    run_degradation,
    validate_degrade_report,
)
from repro.testing.shrinker import (
    load_reproducer,
    shrink_case,
    write_reproducer,
)

__all__ = [
    "DatasetCase",
    "apply_spec",
    "build_table",
    "corrupt_dataset",
    "generate_case",
    "generate_dataset",
    "generate_journey_case",
    "generate_spec",
    "DEFAULT_COMBOS",
    "REFERENCE_COMBO",
    "CaseReport",
    "ComboSpec",
    "DifferentialOracle",
    "Divergence",
    "run_seeds",
    "load_reproducer",
    "shrink_case",
    "write_reproducer",
    "DEFAULT_SEVERITIES",
    "DEGRADE_REPORT_FORMAT",
    "KNOBS",
    "DegradationError",
    "DegradationReport",
    "degradation_summary",
    "lossy_config",
    "run_degradation",
    "validate_degrade_report",
]
