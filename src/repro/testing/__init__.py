"""Harnesses that hold ``R_out`` to the paper's promises.

* :mod:`repro.testing.generator` -- seeded random journeys (a network
  database, a parameter document and a ``K_b`` trace), clean or lossy;
* :mod:`repro.testing.differential` -- runs a journey across partition
  count, trace layout, window size and kill point and holds
  every ``R_out`` digest to the serial whole-trace run's; shrinks a
  divergence to a JSON reproducer;
* :mod:`repro.testing.fuzz` -- the CLI: ``python -m repro.testing.fuzz
  --seeds N [--lossy]``, ``--reproduce file.json``;
* :mod:`repro.testing.degradation` -- perfect-vs-corrupted runs of one
  scenario, swept over corruption severities.
"""

from repro.testing.degradation import (
    DEFAULT_SEVERITIES,
    DEGRADE_REPORT_FORMAT,
    KNOBS,
    DegradationError,
    degradation_summary,
    lossy_config,
    points,
    run_degradation,
)
from repro.testing.generator import JourneyCase, generate_journey_case

__all__ = [
    "DEFAULT_SEVERITIES",
    "DEGRADE_REPORT_FORMAT",
    "KNOBS",
    "DegradationError",
    "degradation_summary",
    "lossy_config",
    "points",
    "run_degradation",
    "JourneyCase",
    "generate_journey_case",
]
