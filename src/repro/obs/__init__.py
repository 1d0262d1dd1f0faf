"""Structured observability: metrics, spans and run reports.

The paper's framework is pitched as a large-scale distributable system
(a 70-node Spark cluster in the evaluation); judging any performance
work on the reproduction needs one consistent way to see where time and
rows go. This package is that substrate:

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with counters,
  gauges and histograms, plus the shared nearest-rank percentile
  helpers every order-statistic in the repository routes through;
* :mod:`repro.obs.spans` -- :func:`SpanRecorder.span` nested wall-time
  spans and the :func:`stopwatch` primitive (the only sanctioned home
  of ``time.perf_counter``);
* :mod:`repro.obs.report` -- :class:`RunReport`, the one report class:
  a JSON/text-serializable bundle of spans + metrics + metadata plus the
  sections of its format (the fleet, degradation and discovery tables),
  checked by :func:`validate_report` against one rule table.

Everything here is dependency-free and import-light so any layer
(engine, core pipeline, CLI, baselines, test harnesses) can use it
without cycles.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    median,
    nearest_rank_index,
    percentile,
)
from repro.obs.report import (
    REPORT_FORMAT,
    ReportSchemaError,
    RunReport,
    validate_report,
)
from repro.obs.spans import Span, SpanRecorder, Stopwatch, stopwatch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REPORT_FORMAT",
    "ReportSchemaError",
    "RunReport",
    "Span",
    "SpanRecorder",
    "Stopwatch",
    "median",
    "nearest_rank_index",
    "percentile",
    "stopwatch",
    "validate_report",
]
