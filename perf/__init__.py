"""End-to-end scoreboard: file -> ``R_out`` throughput with per-layer tracing.

See ``perf/README.md`` for the metric catalogue and how to run it.
"""

from pathlib import Path

#: Schema tag of the suite's ``result.json`` (``perf/schema.json``).
RESULT_FORMAT = "perf.result/1"

GOLDEN_FORMAT = "perf.golden/1"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
