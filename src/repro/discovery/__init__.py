"""DBC-less signal discovery: raw traces -> translation tuples.

The discovery front end makes the framework available when its
translation catalog ``U_rel`` is not: it tokenizes raw payload streams
into signal boundaries from per-bit flip statistics (ACTT-style cuts
with ByCAN-style cross-byte refinement), infers each token's byte
order, signedness and data class, and synthesizes a
:class:`~repro.network.NetworkDatabase` + ``RuleCatalog`` the existing
preselect/interpret/reduce pipeline consumes unchanged. A partial
documented database merges in with documented signals winning. The
validation harness scores recovered boundaries against ground-truth
DBCs and exports schema-validated ``repro.discovery/1`` reports.

See ``docs/DISCOVERY.md`` for the algorithm and merge semantics.
"""

from repro.discovery.inference import (
    CHECKSUM,
    CONSTANT,
    COUNTER,
    DATA_CLASSES,
    SENSOR,
    DiscoveredSignal,
    infer_signals,
)
from repro.discovery.observations import (
    BitStats,
    DiscoveryConfig,
    DiscoveryError,
    MessageObservations,
    bit_statistics,
    collect_observations,
    collect_observations_file,
)
from repro.discovery.synthesis import (
    DiscoveryResult,
    MessageDiscovery,
    discover,
    discover_message,
    message_name,
    signal_name,
    synthesize_database,
)
from repro.discovery.tokenizer import Token, tokenize
from repro.discovery.validation import (
    DISCOVERY_KNOBS,
    DISCOVERY_REPORT_FORMAT,
    discoverable_signals,
    discovery_degradation,
    matched_signal_names,
    observed_boundary,
    pipeline_coverage,
    score_discovery,
    unscored_report,
)

__all__ = [
    "BitStats",
    "CHECKSUM",
    "CONSTANT",
    "COUNTER",
    "DATA_CLASSES",
    "DISCOVERY_KNOBS",
    "DISCOVERY_REPORT_FORMAT",
    "DiscoveredSignal",
    "DiscoveryConfig",
    "DiscoveryError",
    "DiscoveryResult",
    "MessageDiscovery",
    "MessageObservations",
    "SENSOR",
    "Token",
    "bit_statistics",
    "collect_observations",
    "collect_observations_file",
    "discover",
    "discover_message",
    "discoverable_signals",
    "discovery_degradation",
    "infer_signals",
    "matched_signal_names",
    "message_name",
    "observed_boundary",
    "pipeline_coverage",
    "score_discovery",
    "signal_name",
    "synthesize_database",
    "tokenize",
    "unscored_report",
]
