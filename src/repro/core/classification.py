"""Type-dependent classification (Sec. 4.2, Table 3).

Each reduced sequence ``K_red`` is classified by the criteria
``Z = (z_type, z_rate, z_num, z_val)``:

* ``z_type`` ∈ {S, N} -- String or Numeric values;
* ``z_rate`` ∈ {H, L} -- change rate above/below a threshold ``T``
  measured as ``n / Δt`` over *active segments* (Eq. 2);
* ``z_num`` -- number of distinct values;
* ``z_val`` -- whether values carry a comparable valence (orderable).

plus the affiliation ``z_aff`` ∈ {F, V} distinguishing functional values
from validity values, used by the β/γ splits. The branch assignment
reproduces Table 3 exactly; combinations outside the table fall back to
the γ branch (no transformation), which is safe because γ only relabels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import nearest_rank_index

#: z_type values.
STRING_TYPE = "S"
NUMERIC_TYPE = "N"
#: z_rate values.
HIGH_RATE = "H"
LOW_RATE = "L"
#: Processing branches.
ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"

#: Data-type names of Table 3.
NUMERIC = "numeric"
ORDINAL = "ordinal"
NOMINAL = "nominal"
BINARY = "binary"


@dataclass(frozen=True)
class Criteria:
    """A computed ``Z`` tuple for one sequence."""

    z_type: str
    z_rate: str
    z_num: int
    z_val: bool

    def as_tuple(self):
        return (self.z_type, self.z_rate, self.z_num, self.z_val)


@dataclass(frozen=True)
class ClassifierConfig:
    """Parameters of the criteria computation.

    ``rate_threshold`` is the paper's ``T`` ("determined by domain
    knowledge"): values per second above which a numeric signal counts as
    fast-changing. ``activity_gap_factor`` bounds active segments: a gap
    larger than this factor times the median gap ends a segment.
    ``ordinal_vocabularies`` lists label sets considered orderable, so
    string sequences like low/medium/high classify as ordinal.
    ``validity_values`` defines the affiliation-V vocabulary.
    """

    rate_threshold: float = 1.0
    activity_gap_factor: float = 10.0
    ordinal_vocabularies: tuple = (
        ("off", "low", "medium", "high"),
        ("low", "medium", "high"),
        ("min", "mid", "max"),
        ("level0", "level1", "level2", "level3", "level4"),
        # Binary vocabularies: two-valued signals with comparable valence
        # (Table 3 requires z_val for the binary rows).
        ("OFF", "ON"),
        ("off", "on"),
        ("false", "true"),
        ("inactive", "active"),
        ("closed", "open"),
    )
    validity_values: frozenset = frozenset(
        {
            "invalid",
            "error",
            "not_available",
            "snd",  # Signal Not Defined
            "init",
            "fault",
        }
    )


def is_numeric_type(cls):
    """Table 3's numeric test for the values of type *cls*.

    The one spelling of "is this value a number": ``int`` or ``float``
    but not ``bool``, decided like ``isinstance`` on a value of the type,
    so ``numpy.float64`` (a ``float``) is numeric and ``numpy.int64`` is
    not. Callers ask once per distinct type (:func:`all_numeric`,
    :func:`numeric_mask`), not once per value.
    """
    return issubclass(cls, (int, float)) and not issubclass(cls, bool)


def all_numeric(values):
    """True if every one of *values* is numeric (true when empty)."""
    return all(map(is_numeric_type, set(map(type, values))))


def numeric_mask(values):
    """``is_numeric_type(type(v))`` for each of *values* as a bool array,
    one test per type."""
    types = list(map(type, values))
    numeric = {cls: is_numeric_type(cls) for cls in set(types)}
    return np.fromiter(map(numeric.__getitem__, types), bool, len(types))


def validity_mask(values, config):
    """Per element, whether its value is in the affiliation-V vocabulary
    (``z_aff`` = V); the rest are functional values."""
    return np.fromiter(
        map(config.validity_values.__contains__, values), bool, len(values)
    )


def compute_criteria(times, values, config=None):
    """Compute ``Z`` for a time-ordered sequence of (t, v)."""
    config = config or ClassifierConfig()
    functional = [v for v in values if v not in config.validity_values]
    basis = functional if functional else list(values)
    z_type = NUMERIC_TYPE if all_numeric(basis) else STRING_TYPE
    z_num = len(set(basis))
    z_rate = _change_rate(times, config)
    if z_type == NUMERIC_TYPE:
        z_val = True
    else:
        z_val = _orderable(set(map(str, basis)), config)
    return Criteria(z_type, z_rate, z_num, z_val)


def time_gaps(times):
    """``(gaps, positive)``: the float64 gaps between consecutive *times*
    and their positive ones, sorted.

    Classification's median gap and profiling's gap statistics are both
    taken over ``positive``: a signal seen on two channels at the same
    instants has zero gaps, which are no cycle.
    """
    stamps = np.asarray(times, dtype=float)
    gaps = stamps[1:] - stamps[:-1]
    positive = gaps[gaps > 0]
    positive.sort()
    return gaps, positive


def _change_rate(times, config):
    """Eq. 2: H if n/Δt over active segments exceeds the threshold T."""
    if len(times) < 2:
        return LOW_RATE
    gaps, positive = time_gaps(times)
    if not len(positive):
        return HIGH_RATE  # all simultaneous: infinitely fast
    # Nearest-rank median, as repro.obs.median, so classification and
    # profiling agree on median_gap for identical input.
    median_gap = float(positive[nearest_rank_index(len(positive), 50)])
    active = gaps[gaps <= config.activity_gap_factor * median_gap]
    n = len(active) + 1
    # Summed left to right: np.sum adds pairwise and rounds differently.
    active_duration = np.add.accumulate(active)[-1] if n > 1 else 0.0
    if active_duration <= 0:
        return HIGH_RATE
    return HIGH_RATE if n / active_duration > config.rate_threshold else LOW_RATE


def _orderable(labels, config):
    for vocabulary in config.ordinal_vocabularies:
        if labels <= set(vocabulary):
            return True
    # Numeric-looking strings are orderable too.
    try:
        for label in labels:
            float(label)
        return True
    except (TypeError, ValueError):
        return False


#: Table 3, row by row: (z_type, z_rate matcher, z_num matcher, z_val)
#: -> (data type, branch). ``None`` matches any rate.
_TABLE3 = (
    (NUMERIC_TYPE, HIGH_RATE, "many", True, NUMERIC, ALPHA),
    (NUMERIC_TYPE, LOW_RATE, "many", True, ORDINAL, BETA),
    (STRING_TYPE, None, "many", True, ORDINAL, BETA),
    (STRING_TYPE, None, "two", True, BINARY, GAMMA),
    (STRING_TYPE, None, "many", False, NOMINAL, GAMMA),
    (NUMERIC_TYPE, None, "two", True, BINARY, GAMMA),
)


@dataclass(frozen=True)
class Classification:
    """Result: the criteria, the inferred data type and the branch."""

    criteria: Criteria
    data_type: str
    branch: str


def classify(times, values, config=None):
    """Assign a sequence to a processing branch per Table 3."""
    criteria = compute_criteria(times, values, config)
    for z_type, z_rate, num_kind, z_val, data_type, branch in _TABLE3:
        if criteria.z_type != z_type:
            continue
        if z_rate is not None and criteria.z_rate != z_rate:
            continue
        if num_kind == "many" and criteria.z_num <= 2:
            continue
        if num_kind == "two" and criteria.z_num != 2:
            continue
        if criteria.z_val != z_val:
            continue
        return Classification(criteria, data_type, branch)
    # Outside Table 3 (e.g. constant signals with z_num == 1, or numeric
    # sequences without valence): treat as nominal pass-through.
    return Classification(criteria, NOMINAL, GAMMA)


@dataclass(frozen=True)
class SequenceClassifier:
    """Reusable classifier bound to one configuration."""

    config: ClassifierConfig = field(default_factory=ClassifierConfig)

    def affiliation_mask(self, values):
        """Per-element affiliation: True where functional (F), False (V)."""
        validity = self.config.validity_values
        return [v not in validity for v in values]
