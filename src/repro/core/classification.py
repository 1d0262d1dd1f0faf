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

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.model import LABEL, NUMBER, OBJECT
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
    z_type, z_num, z_val = _value_criteria(values, config)
    return Criteria(z_type, _change_rate(times, config), z_num, z_val)


def _value_criteria(values, config):
    """``(z_type, z_num, z_val)`` of one sequence's values (objects)."""
    values = list(values)
    basis = [v for v, invalid in zip(
        values, validity_mask(values, config).tolist()
    ) if not invalid] or values
    if all_numeric(basis):
        return NUMERIC_TYPE, len(set(basis)), True
    return STRING_TYPE, len(set(basis)), \
        _orderable(frozenset(map(str, basis)), config)


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
    """Eq. 2 for one sequence's *times* (see :func:`_change_rates`)."""
    return _change_rates(np.asarray(times, float), [0, len(times)], config)[0]


def _change_rates(times, offsets, config):
    """Eq. 2 for the segments ``offsets[i]:offsets[i+1]`` of the float64
    *times*: H if n/Δt over active segments exceeds the threshold T.

    The median gap is the nearest-rank one of a segment's positive gaps
    (``nearest_rank_index``, as ``repro.obs.median``), so classification
    and profiling agree on it; a gap up to ``activity_gap_factor`` times
    it is active. Counts, sorts and comparisons run over all segments at
    once; each active duration is summed left to right on its own
    (``np.add.accumulate``: a segmented or pairwise sum rounds
    differently).
    """
    offsets = np.asarray(offsets, np.intp)
    sizes = np.diff(offsets)
    count = len(sizes)
    inner = np.ones(max(len(times) - 1, 0), dtype=bool)
    starts = offsets[1:-1][sizes[1:] > 0]
    inner[starts[starts > 0] - 1] = False
    segment = np.repeat(np.arange(count), sizes)[:-1][inner]
    gaps = (times[1:] - times[:-1])[inner]
    positive = gaps > 0
    order = np.lexsort((gaps[positive], segment[positive]))
    ranked = gaps[positive][order]
    npos = np.bincount(segment[positive], minlength=count)
    median = np.zeros(count)
    some = npos > 0
    first = np.cumsum(npos) - npos
    median[some] = ranked[first[some] + np.array(
        [nearest_rank_index(k, 50) for k in npos[some].tolist()], np.intp
    )]
    with np.errstate(over="ignore"):  # an infinite bound admits all
        active = gaps <= config.activity_gap_factor * median[segment]
    n = np.bincount(segment[active], minlength=count) + 1
    summed = gaps[active]
    ends = np.cumsum(n - 1)
    duration = np.zeros(count)
    some_active = np.flatnonzero(n > 1)
    duration[some_active] = [
        np.add.accumulate(summed[lo:hi])[-1] for lo, hi in zip(
            (ends - n + 1)[some_active].tolist(), ends[some_active].tolist()
        )
    ]
    with np.errstate(all="ignore"):  # a zero or tiny duration is H
        high = (~some) | (duration <= 0) | \
            (n / duration > config.rate_threshold)
    return np.where((sizes >= 2) & high, HIGH_RATE, LOW_RATE).tolist()


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
    return _table3(compute_criteria(times, values, config))


def _table3(criteria):
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


def classify_segments(sequences, config=None):
    """:func:`classify` for every segment of a
    :class:`~repro.core.sequence.Sequences` set, one list.

    A segment of numbers or labels is classified by masks and
    distinct-value counts over the whole set: its basis is
    its functional values, or all of them if none is functional; z_num
    counts the basis' distinct values, as a set does. A segment of
    objects takes :func:`compute_criteria`'s value path on its own.
    """
    config = config or ClassifierConfig()
    segment, kind = sequences.segment, sequences.kind
    count = len(sequences.keys)
    functional = ~sequences.isin(config.validity_values)
    some = np.bincount(segment[functional], minlength=count) > 0
    basis = (functional | ~some[segment]) & (kind != OBJECT)
    z_num = np.zeros(count, np.intp)
    for k, plane in ((NUMBER, sequences.x), (LABEL, sequences.c)):
        chosen = basis & (kind == k)
        cells, owner = plane[chosen], segment[chosen]
        order = np.lexsort((cells, owner))
        cells, owner = cells[order], owner[order]
        new = np.ones(len(cells), dtype=bool)
        new[1:] = (owner[1:] != owner[:-1]) | (cells[1:] != cells[:-1])
        z_num += np.bincount(owner[new], minlength=count)
        if k == LABEL:  # each label segment's distinct basis labels
            distinct = owner[new], sequences.labels[cells[new]]
    criteria = list(zip(
        np.where((sequences.kinds == LABEL) & (sequences.sizes > 0),
                 STRING_TYPE, NUMERIC_TYPE).tolist(),
        _change_rates(sequences.times(), sequences.offsets, config),
        z_num.tolist(), repeat(True),
    ))
    owner, labels = distinct
    if len(owner):
        cuts = np.flatnonzero(np.diff(owner)) + 1
        for i, group in zip(owner[np.append(0, cuts)].tolist(),
                            np.split(labels, cuts)):
            criteria[i] = criteria[i][:3] + (frozenset(group.tolist()),)
    for i in np.flatnonzero(sequences.kinds == OBJECT).tolist():
        z_type, z_num_i, z_val = _value_criteria(
            sequences.v[sequences.offsets[i] : sequences.offsets[i + 1]], config
        )
        criteria[i] = (z_type, criteria[i][1], z_num_i, z_val)
    found = {}
    out = []
    for key in criteria:
        if key not in found:
            z_type, z_rate, z_num_i, z_val = key
            if isinstance(z_val, frozenset):
                z_val = _orderable(z_val, config)
            found[key] = _table3(Criteria(z_type, z_rate, z_num_i, z_val))
        out.append(found[key])
    return out
