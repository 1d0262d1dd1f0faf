"""Extension rules (Sec. 4.1 "Extension Rules", Algorithm 1 line 12).

Extensions associate meta-data with a reduced signal sequence: "the gap
to previous elements or results from computations based on other
signals" become new sequence elements ``w_hat`` with
``w = (v, w_id)`` (Table 2: the ``wposGap`` sequence).

Extension output tables have the homogeneous layout
``(t, v, w_id, s_id, b_id)`` -- value, the meta-signal identifier, the
signal type the meta-data is associated with, and the channel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.model import K_S_COLUMNS, W_COLUMNS
from repro.core.classification import numeric_mask
from repro.core.sequence import derive_extensions, order_rows


class ExtensionError(ValueError):
    """Raised for invalid extension rules."""


class ExtensionRule:
    """Base class: derives meta-data rows from one reduced sequence.

    ``derive(rows, schema)`` receives the time-ordered K_red rows and the
    table schema and returns W rows. Implementations must be picklable;
    they run on the driver orchestration level but may be shipped with
    partition functions.
    """

    w_id = None

    def derive(self, rows, schema):
        raise NotImplementedError


@dataclass(frozen=True)
class GapExtension(ExtensionRule):
    """Temporal gap to the previous element (Table 2's ``wposGap``)."""

    signal_id: str
    suffix: str = "Gap"

    @property
    def w_id(self):
        return "{}{}".format(self.signal_id, self.suffix)

    def derive(self, rows, schema):
        t_i = schema.index_of("t")
        b_i = schema.index_of("b_id")
        out = []
        prev_t = None
        for row in rows:
            t = row[t_i]
            if prev_t is not None:
                out.append(
                    (t, round(t - prev_t, 9), self.w_id, self.signal_id, row[b_i])
                )
            prev_t = t
        return out


@dataclass(frozen=True)
class CycleViolationExtension(ExtensionRule):
    """Flags gaps exceeding the expected cycle time.

    "By extending traces with expected cycle times, locations of
    violations of such times can be detected" (Sec. 4.4). The value of
    each meta-element is the factor gap / expected cycle, emitted only
    where the factor exceeds *tolerance*.
    """

    signal_id: str
    expected_cycle: float
    tolerance: float = 1.5
    suffix: str = "CycleViolation"

    def __post_init__(self):
        if self.expected_cycle <= 0:
            raise ExtensionError("expected_cycle must be positive")
        if self.tolerance <= 1.0:
            raise ExtensionError("tolerance must exceed 1.0")

    @property
    def w_id(self):
        return "{}{}".format(self.signal_id, self.suffix)

    def derive(self, rows, schema):
        t_i = schema.index_of("t")
        b_i = schema.index_of("b_id")
        out = []
        prev_t = None
        for row in rows:
            t = row[t_i]
            if prev_t is not None:
                factor = (t - prev_t) / self.expected_cycle
                if factor > self.tolerance:
                    out.append(
                        (t, round(factor, 6), self.w_id, self.signal_id, row[b_i])
                    )
            prev_t = t
        return out


@dataclass(frozen=True)
class DerivedValueExtension(ExtensionRule):
    """Meta-data computed per element by a picklable ``func(t, v)``.

    ``func`` returns the meta value, or None to emit nothing for that
    element.
    """

    signal_id: str
    name: str
    func: object

    @property
    def w_id(self):
        return self.name

    def derive(self, rows, schema):
        t_i = schema.index_of("t")
        v_i = schema.index_of("v")
        b_i = schema.index_of("b_id")
        out = []
        for row in rows:
            value = self.func(row[t_i], row[v_i])
            if value is not None:
                out.append((row[t_i], value, self.w_id, self.signal_id, row[b_i]))
        return out


@dataclass(frozen=True)
class RollingAggregateExtension(ExtensionRule):
    """Windowed aggregate over the last *window* seconds of values.

    Demonstrates "results from computations" as meta-data: e.g. the mean
    wiper speed over the last 10 s. ``statistic`` is ``"mean"``,
    ``"min"``, ``"max"`` or ``"count"``.
    """

    signal_id: str
    window: float
    statistic: str = "mean"

    _FUNCS = ("mean", "min", "max", "count")

    def __post_init__(self):
        if self.window <= 0:
            raise ExtensionError("window must be positive")
        if self.statistic not in self._FUNCS:
            raise ExtensionError(
                "statistic must be one of {}".format(self._FUNCS)
            )

    @property
    def w_id(self):
        return "{}Rolling{}".format(
            self.signal_id, self.statistic.capitalize()
        )

    def derive(self, rows, schema):
        t_i = schema.index_of("t")
        v_i = schema.index_of("v")
        b_i = schema.index_of("b_id")
        out = []
        window = []  # (t, v) within the horizon
        for row in rows:
            t, v = row[t_i], row[v_i]
            window.append((t, v))
            window = [(wt, wv) for wt, wv in window if t - wt <= self.window]
            values = [wv for _wt, wv in window]
            numeric = [
                wv for wv, number in zip(values, numeric_mask(values))
                if number
            ]
            if self.statistic == "count":
                value = len(window)
            elif not numeric:
                continue
            elif self.statistic == "mean":
                value = sum(numeric) / len(numeric)
            elif self.statistic == "min":
                value = min(numeric)
            else:
                value = max(numeric)
            out.append((t, value, self.w_id, self.signal_id, row[b_i]))
        return out


@dataclass(frozen=True)
class ExtensionSet:
    """``E``: all extension rules of one domain, indexed by signal type."""

    rules: tuple = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    @cached_property
    def _by_signal(self):
        index = defaultdict(list)
        for rule in self.rules:
            index[rule.signal_id].append(rule)
        return index

    def for_signal(self, signal_id):
        """The rules of *signal_id*, in set order."""
        return list(self._by_signal.get(signal_id, ()))


@dataclass(frozen=True)
class _DeriveExtensionsTask:
    """Partition function: one whole sequence, ordered then extended."""

    rules: tuple

    def __call__(self, rows):
        return derive_extensions(order_rows(rows), self.rules)


def apply_extensions(k_red, rules):
    """Line 12: ``W = F_E(K_red)`` for one reduced sequence.

    Returns an engine table with ``W_COLUMNS`` (empty when no rule
    applies). The sequence is gathered into one partition and handed to
    the same :func:`~repro.core.sequence.derive_extensions` every
    pipeline entry point uses: rule evaluation is sequential per
    sequence but independent (and thus parallel) across sequences.
    """
    return k_red.select(*K_S_COLUMNS).repartition(1).map_partitions(
        _DeriveExtensionsTask(tuple(rules)), list(W_COLUMNS)
    )
