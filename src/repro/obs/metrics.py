"""Counters, gauges, histograms and the shared percentile helpers.

Percentiles use the *nearest-rank* definition throughout: the q-th
percentile of n sorted values is the value at index ``ceil(q/100 * n) -
1``. That definition is exact for the small-n case this repository
cares about (per-signal gap statistics over a handful of instances) and
has no interpolation ambiguity: p0 is the minimum, p100 the maximum,
and p50 of an even-length sequence is the lower-middle element.

Two previously hand-rolled order statistics were wrong and now route
through here:

* ``core/profiling.py`` computed ``gaps[int(len(gaps) * 0.95)]`` for
  p95, which for n = 20 indexes element 19 -- the maximum, i.e. p100;
* ``core/profiling.py`` and ``core/classification.py`` both took
  ``values[len(values) // 2]`` as the median, the *upper* middle for
  even n, and could disagree with any consumer using the lower one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def nearest_rank_index(n, q):
    """Index of the q-th percentile in an n-element sorted sequence.

    ``ceil(q/100 * n) - 1``, clamped into ``[0, n - 1]`` so q = 0 maps
    to the minimum rather than index -1.
    """
    if n <= 0:
        raise ValueError("need at least one value for a percentile")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100], got {}".format(q))
    return min(max(math.ceil(q / 100.0 * n) - 1, 0), n - 1)


def percentile(values, q):
    """Nearest-rank q-th percentile of *values* (any iterable)."""
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), q)]


def median(values):
    """Nearest-rank median (p50): lower-middle element for even n."""
    return percentile(values, 50)


@dataclass
class Counter:
    """A monotonically increasing integer metric."""

    name: str
    value: int = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount
        return self.value


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value):
        self.value = value
        return self.value

    def set_max(self, value):
        """Keep the running maximum (e.g. largest pickled task)."""
        if value > self.value:
            self.value = value
        return self.value


@dataclass
class Histogram:
    """A distribution of observed values with nearest-rank percentiles."""

    name: str
    _values: list = field(default_factory=list)

    def observe(self, value):
        self._values.append(value)

    @property
    def count(self):
        return len(self._values)

    @property
    def total(self):
        return sum(self._values)

    @property
    def mean(self):
        return self.total / len(self._values) if self._values else 0.0

    @property
    def min(self):
        return min(self._values) if self._values else None

    @property
    def max(self):
        return max(self._values) if self._values else None

    def percentile(self, q):
        if not self._values:
            raise ValueError(
                "histogram {!r} is empty; no percentile".format(self.name)
            )
        return percentile(self._values, q)

    def values(self):
        return tuple(self._values)

    def summary(self):
        """Dict summary used by report serialization."""
        if not self._values:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use.

    One registry per component (an executor, a pipeline run, a fuzz
    campaign); :meth:`snapshot` turns it into plain dicts for a
    :class:`~repro.obs.report.RunReport` and :meth:`merge_into` folds
    one registry into another (optionally prefixing names) when a
    parent report aggregates sub-components.
    """

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- accessors (get-or-create) --------------------------------------
    def counter(self, name):
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- conveniences ---------------------------------------------------
    def inc(self, name, amount=1):
        return self.counter(name).inc(amount)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    def set_gauge(self, name, value):
        return self.gauge(name).set(value)

    def counters(self):
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self):
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self):
        return {
            name: h.summary() for name, h in sorted(self._histograms.items())
        }

    def reset(self):
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self):
        """Plain-dict view: {"counters": ..., "gauges": ..., "histograms": ...}."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def merge_into(self, other, prefix=""):
        """Fold this registry's metrics into *other* (adding counters,
        overwriting gauges, extending histograms)."""
        for name, metric in self._counters.items():
            other.counter(prefix + name).inc(metric.value)
        for name, metric in self._gauges.items():
            other.gauge(prefix + name).set(metric.value)
        for name, metric in self._histograms.items():
            target = other.histogram(prefix + name)
            for value in metric.values():
                target.observe(value)
        return other

    def merge(self, other, prefix=""):
        """Fold *other*'s metrics into this registry; returns self.

        The inverse orientation of :meth:`merge_into`, for aggregators
        that accumulate many component registries into one (the fleet
        layer merges per-trace pipeline registries this way): counters
        add, gauges take *other*'s value (last write wins), histograms
        extend with *other*'s observations.
        """
        other.merge_into(self, prefix=prefix)
        return self
