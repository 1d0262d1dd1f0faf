"""Per-signal trace profiling.

Before parameterizing the framework, domain experts inspect what a trace
contains: which signals occur, how often, with what value ranges, gaps
and change behaviour. The paper's heterogeneity challenge ("over 10 000
signal types are verified ... this requires per-signal analyses")
motivates exactly this profiling step; its output also suggests the
reduction constraints (observed cycle time) and classification
expectations (rate, distinct values) for a signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classification import all_numeric, time_gaps
from repro.core.sequence import classify_sequence, order_rows
from repro.core.splitting import split_signal_types
from repro.obs import median, percentile


@dataclass(frozen=True)
class SignalProfile:
    """Summary of one signal type's instances in a trace."""

    signal_id: str
    count: int
    channels: tuple
    first_seen: float
    last_seen: float
    distinct_values: int
    numeric: bool
    value_min: object
    value_max: object
    median_gap: float
    p95_gap: float
    change_ratio: float  # fraction of instances that changed the value
    data_type: str
    branch: str

    @property
    def duration(self):
        return self.last_seen - self.first_seen

    @property
    def rate(self):
        """Average instances per second over the observed span."""
        if self.duration <= 0:
            return 0.0
        return (self.count - 1) / self.duration

    def suggested_cycle_time(self):
        """The observed median gap, rounded -- a starting point for
        ``UnchangedWithinCycle`` constraints."""
        return round(self.median_gap, 6)


def profile_signal(rows, signal_id, config=None):
    """Profile one signal's (t, v, s_id, b_id) rows."""
    if not rows:
        raise ValueError("cannot profile an empty sequence")
    sequence = order_rows(rows)
    times = sequence.t.tolist()
    values = sequence.v.tolist()
    channels = tuple(sorted(set(map(str, sequence.b.tolist()))))
    gaps = time_gaps(times)[1].tolist()  # positive only: 0.0 is no cycle
    numeric = all_numeric(values)
    changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
    classification = classify_sequence(sequence, config)
    return SignalProfile(
        signal_id=signal_id,
        count=len(rows),
        channels=channels,
        first_seen=times[0],
        last_seen=times[-1],
        distinct_values=len(set(map(str, values))),
        numeric=numeric,
        value_min=min(values) if numeric else None,
        value_max=max(values) if numeric else None,
        median_gap=median(gaps) if gaps else 0.0,
        p95_gap=percentile(gaps, 95) if gaps else 0.0,
        change_ratio=changes / (len(rows) - 1) if len(rows) > 1 else 0.0,
        data_type=classification.data_type,
        branch=classification.branch,
    )


def profile_trace(k_s, signal_ids=None, config=None):
    """Profile every signal type of a K_s table.

    Returns {s_id: SignalProfile}, skipping signals without instances.
    """
    per_signal = split_signal_types(k_s, signal_ids)
    out = {}
    for s_id, table in per_signal.items():
        rows = table.collect()
        if rows:
            out[s_id] = profile_signal(rows, s_id, config)
    return out


def profile_report(profiles, sort_by="count"):
    """Plain-text report table over a profile dict."""
    key_funcs = {
        "count": lambda p: -p.count,
        "rate": lambda p: -p.rate,
        "signal": lambda p: p.signal_id,
    }
    if sort_by not in key_funcs:
        raise ValueError("sort_by must be one of {}".format(sorted(key_funcs)))
    ordered = sorted(profiles.values(), key=key_funcs[sort_by])
    header = (
        "signal", "count", "rate/s", "distinct", "median gap",
        "change%", "type", "branch", "channels",
    )
    rows = [
        (
            p.signal_id,
            p.count,
            round(p.rate, 2),
            p.distinct_values,
            round(p.median_gap, 4),
            round(100 * p.change_ratio, 1),
            p.data_type,
            p.branch,
            ",".join(p.channels),
        )
        for p in ordered
    ]
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
