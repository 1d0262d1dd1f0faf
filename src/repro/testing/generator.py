"""Seeded random generation of trace-shaped tables and logical plans.

Everything here is deterministic given a seed: the same seed always
produces the same dataset and the same plan spec, on any host (no use of
``hash`` on strings, no wall-clock input).

A *plan spec* is a tuple of pure-data op tuples -- ``("filter_cmp", "v",
"gt", 40)``, ``("join",)`` -- that :func:`apply_spec` replays against a
:class:`~repro.engine.table.Table`. The grammar is the engine's operator
set: filters, projections, the inner broadcast join, union,
repartition, flat-map, partition map, ascending sort and split by key.
Keeping specs as plain data (JSON-serializable) is what makes shrinking
and on-disk reproducers possible; callables needed by flat-map and
partition-map ops are reconstructed from their encoded parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine import col

#: Value domains for the trace-shaped table. Mirrors a decoded CAN/LIN
#: signal table: timestamp, skewed message id, bus name, numeric signal
#: value with NULLs, sparse string annotation.
TRACE_COLUMNS = ("t", "m_id", "bus", "v", "flag")
CATALOG_COLUMNS = ("m_id", "scale", "label")
_BUSES = ("FC", "BC", "K-LIN")
_FLAGS = (None, None, None, "rise", "fall", "hold")
_MESSAGE_IDS = tuple(range(8))


@dataclass(frozen=True)
class DatasetCase:
    """One generated input: a trace table plus a small catalog table.

    ``trace_partitions`` preserves an explicit partition layout (possibly
    with empty partitions) because partition boundaries are exactly what
    distributed execution can get wrong.
    """

    trace_partitions: tuple  # tuple of tuples of row tuples
    catalog_rows: tuple

    def total_rows(self):
        return sum(len(p) for p in self.trace_partitions)


@dataclass(frozen=True)
class _ColumnInfo:
    """What the generator may safely do with a column."""

    orderable: bool  # usable as a sort key
    numeric: bool  # usable in arithmetic
    nullable: bool


_BASE_INFO = {
    "t": _ColumnInfo(True, True, False),
    "m_id": _ColumnInfo(True, True, False),
    "bus": _ColumnInfo(True, False, False),
    "v": _ColumnInfo(False, True, True),
    "flag": _ColumnInfo(False, False, True),
}


def generate_dataset(rng):
    """Draw a trace table and catalog from *rng* (a ``random.Random``)."""
    num_rows = rng.choice((0, rng.randint(1, 30), rng.randint(20, 120)))
    num_partitions = rng.randint(1, 6)
    t = 0.0
    rows = []
    for _unused in range(num_rows):
        t += rng.choice((0.0, 0.01, 0.1, 0.5))
        # Skewed message ids: low ids dominate, as real bus traffic does.
        m_id = _MESSAGE_IDS[min(int(rng.random() ** 2 * len(_MESSAGE_IDS)),
                                len(_MESSAGE_IDS) - 1)]
        v = None if rng.random() < 0.15 else rng.randint(0, 100)
        rows.append((t, m_id, rng.choice(_BUSES), v, rng.choice(_FLAGS)))
    partitions = [[] for _unused in range(num_partitions)]
    for row in rows:
        partitions[rng.randrange(num_partitions)].append(row)
    catalog = tuple(
        (m, rng.randint(1, 5), "msg-{}".format(m))
        for m in _MESSAGE_IDS
        if rng.random() < 0.8  # leave some ids unmatched by the join
    )
    return DatasetCase(
        tuple(tuple(p) for p in partitions), catalog
    )


def corrupt_dataset(case, rng):
    """Return a lossy transport variant of *case*.

    Models what gateways and flaky loggers do to real traces: exact
    duplicate frames (replays, possibly landing in another partition),
    backwards clock steps (non-monotonic ``t``), and frames whose value
    was lost in transit (``v`` nulled, as a truncated payload decodes to
    nothing). The plan grammar has no ordering assumptions the engine
    does not enforce itself, so every combo must agree on lossy input
    exactly as it does on clean input.
    """
    partitions = [list(p) for p in case.trace_partitions]
    index = [
        (i, j) for i, p in enumerate(partitions) for j in range(len(p))
    ]
    if not index:
        return case
    for _unused in range(rng.randint(1, 3)):  # gateway replays
        i, j = index[rng.randrange(len(index))]
        partitions[rng.randrange(len(partitions))].append(partitions[i][j])
    if rng.random() < 0.7:  # backwards clock step
        i, j = index[rng.randrange(len(index))]
        row = partitions[i][j]
        back = rng.choice((0.01, 0.1, 1.0))
        partitions[i][j] = (max(0.0, row[0] - back),) + row[1:]
    if rng.random() < 0.5:  # payload truncated in transport
        i, j = index[rng.randrange(len(index))]
        row = partitions[i][j]
        partitions[i][j] = row[:3] + (None,) + row[4:]
    return DatasetCase(
        tuple(tuple(p) for p in partitions), case.catalog_rows
    )


# ---------------------------------------------------------------------------
# Plan specs
# ---------------------------------------------------------------------------

_COMPARISONS = ("lt", "le", "gt", "ge")


def generate_spec(rng, case, max_ops=8):
    """Draw a random plan spec valid for *case*'s schema.

    Tracks per-column orderability/nullability so every generated spec
    builds without schema errors; shrinking may still produce invalid
    specs, which the shrinker filters by attempting to build them.
    """
    info = dict(_BASE_INFO)
    joined = False
    unions = 0
    ops = []
    for _unused in range(rng.randint(1, max_ops)):
        choices = ["filter_cmp", "filter_null", "filter_in", "select",
                   "repartition", "flat_map_repeat", "keep_every", "sort"]
        if unions < 2:  # each union doubles the executed subtree
            choices.append("union_self")
        if any(i.numeric and not i.nullable for i in info.values()):
            choices += ["with_column_scale", "scale_filter_select"]
        if "m_id" in info and not joined:
            choices.append("join")
        if any(n in info for n in ("m_id", "bus", "flag")):
            choices.append("split_pick")
        op = _draw_op(rng, rng.choice(choices), info, joined)
        if op is None:
            continue
        ops.append(op)
        if op[0] == "union_self":
            unions += 1
        info, joined = _advance_schema(op, info, joined)
        if not info:  # defensive; should not happen
            break
    return tuple(ops)


def _draw_op(rng, kind, info, joined):
    names = list(info)
    orderable = [n for n, i in info.items() if i.orderable]
    numeric = [n for n, i in info.items() if i.numeric and not i.nullable]
    if kind == "filter_cmp":
        candidates = [n for n in orderable if info[n].numeric]
        if not candidates:
            return None
        return ("filter_cmp", rng.choice(candidates),
                rng.choice(_COMPARISONS), rng.randint(0, 60))
    if kind == "filter_null":
        name = rng.choice(names)
        return ("filter_null", name, rng.random() < 0.3)
    if kind == "split_pick":
        # Shuffle every row by a key column, keep one group's table.
        # Keys sometimes miss the data entirely (empty result table).
        candidates = [n for n in ("m_id", "bus", "flag") if n in info]
        if not candidates:
            return None
        name = rng.choice(candidates)
        if name == "m_id":
            value = rng.randint(0, len(_MESSAGE_IDS) - 1)
        elif name == "bus":
            value = rng.choice(_BUSES + ("GHOST",))
        else:
            value = rng.choice(("rise", "fall", "hold", "none"))
        return ("split_pick", name, value)
    if kind == "filter_in":
        name = rng.choice(names)
        if info[name].numeric:
            values = sorted(rng.sample(range(0, 101), rng.randint(1, 6)))
        else:
            values = sorted(
                rng.sample(_BUSES + ("rise", "fall", "none"),
                           rng.randint(1, 3))
            )
        return ("filter_in", name, tuple(values))
    if kind == "select":
        keep = rng.sample(names, rng.randint(1, len(names)))
        # Preserve original relative order half the time, shuffle otherwise.
        if rng.random() < 0.5:
            keep = [n for n in names if n in set(keep)]
        return ("select", tuple(keep))
    if kind == "with_column_scale":
        if not numeric:
            return None
        return ("with_column_scale", "d{}".format(rng.randint(0, 99)),
                rng.choice(numeric), rng.randint(2, 9))
    if kind == "scale_filter_select":
        # The shape of Algorithm 1 lines 5-6: compute a column, filter
        # on it, keep fewer columns than were computed (project pruning).
        if not numeric:
            return None
        name = "d{}".format(rng.randint(0, 99))
        pool = [n for n in names if n != name] + [name]
        keep = rng.sample(pool, rng.randint(1, len(pool) - 1))
        return ("scale_filter_select", name, rng.choice(numeric),
                rng.randint(2, 9), rng.choice(_COMPARISONS),
                rng.randint(0, 200), tuple(keep))
    if kind == "join":
        return ("join",)
    if kind == "union_self":
        return ("union_self",)
    if kind == "repartition":
        return ("repartition", rng.randint(1, 6))
    if kind == "flat_map_repeat":
        return ("flat_map_repeat", rng.randint(1, 3))
    if kind == "keep_every":
        return ("keep_every", rng.randint(1, 4))
    if kind == "sort":
        keys = rng.sample(orderable, min(len(orderable), rng.randint(1, 2)))
        return ("sort", tuple(keys))
    raise ValueError("unknown op kind {!r}".format(kind))


def _advance_schema(op, info, joined):
    """Track column metadata across one op, mirroring apply_spec."""
    kind = op[0]
    info = dict(info)
    if kind == "select":
        info = {n: info[n] for n in op[1]}
    elif kind == "with_column_scale":
        info[op[1]] = _ColumnInfo(True, True, False)
    elif kind == "scale_filter_select":
        info[op[1]] = _ColumnInfo(True, True, False)
        info = {n: info[n] for n in op[6]}
    elif kind == "join":
        info["scale"] = _ColumnInfo(True, True, False)
        info["label"] = _ColumnInfo(True, False, False)
        joined = True
    return info, joined


# ---------------------------------------------------------------------------
# Spec replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepeatRow:
    """Picklable flat-map body: emit each row ``n`` times."""

    n: int

    def __call__(self, row):
        return [row] * self.n


@dataclass(frozen=True)
class KeepEvery:
    """Picklable partition map: keep rows at indices 0, k, 2k, ..."""

    k: int

    def __call__(self, rows):
        return rows[:: self.k]


def build_table(ctx, case):
    """Materialize the case's trace table, preserving its partitions."""
    return ctx.table_from_partitions(TRACE_COLUMNS, case.trace_partitions)


def _catalog_table(ctx, case):
    return ctx.table_from_rows(
        CATALOG_COLUMNS, case.catalog_rows, num_partitions=1
    )


def apply_spec(ctx, case, spec):
    """Replay *spec* over the case's tables; returns the final Table.

    Raises :class:`~repro.engine.errors.EngineError` subclasses when the
    spec is invalid for the current schema -- the shrinker relies on this
    to discard invalid shrink candidates.
    """
    table = build_table(ctx, case)
    for op in spec:
        table = _apply_op(ctx, case, table, op)
    return table


def _apply_op(ctx, case, table, op):
    kind = op[0]
    if kind == "filter_cmp":
        _unused, name, cmp_op, value = op
        column = col(name)
        predicate = {
            "lt": column < value,
            "le": column <= value,
            "gt": column > value,
            "ge": column >= value,
            "eq": column == value,
            "ne": column != value,
        }[cmp_op]
        return table.filter(predicate)
    if kind == "filter_null":
        _unused, name, want_null = op
        column = col(name)
        return table.filter(
            column.is_null() if want_null else column.is_not_null()
        )
    if kind == "filter_in":
        return table.filter(col(op[1]).is_in(op[2]))
    if kind == "split_pick":
        return table.split_by_key(op[1], keys=[op[2]])[op[2]]
    if kind == "select":
        return table.select(*op[1])
    if kind == "with_column_scale":
        _unused, name, src, factor = op
        return table.with_column(name, col(src) * factor)
    if kind == "scale_filter_select":
        _unused, name, src, factor, cmp_op, value, keep = op
        scaled = table.with_column(name, col(src) * factor)
        return _apply_op(
            ctx, case, scaled, ("filter_cmp", name, cmp_op, value)
        ).select(*keep)
    if kind == "join":
        return table.join(_catalog_table(ctx, case), on="m_id")
    if kind == "union_self":
        return table.union(table)
    if kind == "repartition":
        return table.repartition(op[1])
    if kind == "flat_map_repeat":
        return table.flat_map(RepeatRow(op[1]), list(table.columns))
    if kind == "keep_every":
        return table.map_partitions(KeepEvery(op[1]))
    if kind == "sort":
        return table.sort(list(op[1]))
    raise ValueError("unknown op kind {!r}".format(kind))


def generate_case(seed, max_ops=8, lossy=False):
    """Generate the (dataset, spec) pair for one seed.

    With ``lossy=True`` the dataset is additionally passed through
    :func:`corrupt_dataset`. The corruption draws happen *after* every
    clean draw, so ``generate_case(seed)`` and the clean prefix of
    ``generate_case(seed, lossy=True)`` are identical for any seed —
    lossy fuzzing extends the corpus instead of reshuffling it.
    """
    rng = random.Random(seed)
    case = generate_dataset(rng)
    spec = generate_spec(rng, case, max_ops=max_ops)
    if lossy:
        case = corrupt_dataset(case, rng)
    return case, spec


# ---------------------------------------------------------------------------
# Journey cases: random vehicles with real payload encodings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JourneyCase:
    """A generated vehicle: network database, parameter doc, trace.

    ``records`` are time-ordered ``k_b`` byte-record tuples encoded
    through the real :meth:`MessageDefinition.encode` path, so
    preselection/interpretation exercise genuine payload decoding, not
    synthetic shortcuts. The shape respects the incremental-equivalence
    preconditions (one channel per signal, ``dedup_channels`` false,
    at least two frames per message).
    """

    database: object  # NetworkDatabase
    params: dict  # declarative parameter document (core.params schema)
    records: tuple  # k_b byte-record tuples, time-ordered

    def duration(self):
        return self.records[-1][0] - self.records[0][0] if self.records else 0.0


_JOURNEY_CYCLES = (0.05, 0.1, 0.2, 0.25)
_JOURNEY_LEVELS = (
    (0, "off"), (1, "low"), (2, "mid"), (3, "high"),
)


def generate_journey_case(rng, lossy=False):
    """Draw a :class:`JourneyCase` from *rng* (a ``random.Random``).

    With ``lossy=True`` the finished journey is additionally passed
    through the transport corruption models of
    :mod:`repro.vehicle.corruption` (replayed duplicates, clock skew
    with non-monotonic steps, dropped and truncated frames) and the
    parameter document switches to ``short_payload: skip``. Corruption
    draws come after every clean draw, so clean journeys per seed are
    stable across the two modes.

    1-3 CAN messages on one channel, each with 1-2 signals (numeric
    random walks or ordinal level machines), cyclic transmission with
    random dropouts (gaps), and a parameter document drawing random
    reduction constraints and extension rules per signal.
    """
    from repro.network import (
        MessageDefinition,
        NetworkDatabase,
        SignalDefinition,
    )
    from repro.protocols import SignalEncoding

    messages = []
    behaviours = {}  # signal name -> callable(step) -> physical value
    signal_meta = []  # (name, kind, cycle_time)
    for m_index in range(rng.randint(1, 3)):
        cycle = rng.choice(_JOURNEY_CYCLES)
        signals = []
        bit = 0
        for s_index in range(rng.randint(1, 2)):
            name = "sig{}_{}".format(m_index, s_index)
            if rng.random() < 0.7:
                scale = rng.choice((1.0, 0.5, 0.25))
                signals.append(SignalDefinition(
                    name, SignalEncoding(bit, 16, scale=scale),
                    data_class="numeric",
                ))
                behaviours[name] = _random_walk(rng, scale)
                signal_meta.append((name, "numeric", cycle))
            else:
                signals.append(SignalDefinition(
                    name,
                    SignalEncoding(bit, 2, value_table=_JOURNEY_LEVELS),
                    data_class="ordinal",
                ))
                behaviours[name] = _level_machine(rng)
                signal_meta.append((name, "ordinal", cycle))
            bit += 16
        messages.append(MessageDefinition(
            "MSG{}".format(m_index), 0x10 + m_index, "FC", "CAN", 4,
            tuple(signals), cycle_time=cycle,
        ))
    database = NetworkDatabase(tuple(messages))

    duration = rng.uniform(2.0, 6.0)
    records = []
    for message in messages:
        steps = max(2, int(duration / message.cycle_time))
        for i in range(steps):
            # Dropouts create the gaps the gap/cycle-violation rules
            # look for; keep the first two frames so every message is
            # observed at least twice.
            if i >= 2 and rng.random() < 0.1:
                continue
            t = round(i * message.cycle_time, 6)
            payload = message.encode({
                s.name: behaviours[s.name](i) for s in message.signals
            })
            records.append((
                t, bytes(payload), message.channel, message.message_id,
                (("protocol", "CAN"),),
            ))
    records.sort(key=lambda r: (r[0], str(r[2]), r[3]))

    constraints = []
    extensions = []
    for name, kind, cycle in signal_meta:
        draw = rng.random()
        if kind == "numeric":
            if draw < 0.4:
                constraints.append({
                    "signal": name, "type": "unchanged_within_cycle",
                    "cycle_time": cycle,
                    "tolerance": rng.choice((1.2, 1.5, 2.0)),
                })
            elif draw < 0.6:
                constraints.append({"signal": name, "type": "unchanged"})
            elif draw < 0.8:
                constraints.append({
                    "signal": name, "type": "minimum_gap",
                    "min_gap": cycle * rng.choice((1.5, 3.0)),
                })
            # else: unconstrained signal (kept verbatim)
        else:
            if draw < 0.5:
                constraints.append({"signal": name, "type": "unchanged"})
        ext_draw = rng.random()
        if ext_draw < 0.25:
            extensions.append({"signal": name, "type": "gap"})
        elif ext_draw < 0.4:
            extensions.append({
                "signal": name, "type": "cycle_violation",
                "expected_cycle": cycle,
                "tolerance": rng.choice((1.5, 1.8)),
            })
    params = {
        "signals": [name for name, _kind, _cycle in signal_meta],
        "constraints": constraints,
        "extensions": extensions,
        "branch": {
            "sax_alphabet": rng.choice((3, 4, 5)),
            "smoothing_window": rng.choice((3, 5)),
            "rate_threshold": rng.choice((0.5, 1.0, 2.0)),
        },
        # Equivalence precondition: gateway dedup compares copies across
        # channels, which windowed runs cannot see across boundaries.
        "dedup_channels": False,
    }
    case = JourneyCase(
        database=database, params=params, records=tuple(records)
    )
    if lossy:
        case = _corrupt_journey(case, rng)
    return case


def _corrupt_journey(case, rng):
    """Apply transport corruption models to a clean journey.

    Draws only *after* every clean draw, so the clean journey for a
    given rng state is unchanged. The parameter document switches to
    ``short_payload: skip`` because truncated frames are expected, not
    exceptional, on a lossy bus.
    """
    from repro.vehicle.corruption import (
        ClockSkew,
        FrameDrop,
        GatewayDuplicate,
        PayloadTruncation,
        corrupt,
    )

    models = []
    if rng.random() < 0.7:
        models.append(GatewayDuplicate(rate=rng.choice((0.05, 0.2))))
    if rng.random() < 0.7:
        models.append(ClockSkew(
            drift=rng.choice((0.0, 0.002)),
            step_rate=rng.choice((0.02, 0.08)),
            step_scale=0.05,
        ))
    if rng.random() < 0.4:
        models.append(FrameDrop(rate=0.05))
    if rng.random() < 0.5:
        models.append(PayloadTruncation(rate=0.1))
    if not models:
        models.append(GatewayDuplicate(rate=0.1))
    corrupted, _log = corrupt(
        case.records, models, seed=rng.randrange(2 ** 32)
    )
    params = dict(case.params)
    params["short_payload"] = "skip"
    return JourneyCase(
        database=case.database, params=params, records=tuple(corrupted)
    )


def _random_walk(rng, scale):
    """A bounded integer-step random walk in physical units."""
    state = {"v": rng.randint(20, 80)}
    hold = rng.randint(1, 6)  # plateaus make reduction worthwhile

    def behaviour(step):
        if step % hold == 0 and rng.random() < 0.7:
            state["v"] = min(120, max(0, state["v"] + rng.randint(-5, 5)))
        return state["v"] * scale

    return behaviour


def _level_machine(rng):
    """An ordinal level that dwells, then jumps to a neighbour level."""
    labels = [label for _raw, label in _JOURNEY_LEVELS]
    state = {"i": rng.randrange(len(labels))}
    dwell = rng.randint(3, 10)

    def behaviour(step):
        if step and step % dwell == 0:
            state["i"] = max(
                0, min(len(labels) - 1, state["i"] + rng.choice((-1, 1)))
            )
        return labels[state["i"]]

    return behaviour
