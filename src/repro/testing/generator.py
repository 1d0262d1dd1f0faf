"""Seeded random journeys: a vehicle's network database, parameter
document and ``K_b`` trace.

Everything here is deterministic given the ``random.Random`` passed in:
the same state always draws the same journey, on any host (no use of
``hash`` on strings, no wall-clock input).
"""

from __future__ import annotations

from dataclasses import dataclass


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
