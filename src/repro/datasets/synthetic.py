"""Synthetic reproductions of the paper's three data sets (Table 5).

The paper evaluates on traces recorded from one modern premium vehicle
over 20 hours of driving: SYN (13 representative signal types from
different functions), LIG (180 signal types of the light functions) and
STA (78 signal types about the car's state). Those traces are
proprietary; this module rebuilds each data set as a deterministic
vehicle simulation whose *structure* matches Table 5:

=====  ======  =====  =====  =====  =================
 set    types    α      β      γ     ∅ signals/message
=====  ======  =====  =====  =====  =================
SYN       13      6      4      3      1.47
LIG      180     27     71     82      5.11
STA       78      6      1     71      3.66
=====  ======  =====  =====  =====  =================

The branch counts are produced *by construction*: α types are
fast-changing numerics, β types slow ordinals (string levels or slow
numerics), γ types binaries and nominal state machines. The number of
examples scales linearly with the simulated duration instead of the
paper's 20 h (see EXPERIMENTS.md for the scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.reduction import Constraint, ConstraintSet, UnchangedWithinCycle
from repro.network.database import (
    BINARY,
    MessageDefinition,
    NetworkDatabase,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    SignalDefinition,
)
from repro.protocols.signalcodec import SignalEncoding
from repro.protocols.someip import message_id as someip_message_id
from repro.vehicle import behaviors as bhv
from repro.vehicle.ecu import Ecu
from repro.vehicle.gateway import Gateway, Route
from repro.vehicle.schedules import Cyclic
from repro.vehicle.vehicle import VehicleSimulation

#: Ordinal level labels (a configured ordinal vocabulary).
_ORDINAL_LEVELS = ("off", "low", "medium", "high")
#: Nominal state labels (deliberately unordered).
_NOMINAL_STATES = ("driving", "parking", "standby", "charging")

_CAN_MAX_BITS = 64
_LIN_MAX_BITS = 64

#: Bits per signal by generator class.
_ALPHA_BITS = 12
_BETA_NUM_BITS = 8
_BETA_ORD_BITS = 3
_GAMMA_BIN_BITS = 2
_GAMMA_NOM_BITS = 3


@dataclass(frozen=True)
class DatasetSpec:
    """Structural parameters of one data set (a Table 5 column)."""

    name: str
    alpha_types: int
    beta_types: int
    gamma_types: int
    avg_signals_per_message: float
    #: (channel id, protocol) pairs; messages are spread across matching
    #: protocols.
    channels: tuple
    #: Paper-reported values, kept for the Table 5 bench output.
    paper_examples: int
    seed: int = 0
    #: Fraction of α messages additionally routed through the central
    #: gateway (creating the duplicated instances ``e`` removes).
    gateway_fraction: float = 0.3

    @property
    def total_types(self):
        return self.alpha_types + self.beta_types + self.gamma_types


SYN_SPEC = DatasetSpec(
    name="SYN",
    alpha_types=6,
    beta_types=4,
    gamma_types=3,
    avg_signals_per_message=1.47,
    channels=(
        ("FC", "CAN"),
        ("BC", "CAN"),
        ("K-LIN", "LIN"),
        ("ETH", "SOMEIP"),
        ("FR", "FLEXRAY"),
    ),
    paper_examples=13_197_983,
    seed=11,
)

LIG_SPEC = DatasetSpec(
    name="LIG",
    alpha_types=27,
    beta_types=71,
    gamma_types=82,
    avg_signals_per_message=5.11,
    channels=(
        ("BC", "CAN"),
        ("FC", "CAN"),
        ("K-LIN", "LIN"),
    ),
    paper_examples=12_306_327,
    seed=22,
)

STA_SPEC = DatasetSpec(
    name="STA",
    alpha_types=6,
    beta_types=1,
    gamma_types=71,
    avg_signals_per_message=3.66,
    channels=(
        ("DC", "CAN"),
        ("FR", "FLEXRAY"),
    ),
    paper_examples=4_807_891,
    seed=33,
)

SPECS = {"SYN": SYN_SPEC, "LIG": LIG_SPEC, "STA": STA_SPEC}


@dataclass
class DatasetBundle:
    """A generated data set: database, simulation and parameterization."""

    spec: DatasetSpec
    simulation: VehicleSimulation
    alpha_ids: tuple
    beta_ids: tuple
    gamma_ids: tuple
    cycle_times: dict  # s_id -> message cycle time

    @property
    def database(self):
        return self.simulation.database

    @property
    def signal_ids(self):
        return self.alpha_ids + self.beta_ids + self.gamma_ids

    def catalog(self, signal_ids=None):
        """``U_comb`` for this data set (all signals by default)."""
        ids = self.signal_ids if signal_ids is None else signal_ids
        return self.database.translation_catalog(ids)

    def default_constraints(self, signal_ids=None):
        """Unchanged-value reduction preserving cycle violations, per the
        evaluation setup ("identical subsequent signal instances are
        removed as reduction")."""
        ids = self.signal_ids if signal_ids is None else signal_ids
        constraints = tuple(
            Constraint(s_id, True, (UnchangedWithinCycle(self.cycle_times[s_id]),))
            for s_id in ids
        )
        return ConstraintSet(constraints)

    def byte_records(self, duration):
        return self.simulation.byte_records(duration)

    def record_table(self, context, duration, num_partitions=None):
        return self.simulation.record_table(
            context, duration, num_partitions=num_partitions
        )

    def statistics(self, context, duration):
        """Measured Table 5 row for this data set at the given duration."""
        from repro.core.interpretation import interpret
        from repro.core.preselection import preselect

        k_b = self.record_table(context, duration)
        catalog = self.catalog()
        k_s = interpret(preselect(k_b, catalog), catalog)
        num_messages = k_b.count()
        num_examples = k_s.count()
        return {
            "name": self.spec.name,
            "signal_types": self.spec.total_types,
            "alpha": self.spec.alpha_types,
            "beta": self.spec.beta_types,
            "gamma": self.spec.gamma_types,
            "examples": num_examples,
            "trace_rows": num_messages,
            "avg_signals_per_message": (
                num_examples / num_messages if num_messages else 0.0
            ),
        }


def build_dataset(spec, seed_offset=0):
    """Deterministically generate one data set from its spec.

    *seed_offset* varies the behaviour seeds (not the structure), which
    is how distinct journeys of the same vehicle are produced.
    """
    seed = spec.seed + 1000 * seed_offset
    alpha_ids = tuple(
        "{}_num_{:03d}".format(spec.name.lower(), i)
        for i in range(spec.alpha_types)
    )
    beta_ids = tuple(
        "{}_ord_{:03d}".format(spec.name.lower(), i)
        for i in range(spec.beta_types)
    )
    gamma_ids = tuple(
        "{}_cat_{:03d}".format(spec.name.lower(), i)
        for i in range(spec.gamma_types)
    )

    groups = _allocate_messages(spec, alpha_ids, beta_ids, gamma_ids)
    messages = []
    behaviors_by_message = {}
    cycle_times = {}
    channel_cursor = 0
    ids_per_channel = {c: 0x100 for c, _p in spec.channels}
    lin_ids = {c: 0x10 for c, p in spec.channels if p == "LIN"}
    for group_index, (kind, members) in enumerate(groups):
        channel, protocol = _pick_channel(spec, kind, channel_cursor)
        channel_cursor += 1
        message, behaviors, cycle = _build_message(
            spec,
            kind,
            members,
            group_index,
            channel,
            protocol,
            ids_per_channel,
            lin_ids,
            seed,
        )
        messages.append(message)
        behaviors_by_message[message.name] = behaviors
        for s in members:
            cycle_times[s] = cycle

    database = NetworkDatabase(tuple(messages))
    ecu = Ecu("{}_ECU".format(spec.name))
    for i, message in enumerate(messages):
        ecu.add_transmission(
            message,
            behaviors_by_message[message.name],
            Cyclic(
                message.cycle_time,
                offset=(i % 10) * message.cycle_time / 10.0,
                jitter=message.cycle_time * 0.02,
                seed=seed + i,
            ),
        )
    simulation = VehicleSimulation(database, [ecu])

    routes = _gateway_routes(spec, messages)
    if routes:
        simulation.add_gateway(Gateway("{}_GW".format(spec.name), routes))

    return DatasetBundle(
        spec=spec,
        simulation=simulation,
        alpha_ids=alpha_ids,
        beta_ids=beta_ids,
        gamma_ids=gamma_ids,
        cycle_times=cycle_times,
    )


def build_syn(seed_offset=0):
    return build_dataset(SYN_SPEC, seed_offset)


def build_lig(seed_offset=0):
    return build_dataset(LIG_SPEC, seed_offset)


def build_sta(seed_offset=0):
    return build_dataset(STA_SPEC, seed_offset)


def journeys(spec, count, duration):
    """Raw traces of *count* distinct journeys (lists of byte records).

    All journeys share the vehicle's structure (same database) but have
    different behaviour seeds, like different drives of one car.
    """
    out = []
    for j in range(count):
        bundle = build_dataset(spec, seed_offset=j)
        out.append(bundle.byte_records(duration))
    return out


# ---------------------------------------------------------------------------
# Internal construction helpers
# ---------------------------------------------------------------------------


def _allocate_messages(spec, alpha_ids, beta_ids, gamma_ids):
    """Distribute signal ids into per-class message groups so the overall
    signals-per-message average approaches the spec's target."""
    target_messages = max(1, round(spec.total_types / spec.avg_signals_per_message))
    classes = [
        ("alpha", list(alpha_ids), _ALPHA_BITS),
        ("beta", list(beta_ids), _BETA_ORD_BITS),
        ("gamma", list(gamma_ids), _GAMMA_NOM_BITS),
    ]
    total = spec.total_types
    groups = []
    remaining_messages = target_messages
    remaining_types = total
    for kind, members, bits in classes:
        if not members:
            continue
        share = max(1, round(remaining_messages * len(members) / remaining_types))
        capacity = max(1, (_CAN_MAX_BITS - 4) // max(bits, _ALPHA_BITS if kind == "alpha" else bits))
        while (len(members) + share - 1) // share > capacity:
            share += 1
        remaining_messages = max(1, remaining_messages - share)
        remaining_types -= len(members)
        buckets = [[] for _unused in range(share)]
        for i, s_id in enumerate(members):
            buckets[i % share].append(s_id)
        groups.extend((kind, tuple(b)) for b in buckets if b)
    return groups


def _pick_channel(spec, kind, cursor):
    """Rotate message placement over the data set's channels.

    β/γ messages may live on LIN; α messages need CAN / FlexRay /
    SOME-IP bandwidth.
    """
    candidates = [
        (c, p)
        for c, p in spec.channels
        if kind != "alpha" or p != "LIN"
    ]
    return candidates[cursor % len(candidates)]


def _build_message(
    spec, kind, members, index, channel, protocol, ids_per_channel, lin_ids, seed
):
    signals = []
    behaviors = {}
    bit = 0
    for j, s_id in enumerate(members):
        if kind == "alpha":
            definition, behavior, bits = _alpha_signal(s_id, bit, seed + index * 31 + j)
        elif kind == "beta":
            definition, behavior, bits = _beta_signal(
                s_id, bit, j, seed + index * 37 + j
            )
        else:
            definition, behavior, bits = _gamma_signal(
                s_id, bit, j, seed + index * 41 + j
            )
        signals.append(definition)
        behaviors[s_id] = behavior
        bit += bits
    payload_length = max(1, (bit + 7) // 8)
    if protocol == "FLEXRAY" and payload_length % 2:
        payload_length += 1
    cycle = _cycle_time(kind, index)
    if protocol == "LIN":
        m_id = lin_ids[channel]
        lin_ids[channel] += 1
        if m_id > 0x3F:
            raise ValueError("LIN id space exhausted on {}".format(channel))
        cycle = max(cycle, 0.2)  # LIN masters schedule slowly
    elif protocol == "SOMEIP":
        m_id = someip_message_id(0x0100 + index, 0x8000 + index)
    elif protocol == "FLEXRAY":
        m_id = 1 + (ids_per_channel[channel] - 0x100)
        ids_per_channel[channel] += 1
    else:
        m_id = ids_per_channel[channel]
        ids_per_channel[channel] += 1
    message = MessageDefinition(
        name="{}_{}_{:03d}".format(spec.name, kind.upper(), index),
        message_id=m_id,
        channel=channel,
        protocol=protocol,
        payload_length=payload_length,
        signals=tuple(signals),
        cycle_time=cycle,
    )
    return message, behaviors, cycle


def _cycle_time(kind, index):
    if kind == "alpha":
        return (0.02, 0.05, 0.04, 0.025, 0.1)[index % 5]
    if kind == "beta":
        # Slow cycles keep the numeric ordinals below the rate threshold
        # T (Eq. 2) so they classify as β, not α.
        return (2.0, 1.6, 2.5)[index % 3]
    return (0.2, 0.25, 0.5)[index % 3]


def _alpha_signal(s_id, bit, seed):
    """Fast-changing numeric signal (classified N/H/>2 -> α)."""
    encoding = SignalEncoding(
        start_bit=bit, bit_length=_ALPHA_BITS, scale=0.1, offset=0.0
    )
    variant = seed % 3
    if variant == 0:
        inner = bhv.Sine(
            amplitude=80.0, period=8.0 + (seed % 7), mean=150.0,
            noise=1.5, seed=seed,
        )
    elif variant == 1:
        inner = bhv.RandomWalk(
            step=2.0, seed=seed, start=120.0, minimum=0.0, maximum=300.0
        )
    else:
        inner = bhv.Sawtooth(amplitude=200.0, period=10.0 + (seed % 5), minimum=20.0)
    behavior = bhv.OutlierInjector(
        inner, rate=0.003, magnitude=180.0, seed=seed + 5
    )
    return (
        SignalDefinition(s_id, encoding, unit="unit", data_class=NUMERIC),
        behavior,
        _ALPHA_BITS,
    )


def _beta_signal(s_id, bit, j, seed):
    """Slow ordinal signal: string levels (with rare validity values) or
    slow numerics (classified -> β)."""
    if j % 2 == 0:
        table = tuple(enumerate(_ORDINAL_LEVELS)) + ((7, "invalid"),)
        encoding = SignalEncoding(
            start_bit=bit, bit_length=_BETA_ORD_BITS, value_table=table
        )
        behavior = bhv.Occasionally(
            bhv.OrdinalSteps(_ORDINAL_LEVELS, dwell=4.0 + (seed % 5), seed=seed),
            replacement="invalid",
            rate=0.01,
            seed=seed + 9,
        )
        return (
            SignalDefinition(s_id, encoding, data_class=ORDINAL),
            behavior,
            _BETA_ORD_BITS,
        )
    encoding = SignalEncoding(
        start_bit=bit, bit_length=_BETA_NUM_BITS, scale=1.0
    )
    behavior = bhv.Quantized(
        bhv.Sine(amplitude=40.0, period=120.0 + seed % 60, mean=90.0, seed=seed),
        step=1.0,
    )
    return (
        SignalDefinition(s_id, encoding, data_class=ORDINAL),
        behavior,
        _BETA_NUM_BITS,
    )


def _gamma_signal(s_id, bit, j, seed):
    """Binary or nominal signal (classified -> γ)."""
    if j % 2 == 0:
        table = ((0, "OFF"), (1, "ON"), (3, "invalid"))
        encoding = SignalEncoding(
            start_bit=bit, bit_length=_GAMMA_BIN_BITS, value_table=table
        )
        behavior = bhv.Toggle(
            period=20.0 + 7 * (seed % 5), on_value="ON", off_value="OFF"
        )
        return (
            SignalDefinition(s_id, encoding, data_class=BINARY),
            behavior,
            _GAMMA_BIN_BITS,
        )
    table = tuple(enumerate(_NOMINAL_STATES)) + ((7, "invalid"),)
    encoding = SignalEncoding(
        start_bit=bit, bit_length=_GAMMA_NOM_BITS, value_table=table
    )
    transitions = {
        "driving": (("parking", 1.0), ("standby", 0.5), ("driving", 3.0)),
        "parking": (("driving", 1.0), ("charging", 0.8), ("parking", 2.0)),
        "standby": (("driving", 1.0), ("standby", 1.0)),
        "charging": (("parking", 1.0), ("charging", 2.0)),
    }
    behavior = bhv.StateMachine(
        states=_NOMINAL_STATES,
        transitions=transitions,
        dwell=6.0 + (seed % 7),
        seed=seed,
    )
    return (
        SignalDefinition(s_id, encoding, data_class=NOMINAL),
        behavior,
        _GAMMA_NOM_BITS,
    )


def _gateway_routes(spec, messages):
    """Route a fraction of α CAN messages onto a second CAN channel."""
    can_channels = [c for c, p in spec.channels if p == "CAN"]
    if len(can_channels) < 2:
        return ()
    src, dst = can_channels[0], can_channels[1]
    candidates = [
        m for m in messages if m.channel == src and "ALPHA" in m.name
    ]
    if not candidates:
        return ()
    count = max(1, int(len(candidates) * spec.gateway_fraction + 0.5))
    # Forwarded copies are re-identified into a dedicated id range so
    # they never collide with the destination channel's native messages.
    return tuple(
        Route(src, m.message_id, dst, delay=0.0015, dst_message_id=0x700 + i)
        for i, m in enumerate(candidates[:count])
    )
