"""DBC/FIBEX-style network database.

The paper assumes signals "are documented and known per domain"
(Sec. 3.1): every OEM maintains a communication database describing which
message carries which signal at which bytes with which scaling. This
module is that database. It validates message layouts, encodes and
decodes payloads for the simulator, and -- crucially for the framework --
derives the translation catalog ``U_rel`` consumed by the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model import FUNCTIONAL, VALIDITY, Alphabet, SignalType
from repro.core.rules import InterpretationRule, RuleCatalog, TranslationTuple
from repro.protocols import can, flexray, lin, someip
from repro.protocols.signalcodec import SignalEncoding, overlaps

#: Data-class hints used by the dataset generators and ground truth for
#: the classification stage (Table 3): what the signal's value stream is.
NUMERIC = "numeric"
ORDINAL = "ordinal"
NOMINAL = "nominal"
BINARY = "binary"

_PROTOCOL_MODULES = {
    "CAN": can,
    "LIN": lin,
    "SOMEIP": someip,
    "FLEXRAY": flexray,
}


class DatabaseError(ValueError):
    """Raised for inconsistent database definitions."""


@dataclass(frozen=True)
class SignalDefinition:
    """One documented signal within a message.

    ``section_bit`` marks SOME/IP presence-conditional signals; their
    encoding is relative to the optional section body.
    """

    name: str
    encoding: SignalEncoding
    unit: str = ""
    kind: str = FUNCTIONAL
    data_class: str = NUMERIC
    section_bit: int = None
    comment: str = ""
    #: CAN multiplexing: raw selector value under which this signal is
    #: present (None = always present). The message names its selector
    #: signal via ``MessageDefinition.multiplexor``.
    mux_value: int = None

    def __post_init__(self):
        if self.kind not in (FUNCTIONAL, VALIDITY):
            raise DatabaseError(
                "signal kind must be functional or validity"
            )
        if self.data_class not in (NUMERIC, ORDINAL, NOMINAL, BINARY):
            raise DatabaseError(
                "unknown data class {!r}".format(self.data_class)
            )

    def to_signal_type(self):
        return SignalType(self.name, self.unit, self.kind, self.comment)


@dataclass(frozen=True)
class MessageDefinition:
    """One documented message type on one channel."""

    name: str
    message_id: int
    channel: str
    protocol: str
    payload_length: int
    signals: tuple
    cycle_time: float = None  # seconds; None = event-driven
    layout: object = None  # someip.ConditionalLayout for conditional payloads
    multiplexor: str = None  # selector signal name for mux_value signals

    def __post_init__(self):
        if self.protocol not in _PROTOCOL_MODULES:
            raise DatabaseError(
                "unknown protocol {!r}; expected one of {}".format(
                    self.protocol, sorted(_PROTOCOL_MODULES)
                )
            )
        names = [s.name for s in self.signals]
        if len(set(names)) != len(names):
            raise DatabaseError(
                "duplicate signal names in message {!r}".format(self.name)
            )
        self._validate_geometry()

    def _validate_geometry(self):
        muxed = [s for s in self.signals if s.mux_value is not None]
        if muxed and self.multiplexor is None:
            raise DatabaseError(
                "message {!r} has multiplexed signals but names no "
                "multiplexor".format(self.name)
            )
        if self.multiplexor is not None:
            names = [s.name for s in self.signals]
            if self.multiplexor not in names:
                raise DatabaseError(
                    "multiplexor {!r} is not a signal of message "
                    "{!r}".format(self.multiplexor, self.name)
                )
            selector = self.signal(self.multiplexor)
            if selector.mux_value is not None:
                raise DatabaseError("the multiplexor cannot itself be muxed")
        fixed = [s for s in self.signals if s.section_bit is None]
        for s in fixed:
            if s.encoding.required_payload_length() > self.payload_length:
                raise DatabaseError(
                    "signal {!r} does not fit in {}-byte payload".format(
                        s.name, self.payload_length
                    )
                )
        for i, a in enumerate(fixed):
            for b in fixed[i + 1 :]:
                if a.mux_value is not None and b.mux_value is not None:
                    if a.mux_value != b.mux_value:
                        # Different selector values never coexist.
                        continue
                if overlaps(a.encoding, b.encoding):
                    raise DatabaseError(
                        "signals {!r} and {!r} overlap in message {!r}".format(
                            a.name, b.name, self.name
                        )
                    )
        sectioned = [s for s in self.signals if s.section_bit is not None]
        if sectioned and self.layout is None:
            raise DatabaseError(
                "message {!r} has sectioned signals but no layout".format(
                    self.name
                )
            )
        if self.layout is not None:
            known_bits = {sec.mask_bit for sec in self.layout.sections}
            for s in sectioned:
                if s.section_bit not in known_bits:
                    raise DatabaseError(
                        "signal {!r} references unknown section bit {}".format(
                            s.name, s.section_bit
                        )
                    )

    # -- introspection -----------------------------------------------------
    def signal(self, name):
        for s in self.signals:
            if s.name == name:
                return s
        raise KeyError(name)

    def signal_names(self):
        return tuple(s.name for s in self.signals)

    # -- payload encode/decode ------------------------------------------------
    def encode(self, values):
        """Encode a {signal name: physical value} dict into payload bytes.

        Signals missing from *values* -- or mapped to None -- are left
        at zero (fixed layout) or omitted (sectioned signals: their
        presence bit stays clear; multiplexed signals: treated as not
        part of this instance). A None value is how behaviours express
        "absent in this instance".
        """
        values = {k: v for k, v in values.items() if v is not None}
        if self.layout is None:
            payload = bytearray(self.payload_length)
            active_mux = None
            if self.multiplexor is not None and self.multiplexor in values:
                selector = self.signal(self.multiplexor)
                selector.encoding.encode(
                    payload, values[self.multiplexor], clamp=True
                )
                active_mux = selector.encoding.extract_raw(payload)
            for s in self.signals:
                if s.name not in values or s.name == self.multiplexor:
                    continue
                if s.mux_value is not None and s.mux_value != active_mux:
                    raise DatabaseError(
                        "signal {!r} requires selector value {}, but the "
                        "instance encodes {}".format(
                            s.name, s.mux_value, active_mux
                        )
                    )
                s.encoding.encode(payload, values[s.name], clamp=True)
            return bytes(payload)
        # Conditional layout: assemble per-section bodies first.
        sections = {}
        for section in self.layout.sections:
            members = [
                s for s in self.signals if s.section_bit == section.mask_bit
            ]
            present = [s for s in members if s.name in values]
            if not present:
                continue
            body = bytearray(section.length)
            for s in present:
                s.encoding.encode(body, values[s.name], clamp=True)
            sections[section.mask_bit] = bytes(body)
        payload = bytearray(self.layout.build_payload(sections))
        for s in self.signals:
            if s.section_bit is None and s.name in values:
                s.encoding.encode(payload, values[s.name], clamp=True)
        return bytes(payload)

    def decode(self, payload):
        """Decode payload bytes into {signal name: value}; absent -> None."""
        out = {}
        for s in self.signals:
            rule = self.interpretation_rule(s.name)
            out[s.name] = rule.interpret(payload)
        return out

    def interpretation_rule(self, signal_name):
        """Build the ``u_info`` rule for one of this message's signals."""
        s = self.signal(signal_name)
        mux_selector = None
        if s.mux_value is not None:
            mux_selector = self.signal(self.multiplexor).encoding
        return InterpretationRule(
            encoding=s.encoding,
            layout=self.layout if s.section_bit is not None else None,
            section_bit=s.section_bit,
            mux_selector=mux_selector,
            mux_value=s.mux_value,
        )


@dataclass(frozen=True)
class NetworkDatabase:
    """The full communication database of one vehicle."""

    messages: tuple = field(default_factory=tuple)

    def __post_init__(self):
        seen = set()
        for m in self.messages:
            key = (m.channel, m.message_id)
            if key in seen:
                raise DatabaseError(
                    "duplicate message id {} on channel {!r}".format(
                        m.message_id, m.channel
                    )
                )
            seen.add(key)

    def __len__(self):
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def message(self, channel, message_id):
        for m in self.messages:
            if m.channel == channel and m.message_id == message_id:
                return m
        raise KeyError((channel, message_id))

    def message_by_name(self, name):
        for m in self.messages:
            if m.name == name:
                return m
        raise KeyError(name)

    def channels(self):
        return tuple(sorted({m.channel for m in self.messages}))

    def alphabet(self):
        """The alphabet Σ of every signal type in the database.

        The same signal may appear in several messages (gateway-routed
        copies); it contributes one signal type.
        """
        seen = {}
        for m in self.messages:
            for s in m.signals:
                seen.setdefault(s.name, s.to_signal_type())
        return Alphabet(tuple(seen.values()))

    def signal_data_class(self, signal_id):
        """Documented data class of a signal (ground truth for Table 3)."""
        for m in self.messages:
            for s in m.signals:
                if s.name == signal_id:
                    return s.data_class
        raise KeyError(signal_id)

    def translation_catalog(self, signal_ids=None):
        """Derive ``U_rel`` -- one translation tuple per (signal, message).

        When *signal_ids* is given, only those signals are included
        (building ``U_comb`` directly).
        """
        wanted = set(signal_ids) if signal_ids is not None else None
        tuples = []
        for m in self.messages:
            for s in m.signals:
                if wanted is not None and s.name not in wanted:
                    continue
                tuples.append(
                    TranslationTuple(
                        signal_id=s.name,
                        channel_id=m.channel,
                        message_id=m.message_id,
                        rule=m.interpretation_rule(s.name),
                    )
                )
        if wanted is not None:
            missing = wanted - {t.signal_id for t in tuples}
            if missing:
                raise DatabaseError(
                    "signals not in database: {}".format(sorted(missing))
                )
        return RuleCatalog(tuple(tuples))

    def statistics(self):
        """Summary statistics in the spirit of the paper's Table 5."""
        signal_types = self.alphabet()
        per_message = [len(m.signals) for m in self.messages]
        return {
            "num_messages": len(self.messages),
            "num_signal_types": len(signal_types),
            "num_channels": len(self.channels()),
            "avg_signals_per_message": (
                sum(per_message) / len(per_message) if per_message else 0.0
            ),
        }
