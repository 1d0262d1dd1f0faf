"""DBC-style text format for communication databases.

OEMs document "which message carries which signal at which bytes with
which scaling" in exchange formats such as Vector DBC. This module
implements a faithful subset of the DBC grammar so that
:class:`~repro.network.NetworkDatabase` objects round-trip through the
industry's on-disk representation:

* ``VERSION "..."``
* ``BU_:`` node list (informational)
* ``BO_ <id> <name>: <dlc> <sender>`` — message definitions
* ``SG_ <name> : <start>|<len>@<order><sign> (<factor>,<offset>)
  [<min>|<max>] "<unit>" <receivers>`` — signal definitions
  (@1 = Intel/little-endian, @0 = Motorola/big-endian; + unsigned,
  - signed)
* ``VAL_ <id> <signal> <raw> "<label>" ... ;`` — value tables
* ``BA_DEF_`` / ``BA_`` attributes, of which the canonical
  ``GenMsgCycleTime`` (ms) carries the cycle time and the custom
  ``BusChannel`` / ``BusProtocol`` attributes carry what multi-bus DBC
  deployments encode in separate files per channel
* ``CM_ SG_ <id> <signal> "<comment>";`` — signal comments; the markers
  ``[validity]``, ``[ordinal]``, ``[nominal]``, ``[binary]`` in comments
  preserve this library's signal kind / data-class metadata, and
  ``[section<N>]`` marks a signal as living in the presence-conditional
  section gated by mask bit ``N``.

SOME/IP presence-conditional layouts have no standard DBC equivalent;
they round-trip through the custom ``SectionLayout`` message attribute
(``"mask_bit:length,..."``) plus the ``[section<N>]`` comment markers,
the same mechanism ``BusChannel`` / ``BusProtocol`` use for multi-bus
metadata.

:func:`diff_databases` structurally compares two databases (an OEM
ground truth vs a reverse-engineered recovery, two DBC revisions, ...)
into per-message and per-signal deltas; the discovery validation
harness and the ``repro dbc diff`` CLI build on it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from repro.core.model import FUNCTIONAL, VALIDITY
from repro.network.database import (
    BINARY,
    MessageDefinition,
    NetworkDatabase,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    SignalDefinition,
)
from repro.protocols.signalcodec import INTEL, MOTOROLA, SignalEncoding

_DATA_CLASSES = (NUMERIC, ORDINAL, NOMINAL, BINARY)


class DbcError(ValueError):
    """Raised for unsupported or malformed DBC content."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def dump_database(database, path, version="repro-1.0", channels=None):
    """Write *database* to *path* in DBC format; returns the text."""
    text = dumps_database(database, version=version, channels=channels)
    Path(path).write_text(text)
    return text


def dumps_database(database, version="repro-1.0", channels=None):
    """Render *database* as DBC text.

    DBC identifies messages by their frame id alone; real deployments
    keep one file per bus. Pass *channels* to export a per-bus subset.
    A database reusing a message id across the exported channels cannot
    be represented and is rejected.
    """
    if channels is not None:
        wanted = set(channels)
        database = type(database)(
            tuple(m for m in database.messages if m.channel in wanted)
        )
    seen = {}
    for message in database.messages:
        if message.message_id in seen:
            raise DbcError(
                "message id {} appears on channels {!r} and {!r}; export "
                "one channel per file (channels=...)".format(
                    message.message_id,
                    seen[message.message_id],
                    message.channel,
                )
            )
        seen[message.message_id] = message.channel
    lines = ['VERSION "{}"'.format(version), ""]
    lines.append("BU_: {}".format(" ".join(_node_names(database))))
    lines.append("")
    for message in database.messages:
        lines.append(
            "BO_ {} {}: {} {}".format(
                message.message_id,
                message.name,
                message.payload_length,
                "ECU",
            )
        )
        for signal in message.signals:
            lines.append(
                " " + _render_signal(signal, message.multiplexor)
            )
        lines.append("")
    # Attribute definitions.
    lines.append('BA_DEF_ BO_ "GenMsgCycleTime" INT 0 3600000;')
    lines.append('BA_DEF_ BO_ "BusChannel" STRING;')
    lines.append('BA_DEF_ BO_ "BusProtocol" STRING;')
    lines.append('BA_DEF_ BO_ "SectionLayout" STRING;')
    lines.append('BA_DEF_DEF_ "GenMsgCycleTime" 0;')
    lines.append('BA_DEF_DEF_ "BusChannel" "";')
    lines.append('BA_DEF_DEF_ "BusProtocol" "CAN";')
    lines.append('BA_DEF_DEF_ "SectionLayout" "";')
    for message in database.messages:
        if message.cycle_time is not None:
            lines.append(
                'BA_ "GenMsgCycleTime" BO_ {} {};'.format(
                    message.message_id, int(round(message.cycle_time * 1000))
                )
            )
        lines.append(
            'BA_ "BusChannel" BO_ {} "{}";'.format(
                message.message_id, message.channel
            )
        )
        lines.append(
            'BA_ "BusProtocol" BO_ {} "{}";'.format(
                message.message_id, message.protocol
            )
        )
        if message.layout is not None:
            lines.append(
                'BA_ "SectionLayout" BO_ {} "{}";'.format(
                    message.message_id,
                    ",".join(
                        "{}:{}".format(sec.mask_bit, sec.length)
                        for sec in message.layout.sections
                    ),
                )
            )
    lines.append("")
    # Value tables.
    for message in database.messages:
        for signal in message.signals:
            if signal.encoding.value_table:
                entries = " ".join(
                    '{} "{}"'.format(raw, label)
                    for raw, label in signal.encoding.value_table
                )
                lines.append(
                    "VAL_ {} {} {} ;".format(
                        message.message_id, signal.name, entries
                    )
                )
    lines.append("")
    # Comments carrying kind / data class metadata.
    for message in database.messages:
        for signal in message.signals:
            markers = "[{}]{}{}".format(
                signal.data_class,
                "[validity]" if signal.kind == VALIDITY else "",
                "[section{}]".format(signal.section_bit)
                if signal.section_bit is not None
                else "",
            )
            comment = "{} {}".format(markers, signal.comment).strip()
            lines.append(
                'CM_ SG_ {} {} "{}";'.format(
                    message.message_id, signal.name, comment
                )
            )
    lines.append("")
    return "\n".join(lines)


def _node_names(database):
    names = sorted({m.name.split("_")[0] for m in database.messages})
    return names or ["ECU"]


def _render_signal(signal, multiplexor=None):
    encoding = signal.encoding
    order = 1 if encoding.byte_order == INTEL else 0
    sign = "-" if encoding.signed else "+"
    lo, hi = encoding.physical_bounds()
    mux = ""
    if multiplexor is not None and signal.name == multiplexor:
        mux = " M"
    elif signal.mux_value is not None:
        mux = " m{}".format(signal.mux_value)
    return (
        'SG_ {}{} : {}|{}@{}{} ({},{}) [{}|{}] "{}" Vector__XXX'.format(
            signal.name,
            mux,
            encoding.start_bit,
            encoding.bit_length,
            order,
            sign,
            _number(encoding.scale),
            _number(encoding.offset),
            _number(lo),
            _number(hi),
            signal.unit,
        )
    )


def _number(x):
    """Render floats DBC-style (no trailing .0 for integral values)."""
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_BO_RE = re.compile(r"^BO_ (\d+) (\w+)\s*: (\d+) (\w+)\s*$")
_SG_RE = re.compile(
    r"^SG_ (\w+)(?: (M|m\d+))?\s*: (\d+)\|(\d+)@([01])([+-]) "
    r"\(([^,]+),([^)]+)\) \[([^|]*)\|([^\]]*)\] \"([^\"]*)\" (.*)$"
)
_VAL_RE = re.compile(r"^VAL_ (\d+) (\w+) (.*);$")
_VAL_ENTRY_RE = re.compile(r"(-?\d+) \"([^\"]*)\"")
_BA_RE = re.compile(r"^BA_ \"(\w+)\" BO_ (\d+) (.+);$")
_CM_SG_RE = re.compile(r"^CM_ SG_ (\d+) (\w+) \"(.*)\";$")


def load_database(path):
    """Parse a DBC file into a :class:`NetworkDatabase`."""
    return loads_database(Path(path).read_text())


def loads_database(text):
    """Parse DBC text into a :class:`NetworkDatabase`."""
    messages = {}  # id -> dict
    defined_on = {}  # id -> line of its BO_
    current = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith(("VERSION", "BU_", "BA_DEF", "NS_")):
            current = None if not line.startswith(" ") else current
            continue
        bo = _BO_RE.match(line)
        if bo:
            message_id = int(bo.group(1))
            if message_id in messages:
                raise DbcError(
                    "BO_ {} on line {} repeats the message id of line {}; "
                    "DBC identifies a message by its id, one bus per "
                    "file".format(
                        message_id, line_number, defined_on[message_id]
                    )
                )
            defined_on[message_id] = line_number
            current = {
                "name": bo.group(2),
                "message_id": message_id,
                "dlc": int(bo.group(3)),
                "signals": [],
                "cycle_ms": None,
                "channel": "CAN1",
                "protocol": "CAN",
                "value_tables": {},
                "comments": {},
                "multiplexor": None,
                "layout_spec": None,
            }
            messages[message_id] = current
            continue
        sg = _SG_RE.match(line)
        if sg:
            if current is None:
                raise DbcError(
                    "SG_ outside a BO_ block on line {}".format(line_number)
                )
            mux = sg.group(2)
            if mux == "M":
                current["multiplexor"] = sg.group(1)
            current["signals"].append(
                {
                    "name": sg.group(1),
                    "start_bit": int(sg.group(3)),
                    "bit_length": int(sg.group(4)),
                    "byte_order": INTEL if sg.group(5) == "1" else MOTOROLA,
                    "signed": sg.group(6) == "-",
                    "scale": _finite(sg.group(7), "scale", line_number),
                    "offset": _finite(sg.group(8), "offset", line_number),
                    "unit": sg.group(11),
                    "mux_value": (
                        int(mux[1:]) if mux and mux.startswith("m") else None
                    ),
                }
            )
            continue
        val = _VAL_RE.match(line)
        if val:
            message_id = int(val.group(1))
            if message_id not in messages:
                raise DbcError(
                    "VAL_ for unknown message {} on line {}".format(
                        message_id, line_number
                    )
                )
            entries = tuple(
                (int(raw), label)
                for raw, label in _VAL_ENTRY_RE.findall(val.group(3))
            )
            messages[message_id]["value_tables"][val.group(2)] = entries
            continue
        ba = _BA_RE.match(line)
        if ba:
            name, message_id, value = ba.group(1), int(ba.group(2)), ba.group(3)
            if message_id not in messages:
                raise DbcError(
                    "BA_ for unknown message {} on line {}".format(
                        message_id, line_number
                    )
                )
            if name == "GenMsgCycleTime":
                if not value.strip().isdigit():
                    raise DbcError(
                        "GenMsgCycleTime {!r} on line {} is not a "
                        "non-negative whole number of milliseconds".format(
                            value.strip(), line_number
                        )
                    )
                messages[message_id]["cycle_ms"] = int(value)
            elif name == "BusChannel":
                messages[message_id]["channel"] = value.strip('"')
            elif name == "BusProtocol":
                messages[message_id]["protocol"] = value.strip('"')
            elif name == "SectionLayout":
                messages[message_id]["layout_spec"] = _parse_layout(
                    value.strip('"'), line_number
                )
            continue
        cm = _CM_SG_RE.match(line)
        if cm:
            message_id = int(cm.group(1))
            if message_id in messages:
                messages[message_id]["comments"][cm.group(2)] = cm.group(3)
            continue
        # Unknown statements (CM_ BO_, BA_DEF_DEF_, SIG_VALTYPE_ ...) are
        # tolerated, as real-world DBC consumers must be.
    return NetworkDatabase(
        tuple(_build_message(m) for m in messages.values())
    )


def _finite(text, what, line_number):
    """A ``SG_`` scale or offset: ``float`` accepts nan/inf, DBC has none."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DbcError(
            "SG_ {} {!r} on line {} is not a finite number".format(
                what, text.strip(), line_number
            )
        )
    return value


def _parse_layout(value, line_number):
    """Parse a ``SectionLayout`` attribute value ("mask_bit:length,...")."""
    sections = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        match = re.match(r"^(\d+):(\d+)$", part)
        if match is None:
            raise DbcError(
                "malformed SectionLayout entry {!r} on line {}".format(
                    part, line_number
                )
            )
        sections.append((int(match.group(1)), int(match.group(2))))
    if not sections:
        raise DbcError(
            "empty SectionLayout on line {}".format(line_number)
        )
    return tuple(sections)


def _build_layout(layout_spec):
    if layout_spec is None:
        return None
    from repro.protocols.someip import ConditionalLayout, OptionalSection

    return ConditionalLayout(
        tuple(
            OptionalSection(mask_bit, length)
            for mask_bit, length in layout_spec
        )
    )


def _build_message(spec):
    signals = []
    for s in spec["signals"]:
        value_table = spec["value_tables"].get(s["name"], ())
        comment = spec["comments"].get(s["name"], "")
        data_class, kind, section_bit, clean_comment = _parse_markers(
            comment, value_table
        )
        encoding = SignalEncoding(
            start_bit=s["start_bit"],
            bit_length=s["bit_length"],
            byte_order=s["byte_order"],
            signed=s["signed"],
            scale=s["scale"],
            offset=s["offset"],
            value_table=value_table,
        )
        signals.append(
            SignalDefinition(
                name=s["name"],
                encoding=encoding,
                unit=s["unit"],
                kind=kind,
                data_class=data_class,
                section_bit=section_bit,
                comment=clean_comment,
                mux_value=s.get("mux_value"),
            )
        )
    return MessageDefinition(
        name=spec["name"],
        message_id=spec["message_id"],
        channel=spec["channel"],
        protocol=spec["protocol"],
        payload_length=spec["dlc"],
        signals=tuple(signals),
        cycle_time=(
            spec["cycle_ms"] / 1000.0 if spec["cycle_ms"] else None
        ),
        layout=_build_layout(spec.get("layout_spec")),
        multiplexor=spec.get("multiplexor"),
    )


def _parse_markers(comment, value_table):
    """Extract [data_class] / [validity] / [sectionN] comment markers."""
    kind = FUNCTIONAL
    data_class = None
    section_bit = None
    rest = comment
    for marker in re.findall(r"\[(\w+)\]", comment):
        if marker == "validity":
            kind = VALIDITY
        elif marker in _DATA_CLASSES:
            data_class = marker
        else:
            section = re.match(r"^section(\d+)$", marker)
            if section:
                section_bit = int(section.group(1))
        rest = rest.replace("[{}]".format(marker), "")
    if data_class is None:
        # Sensible default: tabled signals are categorical, others numeric.
        if value_table:
            data_class = BINARY if len(value_table) == 2 else NOMINAL
        else:
            data_class = NUMERIC
    return data_class, kind, section_bit, rest.strip()


# ---------------------------------------------------------------------------
# Structural diffing
# ---------------------------------------------------------------------------

#: Signal delta kinds, in severity order.
SIGNAL_DELTA_KINDS = (
    "missing", "spurious", "geometry_mismatch", "scaling_mismatch",
)
MESSAGE_DELTA_KINDS = ("missing", "spurious")


@dataclass(frozen=True)
class MessageDelta:
    """A message present in only one of the two databases."""

    kind: str  # "missing" (actual only) | "spurious" (recovered only)
    channel: str
    message_id: int
    name: str

    def describe(self):
        return "{} message {} 0x{:X} ({})".format(
            self.kind, self.channel, self.message_id, self.name
        )


@dataclass(frozen=True)
class SignalDelta:
    """A per-signal discrepancy inside a message both databases share."""

    kind: str  # one of SIGNAL_DELTA_KINDS
    channel: str
    message_id: int
    actual: str = None     # signal name in the actual database
    recovered: str = None  # signal name in the recovered database
    detail: str = ""

    def describe(self):
        name = self.actual if self.actual is not None else self.recovered
        out = "{} signal {} 0x{:X} {}".format(
            self.kind, self.channel, self.message_id, name
        )
        if self.recovered is not None and self.actual is not None \
                and self.recovered != self.actual:
            out += " (recovered as {})".format(self.recovered)
        if self.detail:
            out += ": " + self.detail
        return out


@dataclass(frozen=True)
class DatabaseDiff:
    """Structured delta between an actual and a recovered database."""

    message_deltas: tuple = ()
    signal_deltas: tuple = ()

    def is_empty(self):
        return not self.message_deltas and not self.signal_deltas

    def counts(self):
        """{kind: count} over both delta planes (zero-filled)."""
        out = {
            "messages.missing": 0,
            "messages.spurious": 0,
        }
        for kind in SIGNAL_DELTA_KINDS:
            out["signals." + kind] = 0
        for delta in self.message_deltas:
            out["messages." + delta.kind] += 1
        for delta in self.signal_deltas:
            out["signals." + delta.kind] += 1
        return out

    def describe(self):
        """One human-readable line per delta, messages first."""
        return [d.describe() for d in self.message_deltas] + [
            d.describe() for d in self.signal_deltas
        ]


def _geometry(encoding):
    return tuple(encoding.bit_positions())


def _scaling(signal):
    encoding = signal.encoding
    return (
        encoding.signed,
        encoding.scale,
        encoding.offset,
        tuple(encoding.value_table),
    )


def _scaling_detail(actual, recovered):
    parts = []
    for label, a, r in (
        ("signed", actual.encoding.signed, recovered.encoding.signed),
        ("scale", actual.encoding.scale, recovered.encoding.scale),
        ("offset", actual.encoding.offset, recovered.encoding.offset),
        (
            "value_table",
            tuple(actual.encoding.value_table),
            tuple(recovered.encoding.value_table),
        ),
    ):
        if a != r:
            parts.append("{} {!r} != {!r}".format(label, a, r))
    return ", ".join(parts)


def diff_databases(actual, recovered):
    """Structurally compare *recovered* against the *actual* database.

    Messages pair by ``(channel, message_id)``. Within a shared
    message, signals pair by name first, then -- since recovered
    databases use synthetic names -- by identical bit-position sets
    among the still-unpaired. Each pair is then checked for
    ``geometry_mismatch`` (different absolute bit positions or
    significance order; single-byte Intel/Motorola equivalents compare
    equal because their position walks are identical) and
    ``scaling_mismatch`` (same geometry, different
    signed/scale/offset/value-table). Unpaired actual signals are
    ``missing``, unpaired recovered ones ``spurious``; whole messages
    present on one side only become :class:`MessageDelta` s.
    """
    actual_by_key = {(m.channel, m.message_id): m for m in actual.messages}
    recovered_by_key = {
        (m.channel, m.message_id): m for m in recovered.messages
    }
    message_deltas = []
    signal_deltas = []
    for key, message in actual_by_key.items():
        if key not in recovered_by_key:
            message_deltas.append(
                MessageDelta("missing", message.channel,
                             message.message_id, message.name)
            )
    for key, message in recovered_by_key.items():
        if key not in actual_by_key:
            message_deltas.append(
                MessageDelta("spurious", message.channel,
                             message.message_id, message.name)
            )
    for key in actual_by_key:
        if key not in recovered_by_key:
            continue
        signal_deltas.extend(
            _diff_message(actual_by_key[key], recovered_by_key[key])
        )
    return DatabaseDiff(tuple(message_deltas), tuple(signal_deltas))


def _diff_message(actual, recovered):
    channel, message_id = actual.channel, actual.message_id
    recovered_by_name = {s.name: s for s in recovered.signals}
    pairs = []
    unpaired_actual = []
    paired_recovered = set()
    for signal in actual.signals:
        twin = recovered_by_name.get(signal.name)
        if twin is not None:
            pairs.append((signal, twin))
            paired_recovered.add(signal.name)
        else:
            unpaired_actual.append(signal)
    remaining = [
        s for s in recovered.signals if s.name not in paired_recovered
    ]
    by_bits = {}
    for signal in remaining:
        by_bits.setdefault(
            frozenset(_geometry(signal.encoding)), []
        ).append(signal)
    still_missing = []
    for signal in unpaired_actual:
        bucket = by_bits.get(frozenset(_geometry(signal.encoding)))
        if bucket:
            pairs.append((signal, bucket.pop(0)))
        else:
            still_missing.append(signal)
    spurious = [s for bucket in by_bits.values() for s in bucket]
    deltas = []
    for signal in still_missing:
        deltas.append(
            SignalDelta(
                "missing", channel, message_id, actual=signal.name,
                detail="bits {}".format(_geometry(signal.encoding)),
            )
        )
    for signal in spurious:
        deltas.append(
            SignalDelta(
                "spurious", channel, message_id, recovered=signal.name,
                detail="bits {}".format(_geometry(signal.encoding)),
            )
        )
    for signal, twin in pairs:
        if _geometry(signal.encoding) != _geometry(twin.encoding):
            deltas.append(
                SignalDelta(
                    "geometry_mismatch", channel, message_id,
                    actual=signal.name, recovered=twin.name,
                    detail="bits {} != {}".format(
                        _geometry(signal.encoding),
                        _geometry(twin.encoding),
                    ),
                )
            )
        elif _scaling(signal) != _scaling(twin):
            deltas.append(
                SignalDelta(
                    "scaling_mismatch", channel, message_id,
                    actual=signal.name, recovered=twin.name,
                    detail=_scaling_detail(signal, twin),
                )
            )
    return deltas
