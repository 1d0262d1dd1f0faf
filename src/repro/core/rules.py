"""Interpretation rules and the parameterization catalog (paper Sec. 3.1).

A domain parameterizes the framework once with a set of translation
tuples ``u_rel = (s_id_rel, b_id, m_id, u_info)`` -- Table 1 of the paper.
``u_info`` contains what is needed to locate and evaluate a signal inside
a raw payload: the relevant byte positions ("rel.B") and the
interpretation rule (scaling, coding, data-dependent presence for
SOME/IP).

Interpretation is split exactly as in the paper:

* ``u_1 : (l, u_info) -> l_rel`` extracts the relevant payload bytes;
* ``u_2 : (l_rel, m_info, u_info) -> (v, s_id)`` evaluates them to the
  signal value.

Both are methods of :class:`InterpretationRule`, which is a picklable
dataclass so rule evaluation can run row-wise on worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.protocols.signalcodec import ShortPayloadError, SignalEncoding
from repro.protocols.someip import ConditionalLayout

# TRUNCATED is defined below the engine, whose table store holds it;
# _get_truncated stays importable here for pickles that name it.
from repro.sentinels import TRUNCATED, _get_truncated  # noqa: F401

#: Sentinel value for "signal not present in this instance" (e.g. a
#: SOME/IP optional section whose presence bit is clear).
ABSENT = None


class RuleError(ValueError):
    """Raised for inconsistent rules or catalogs."""


@dataclass(frozen=True)
class InterpretationRule:
    """``u_info``: how to locate and evaluate one signal in a payload.

    Parameters
    ----------
    encoding:
        Bit-level layout and physical scaling. For sectioned (SOME/IP)
        signals the start bit is relative to the section body.
    layout:
        Optional :class:`ConditionalLayout` for presence-conditional
        payloads; required when ``section_bit`` is set.
    section_bit:
        Presence-mask bit governing the signal's optional section, or
        None for a fixed layout.
    required_info:
        Protocol-field preconditions as ((key, value), ...): the signal
        is only present in instances whose ``m_info`` matches all of
        them. This is the ``m_info`` dependence of ``u_2`` in the paper
        -- e.g. a SOME/IP field only carried by NOTIFICATION messages,
        not by ERROR responses.
    mux_selector / mux_value:
        CAN-style multiplexing: the signal exists only in instances
        where the selector signal (given by its encoding) decodes to the
        raw value ``mux_value`` -- the classic in-payload case of
        "values of preceding bytes define the presence of a signal type
        in succeeding bytes".
    """

    encoding: SignalEncoding
    layout: ConditionalLayout = None
    section_bit: int = None
    required_info: tuple = ()
    mux_selector: SignalEncoding = None
    mux_value: int = None

    def __post_init__(self):
        if (self.section_bit is None) != (self.layout is None):
            raise RuleError(
                "section_bit and layout must be given together or not at all"
            )
        if (self.mux_selector is None) != (self.mux_value is None):
            raise RuleError(
                "mux_selector and mux_value must be given together"
            )

    # -- u_1: relevant byte extraction --------------------------------------
    def relevant_bytes(self):
        """The paper's "rel.B": byte positions holding the signal.

        For sectioned signals the positions are relative to the section
        body (the absolute position is data-dependent).
        """
        first, last = self.encoding.byte_span()
        return tuple(range(first, last + 1))

    def extract_relevant(self, payload):
        """``u_1``: slice the relevant bytes out of *payload*.

        Returns None (ABSENT) when a presence-conditional signal is not
        in this instance.
        """
        if self.mux_selector is not None:
            if self.mux_selector.extract_raw(payload) != self.mux_value:
                return ABSENT
        if self.section_bit is not None:
            section = self.layout.extract_section(payload, self.section_bit)
            if section is None:
                return ABSENT
            payload = section
        first, last = self.encoding.byte_span()
        if last >= len(payload):
            raise ShortPayloadError(
                "payload of {} bytes too short for relevant bytes {}..{}".format(
                    len(payload), first, last
                )
            )
        return bytes(payload[first : last + 1])

    # -- u_2: evaluation -------------------------------------------------------
    def evaluate(self, l_rel, m_info=None):
        """``u_2 : (l_rel, m_info, u_info) -> v``.

        *m_info* carries the protocol-specific header fields; when the
        rule declares ``required_info``, non-matching instances do not
        carry the signal (ABSENT).
        """
        if l_rel is ABSENT:
            return ABSENT
        if self.required_info and not self.info_matches(m_info):
            return ABSENT
        return self._relative_encoding().decode(l_rel)

    def info_matches(self, m_info):
        """True if *m_info* satisfies every ``required_info`` entry."""
        fields = dict(m_info) if m_info else {}
        return all(
            fields.get(key) == value for key, value in self.required_info
        )

    def interpret(self, payload, m_info=None):
        """Convenience composition ``u_2(u_1(l), m_info)``."""
        return self.evaluate(self.extract_relevant(payload), m_info)

    def _relative_encoding(self):
        first, _last = self.encoding.byte_span()
        if first == 0:
            return self.encoding
        return replace(self.encoding, start_bit=self.encoding.start_bit - 8 * first)

    # -- compiled fast paths ---------------------------------------------
    def compile_extractor(self):
        """Build a closure equivalent to :meth:`extract_relevant`.

        The byte span, mux-selector raw extractor and section layout
        are resolved once; :class:`~repro.core.interpretation._RuleKernels`
        runs the returned closure over the payloads of one key.
        """
        first, last = self.encoding.byte_span()
        end = last + 1
        mux_raw = (
            self.mux_selector.compile_raw_extractor()
            if self.mux_selector is not None
            else None
        )
        mux_value = self.mux_value
        layout = self.layout
        section_bit = self.section_bit

        def extract(payload):
            if mux_raw is not None and mux_raw(payload) != mux_value:
                return ABSENT
            if section_bit is not None:
                section = layout.extract_section(payload, section_bit)
                if section is None:
                    return ABSENT
                payload = section
            if last >= len(payload):
                raise ShortPayloadError(
                    "payload of {} bytes too short for relevant bytes "
                    "{}..{}".format(len(payload), first, last)
                )
            return bytes(payload[first:end])

        return extract

    def compile_evaluator(self):
        """Build a closure equivalent to :meth:`evaluate`.

        The relative encoding's decoder and the ``required_info``
        preconditions are hoisted out of the per-row path.
        """
        decode = self._relative_encoding().compile_decoder()
        required = self.required_info
        if not required:

            def evaluate(l_rel, m_info=None):
                if l_rel is ABSENT:
                    return ABSENT
                return decode(l_rel)

            return evaluate

        def evaluate(l_rel, m_info=None):
            if l_rel is ABSENT:
                return ABSENT
            fields = dict(m_info) if m_info else {}
            for key, value in required:
                if fields.get(key) != value:
                    return ABSENT
            return decode(l_rel)

        return evaluate

    def compile_vector_decoder(self):
        """``(kernel, None)`` or ``(None, reason)``: ``u_2 ∘ u_1`` per column.

        *kernel* is the encoding's
        :meth:`~SignalEncoding.compile_vector_decoder` over whole
        payloads. A rule whose presence depends on the instance
        (``required_info``, ``mux``, ``section``) or whose arithmetic
        the kernel cannot reproduce exactly (``width``) has none, and
        *reason* names why: its rows run the scalar closures.
        """
        if self.required_info:
            return None, "required_info"
        if self.mux_selector is not None:
            return None, "mux"
        if self.section_bit is not None:
            return None, "section"
        kernel = self.encoding.compile_vector_decoder()
        return kernel, (None if kernel is not None else "width")

    def describe(self):
        """Human-readable summary in the style of Table 1."""
        enc = self.encoding
        rule = "v = {} * raw + {}".format(enc.scale, enc.offset)
        if enc.value_table:
            rule = "v = table{}".format(
                {r: l for r, l in enc.value_table}
            )
        rel = "rel.B = {}".format(list(self.relevant_bytes()))
        if self.section_bit is not None:
            rel += " (in optional section bit {})".format(self.section_bit)
        return "Int.rule: {}; {}".format(rule, rel)


@dataclass(frozen=True)
class TranslationTuple:
    """``u_rel = (s_id_rel, b_id, m_id, u_info)`` -- one row of Table 1."""

    signal_id: str
    channel_id: str
    message_id: int
    rule: InterpretationRule

    def key(self):
        """The (m_id, b_id) preselection key."""
        return (self.message_id, self.channel_id)


#: Column layout of a U_rel / U_comb table in the engine.
U_REL_COLUMNS = ("s_id", "b_id", "m_id", "u_info")


@dataclass(frozen=True)
class RuleCatalog:
    """``U_rel``: all translation tuples known to the framework.

    A domain selects its subset ``U_comb ⊆ U_rel`` with :meth:`select`;
    :meth:`to_table` loads either catalog into the engine for the join of
    Algorithm 1 line 4.
    """

    tuples: tuple = field(default_factory=tuple)

    def __post_init__(self):
        seen = set()
        for u in self.tuples:
            key = (u.signal_id, u.channel_id, u.message_id)
            if key in seen:
                raise RuleError(
                    "duplicate translation tuple for {}".format(key)
                )
            seen.add(key)

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def signal_ids(self):
        return tuple(u.signal_id for u in self.tuples)

    def get(self, signal_id, channel_id=None):
        """All tuples for a signal id (optionally on one channel)."""
        out = [
            u
            for u in self.tuples
            if u.signal_id == signal_id
            and (channel_id is None or u.channel_id == channel_id)
        ]
        if not out:
            raise KeyError(signal_id)
        return out

    def select(self, signal_ids):
        """Build the domain subset ``U_comb`` for the given signal ids."""
        wanted = set(signal_ids)
        unknown = wanted - set(self.signal_ids())
        if unknown:
            raise RuleError(
                "cannot select unknown signals: {}".format(sorted(unknown))
            )
        return RuleCatalog(
            tuple(u for u in self.tuples if u.signal_id in wanted)
        )

    def restrict_channels(self, channel_ids):
        """Keep only tuples on the given channels."""
        wanted = set(channel_ids)
        return RuleCatalog(
            tuple(u for u in self.tuples if u.channel_id in wanted)
        )

    def preselection_keys(self):
        """The set of (m_id, b_id) pairs for Algorithm 1 line 3."""
        return frozenset(u.key() for u in self.tuples)

    def to_table(self, context):
        """Load the catalog as an engine table with U_REL_COLUMNS."""
        rows = [
            (u.signal_id, u.channel_id, u.message_id, u.rule)
            for u in self.tuples
        ]
        return context.table_from_rows(
            list(U_REL_COLUMNS), rows, num_partitions=1
        )

    def merge(self, other):
        """Union of two catalogs (duplicate tuples rejected)."""
        return RuleCatalog(self.tuples + other.tuples)
