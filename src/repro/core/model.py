"""Formal trace model (paper Sec. 2).

Implements the paper's formalization: signal types ``s`` with identifiers
``s_id`` forming the alphabet Σ, message types ``m = (S, m_id, b_id)``,
their instances, and the three sequence views of a trace:

* ``K_b`` -- the recorded byte sequence of tuples
  ``k_b = (t, l, b_id, m_id, m_info)``;
* ``K_n`` -- the interpreted message-instance sequence;
* ``K_s`` -- the per-occurrence signal-instance sequence
  ``(t, s_hat, b_id)`` with ``s_hat = (v, s_id)``.

The distributed pipeline works on engine tables with these exact column
layouts; the dataclasses here give the formal objects a concrete API for
tests, documentation and in-memory use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Signal kind: carries a functional property (paper's affiliation F) ...
FUNCTIONAL = "functional"
#: ... or defines validity of a message/signal/component (affiliation V).
VALIDITY = "validity"

#: Column layout of a K_b table.
K_B_COLUMNS = ("t", "l", "b_id", "m_id", "m_info")
#: Column layout of a K_s table.
K_S_COLUMNS = ("t", "v", "s_id", "b_id")
#: Column layout of an extension (W) table.
W_COLUMNS = ("t", "v", "w_id", "s_id", "b_id")
#: Kinds of a signal type's values in a segmented sequence set
#: (:class:`repro.core.sequence.Sequences`): numbers (``float`` and
#: ``int``, held as float64), labels (``str``, held as codes) and
#: objects for anything else (NaN, ``bool``, TRUNCATED, mixed kinds).
NUMBER, LABEL, OBJECT = range(3)


@dataclass(frozen=True)
class SignalType:
    """A signal type ``s`` with identifier ``s_id``.

    Per ``s_id``, information on either a function (e.g. steering angle),
    a control unit (e.g. reset) or the network (e.g. frame qualifier) is
    exchanged.
    """

    signal_id: str
    unit: str = ""
    kind: str = FUNCTIONAL
    comment: str = ""

    def __post_init__(self):
        if not self.signal_id:
            raise ValueError("signal_id must be non-empty")
        if self.kind not in (FUNCTIONAL, VALIDITY):
            raise ValueError(
                "kind must be 'functional' or 'validity', got {!r}".format(
                    self.kind
                )
            )


@dataclass(frozen=True)
class SignalInstance:
    """An occurrence ``s_hat = (v, s_id)`` of a signal type."""

    value: object
    signal_id: str


@dataclass(frozen=True)
class MessageType:
    """A message type ``m = (S, m_id, b_id)``.

    ``signal_ids`` is the set ``S ⊆ Σ`` of signal types each instance
    carries; ``|S|`` can vary per message type.
    """

    signal_ids: tuple
    message_id: int
    channel_id: str

    def __post_init__(self):
        if len(set(self.signal_ids)) != len(self.signal_ids):
            raise ValueError("duplicate signal ids in message type")

    def carries(self, signal_id):
        return signal_id in self.signal_ids


@dataclass(frozen=True)
class MessageInstance:
    """An occurrence ``m_hat = (S_hat, m_id, b_id)`` at time ``t``."""

    timestamp: float
    signals: tuple  # of SignalInstance
    message_id: int
    channel_id: str

    def signal_values(self):
        """Mapping s_id -> value for this instance."""
        return {s.signal_id: s.value for s in self.signals}


@dataclass(frozen=True)
class Alphabet:
    """The alphabet Σ of all vehicle signal types."""

    signal_types: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ids = [s.signal_id for s in self.signal_types]
        duplicates = {i for i in ids if ids.count(i) > 1}
        if duplicates:
            raise ValueError(
                "duplicate signal types in alphabet: {}".format(
                    sorted(duplicates)
                )
            )

    def __len__(self):
        return len(self.signal_types)

    def __iter__(self):
        return iter(self.signal_types)

    def __contains__(self, signal_id):
        return any(s.signal_id == signal_id for s in self.signal_types)

    def get(self, signal_id):
        for s in self.signal_types:
            if s.signal_id == signal_id:
                return s
        raise KeyError(signal_id)

    def ids(self):
        return tuple(s.signal_id for s in self.signal_types)

    def restrict(self, signal_ids):
        """The sub-alphabet Σ* of the given ids (order preserved)."""
        wanted = set(signal_ids)
        return Alphabet(
            tuple(s for s in self.signal_types if s.signal_id in wanted)
        )


def message_instances_from_k_s(rows):
    """Group K_s rows back into message instances by (t, b_id).

    Mainly used in tests to check the K_n <-> K_s correspondence of the
    formalization; expects rows as ``(t, v, s_id, b_id, m_id)`` tuples.
    """
    grouped = {}
    for t, v, s_id, b_id, m_id in rows:
        grouped.setdefault((t, m_id, b_id), []).append(SignalInstance(v, s_id))
    out = []
    for (t, m_id, b_id), signals in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], str(kv[0][2]), kv[0][1])
    ):
        out.append(MessageInstance(t, tuple(signals), m_id, b_id))
    return out

