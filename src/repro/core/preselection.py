"""Structuring and preselection (paper Sec. 3.1, Algorithm 1 lines 2-3).

"To perform less interpretations, reductions need to be performed
directly on K_b": the raw trace is filtered to the (m_id, b_id) pairs
referenced by the domain's parameter set ``U_comb`` *before* any
byte-to-signal mapping happens, so interpretation cost is paid only for
relevant message types.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.core.rules import RuleCatalog, per_catalog
from repro.engine.columnar import DictColumn
from repro.engine.expressions import apply


class KeyIndex:
    """``(b_id, m_id)`` -> key code, for whole partition columns.

    *keys* are numbered in the order given. A dictionary-coded channel
    column next to an ``int64`` / ``uint64`` ``m_id`` buffer -- what the
    trace readers hand over -- is looked up by array ops: one
    ``searchsorted`` of the m_ids into the keys' sorted m_ids, then one
    gather from a (channel, m_id) table, whose channel rows are picked
    per distinct channel, never per frame. Other columns (row lists)
    take one dict lookup per row.
    """

    def __init__(self, keys):
        keys = list(keys)
        self.codes = {key: code for code, key in enumerate(keys)}
        self._channels = {}  # b_id -> its row in the table
        for b_id, _m_id in keys:
            self._channels.setdefault(b_id, len(self._channels))
        m_ids = list({m_id for _b_id, m_id in keys})
        self._m_ids = None
        if all(type(m_id) is int and 0 <= m_id < 1 << 64 for m_id in m_ids):
            m_ids.sort()
            self._m_ids = np.array(m_ids + [0], dtype=np.uint64)
        column = {m_id: position for position, m_id in enumerate(m_ids)}
        # The last row and the last column are the misses.
        self._table = np.full(
            (len(self._channels) + 1, len(m_ids) + 1), -1, dtype=np.intp
        )
        for code, (b_id, m_id) in enumerate(keys):
            self._table[self._channels[b_id], column[m_id]] = code

    def lookup(self, b_ids, m_ids):
        """Each row's key code, -1 for a row of no key."""
        typecode = getattr(m_ids, "typecode", getattr(m_ids, "format", None))
        if not (
            isinstance(b_ids, DictColumn) and self._m_ids is not None
            and isinstance(m_ids, (array, memoryview))
            and typecode in ("q", "Q")
        ):
            return np.fromiter(
                map(self.codes.get, zip(b_ids, m_ids), repeat(-1)),
                np.intp, len(b_ids),
            )
        ids = np.frombuffer(m_ids, typecode)
        unsigned = ids.view(np.uint64)
        found = np.searchsorted(self._m_ids[:-1], unsigned)
        miss = self._m_ids[found] != unsigned
        if typecode == "q":
            miss |= ids < 0
        found[miss] = len(self._m_ids) - 1
        rows = np.array([
            self._channels.get(b_id, len(self._channels))
            for b_id in b_ids.values
        ], dtype=np.intp)
        return self._table[rows[np.asarray(b_ids.codes)], found]


@per_catalog
def key_index(catalog):
    """The :class:`KeyIndex` of *catalog*'s ``(b_id, m_id)`` keys, in
    the order their first rule has in the catalog (the key codes lines
    4-6 group by)."""
    keys = {}
    for u in catalog:
        keys.setdefault((u.channel_id, u.message_id), len(keys))
    return KeyIndex(keys)


@dataclass(frozen=True)
class _KeyMember:
    """Picklable predicate: (m_id, b_id) of a row is a key of *index*."""

    index: KeyIndex

    def __call__(self, m_id, b_id):
        return (b_id, m_id) in self.index.codes

    def batch_call(self, m_ids, b_ids):
        """The whole-column form: :meth:`KeyIndex.lookup`, with no
        Python call per row where the channels are coded."""
        return (self.index.lookup(b_ids, m_ids) >= 0).tolist()


def preselect(k_b, catalog):
    """Filter the raw trace to messages carrying ``U_comb`` signals.

    Parameters
    ----------
    k_b:
        Engine table with the K_b layout ``(t, l, b_id, m_id, m_info)``.
    catalog:
        The domain's :class:`~repro.core.rules.RuleCatalog` (``U_comb``).

    Returns
    -------
    Table
        ``K_pre``: the subsequence of ``k_b`` whose rows have
        ``(m_id, b_id)`` in the catalog's preselection keys.
    """
    if not isinstance(catalog, RuleCatalog):
        raise TypeError("catalog must be a RuleCatalog")
    return k_b.filter(apply(_KeyMember(key_index(catalog)), "m_id", "b_id"))


def preselection_ratio(k_b, k_pre):
    """Fraction of trace rows surviving preselection (diagnostics)."""
    total = k_b.count()
    if total == 0:
        return 0.0
    return k_pre.count() / total
