"""Structuring and preselection (paper Sec. 3.1, Algorithm 1 lines 2-3).

"To perform less interpretations, reductions need to be performed
directly on K_b": the raw trace is filtered to the (m_id, b_id) pairs
referenced by the domain's parameter set ``U_comb`` *before* any
byte-to-signal mapping happens, so interpretation cost is paid only for
relevant message types.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rules import RuleCatalog
from repro.engine.expressions import apply


@dataclass(frozen=True)
class _KeyMember:
    """Picklable predicate: (m_id, b_id) of a row is in the key set."""

    keys: frozenset

    def __call__(self, m_id, b_id):
        return (m_id, b_id) in self.keys


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
    keys = catalog.preselection_keys()
    return k_b.filter(apply(_KeyMember(keys), "m_id", "b_id"))


def preselection_ratio(k_b, k_pre):
    """Fraction of trace rows surviving preselection (diagnostics)."""
    total = k_b.count()
    if total == 0:
        return 0.0
    return k_pre.count() / total
