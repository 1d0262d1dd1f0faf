"""Lines 2-4 key lookup: ``KeyIndex.lookup`` of a partition's
``(b_id, m_id)`` columns equals ``dict.get((b_id, m_id), -1)`` per row,
by array ops on a dictionary-coded channel column beside an integer
``m_id`` buffer, by dict lookups on anything else."""

from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preselection import KeyIndex
from repro.engine.columnar import DictColumn

CATALOG_CHANNELS = ["FC", "BC", "ETH"]
#: "K-LIN" carries frames but no key.
CHANNELS = CATALOG_CHANNELS + ["K-LIN"]
M_IDS = st.one_of(
    st.integers(0, 12),
    st.integers(2 ** 63 - 2, 2 ** 63 + 2),
    st.integers(2 ** 64 - 2, 2 ** 64 - 1),
)


def _channel_column(b_ids, layout):
    if layout == "list":
        return list(b_ids)
    values = tuple(dict.fromkeys(b_ids))
    if layout == "unused-values":  # a dictionary wider than the column
        values = ("unused",) + values + ("K-LIN-2",)
    codes = [values.index(b_id) for b_id in b_ids]
    if layout == "memoryview":  # as ``.ctrc`` hands its indices over
        return DictColumn(memoryview(array("H", codes)), values)
    return DictColumn(array("B", codes), values)


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.tuples(st.sampled_from(CATALOG_CHANNELS), M_IDS),
                  unique=True, max_size=10),
    rows=st.lists(st.tuples(st.sampled_from(CHANNELS), M_IDS), max_size=30),
    layout=st.sampled_from(["list", "coded", "memoryview", "unused-values"]),
    m_id_layout=st.sampled_from(["Q", "q", "list"]),
)
def test_lookup_equals_the_dict_lookup(keys, rows, layout, m_id_layout):
    lookup = {key: code for code, key in enumerate(keys)}
    b_ids = [b_id for b_id, _m_id in rows]
    m_ids = [m_id for _b_id, m_id in rows]
    if m_id_layout == "q":  # a signed column: what does not fit wraps
        m_ids = [m_id - 2 ** 64 if m_id >= 2 ** 63 else m_id
                 for m_id in m_ids]
        rows = list(zip(b_ids, m_ids))
    column = m_ids if m_id_layout == "list" else array(m_id_layout, m_ids)
    codes = KeyIndex(keys).lookup(_channel_column(b_ids, layout), column)
    assert codes.dtype == np.intp
    assert codes.tolist() == [lookup.get(row, -1) for row in rows]


def test_an_empty_partition_has_no_codes():
    index = KeyIndex([("FC", 1)])
    for b_ids in ([], DictColumn(array("B"), ())):
        assert index.lookup(b_ids, array("Q")).tolist() == []


def test_keys_of_no_array_lookup_fall_back_to_the_dict():
    """A key whose m_id is not a uint64 int (a negative one here) is
    found the way ``dict.get`` finds it, on coded columns too."""
    index = KeyIndex([("FC", -1), ("FC", 2)])
    b_ids = DictColumn(array("B", [0, 0, 0]), ("FC",))
    assert index.lookup(b_ids, array("q", [-1, 2, 3])).tolist() == [0, 1, -1]


class _NoDictLookup(dict):
    """Key codes whose per-row ``dict.get`` fallback must not run."""

    def get(self, *args):
        raise AssertionError("KeyIndex.lookup fell back to dict.get")


def test_a_dropping_preselection_keeps_the_lookup_on_arrays(tmp_path):
    """Preselection that drops frames keeps ``K_pre``'s ``t`` and
    ``m_id`` typed, so lines 4-6 look its keys up by array ops: two
    seconds of SYN, three signals whose keys carry 12 of 385 frames."""
    from repro.core import RuleCatalog, interpret, preselect
    from repro.core.preselection import key_index
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext
    from repro.tracefile import colbin

    bundle = build_dataset(SPECS["SYN"])
    path = tmp_path / "syn.ctrc"
    colbin.dump_records(bundle.byte_records(2.0), path)
    catalog = RuleCatalog(tuple(
        u for u in bundle.catalog() if u.signal_id.startswith("syn_cat")
    ))
    assert len(catalog) == 3
    index = key_index(catalog)
    index.codes = _NoDictLookup(index.codes)
    context = EngineContext.serial(default_parallelism=2)
    k_b = colbin.load_table(context, path)
    k_pre = preselect(k_b, catalog).cache()
    assert (k_b.count(), k_pre.count()) == (385, 12)
    for part in k_pre.plan.partitions:
        t, _l, b_ids, m_ids, _m_info = part.columns
        assert (t.typecode, type(b_ids), m_ids.typecode) == \
            ("d", DictColumn, "Q")
    rows = interpret(k_pre, catalog).collect()
    assert len(rows) == 20
    assert rows == interpret(k_pre, catalog.to_table(context)).collect()
