"""Lines 4-6 per rule equal lines 4-6 per row.

``interpret`` of a RuleCatalog is the ``_RuleKernels`` task; for a
catalog passed as a table it is the join plan of ``join_rules`` /
``extract_relevant_bytes`` / ``evaluate_signals``, the named reference.
The two must agree row for row -- order, values and value *types* -- on
healthy traces, on payload groups of mixed lengths under all three
``on_short`` modes (the reference of ``test_short_payload_parity``, here
with the order pinned and the inputs generated), and on rules the
kernels do not cover (gated, multiplexed, sectioned, too wide), which
run the scalar closures inside the same task.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    TRUNCATED,
    InterpretationRule,
    PipelineConfig,
    PreprocessingPipeline,
    RuleCatalog,
    TranslationTuple,
    interpret,
    preselect,
)
from repro.core.interpretation import _RuleKernels, interpret_under_policy
from repro.core.model import K_S_COLUMNS
from repro.datasets.showcase import build_showcase
from repro.engine import EngineContext
from repro.engine import plan as logical
from repro.engine.errors import EngineError
from repro.protocols import ShortPayloadError, SignalEncoding
from repro.protocols.signalcodec import MOTOROLA
from repro.protocols.someip import ConditionalLayout, OptionalSection

from tests.core.test_short_payload_parity import (
    K_PRE_COLUMNS,
    _short_payload_cause,
)

LAYOUT = ConditionalLayout((OptionalSection(0, 2), OptionalSection(2, 1)))


def _rule(encoding, **kwargs):
    return InterpretationRule(encoding, **kwargs)


#: Three keys. ("FC", 3): vector rules of both byte orders, a value
#: table, a signed fractional one. ("FC", 4): a multiplexed pair and a
#: 64-bit integral rule (too wide for int64). ("ETH", 9): sectioned and
#: m_info-gated rules next to a plain one.
CATALOG = RuleCatalog((
    TranslationTuple("pos", "FC", 3, _rule(SignalEncoding(0, 16, scale=0.5))),
    TranslationTuple("vel", "FC", 3, _rule(SignalEncoding(16, 12))),
    TranslationTuple("moto", "FC", 3, _rule(
        SignalEncoding(15, 12, MOTOROLA, signed=True, scale=0.25, offset=-3)
    )),
    TranslationTuple("mode", "FC", 3, _rule(
        SignalEncoding(28, 3, value_table=((0, "off"), (1, "on"), (5, "err")))
    )),
    TranslationTuple("page", "FC", 4, _rule(SignalEncoding(0, 2))),
    TranslationTuple("front", "FC", 4, _rule(
        SignalEncoding(8, 8, scale=2.0),
        mux_selector=SignalEncoding(0, 2), mux_value=1,
    )),
    TranslationTuple("wide", "FC", 4, _rule(SignalEncoding(0, 64))),
    TranslationTuple("dist", "ETH", 9, _rule(
        SignalEncoding(0, 16, scale=0.1), layout=LAYOUT, section_bit=0,
    )),
    TranslationTuple("door", "ETH", 9, _rule(
        SignalEncoding(8, 8), required_info=(("message_type", 2),),
    )),
    TranslationTuple("mask", "ETH", 9, _rule(SignalEncoding(0, 8))),
))

KEYS = [("FC", 3), ("FC", 4), ("ETH", 9), ("FC", 99)]  # the last: no rule
INFOS = [(), (("message_type", 2),), (("message_type", 1), ("x", "y"))]

ROWS = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda tick: tick / 4),
        st.binary(max_size=10),
        st.sampled_from(KEYS),
        st.sampled_from(INFOS),
    ).map(lambda r: (r[0], r[1], r[2][0], r[2][1], r[3])),
    max_size=40,
)


def _interpret(rows, partitions, on_short, catalog=CATALOG, join=False):
    """``K_s`` rows, or the text of the ``ShortPayloadError`` raised;
    with *join*, of the join plan (the catalog passed as a table)."""
    context = EngineContext.serial()
    k_pre = context.table_from_rows(
        K_PRE_COLUMNS, list(rows), num_partitions=partitions
    )
    if join:
        catalog = catalog.to_table(context)
    try:
        return interpret(k_pre, catalog, on_short=on_short).collect()
    except (ShortPayloadError, EngineError) as exc:
        cause = (
            exc if isinstance(exc, ShortPayloadError)
            else _short_payload_cause(exc)
        )
        assert cause is not None, exc
        return str(cause)


def _typed(rows):
    if isinstance(rows, str):
        return rows
    return [tuple((type(cell), cell) for cell in row) for row in rows]


@settings(max_examples=80, deadline=None)
@given(rows=ROWS, partitions=st.integers(1, 3))
def test_task_equals_the_join_plan_row_for_row(rows, partitions):
    for on_short in ("raise", "skip", "keep"):
        expected = _interpret(rows, partitions, on_short, join=True)
        got = _interpret(rows, partitions, on_short)
        assert _typed(got) == _typed(expected), on_short


def test_mixed_length_group_in_every_mode():
    """One key, payloads of four lengths: each rule masks its own rows."""
    rows = [
        (0.0, bytes([1, 2, 3, 0x14]), "FC", 3, ()),
        (0.5, bytes([1, 2, 3]), "FC", 3, ()),  # short for vel / mode
        (1.0, bytes([9]), "FC", 3, ()),  # short for every rule
        (1.5, bytes([1, 2, 3, 0x54, 7]), "FC", 3, ()),
        (2.0, b"", "FC", 3, ()),
    ]
    kept = _interpret(rows, 1, "keep")
    assert [row[2] for row in kept] == ["pos", "vel", "moto", "mode"] * 5
    assert [row[1] is TRUNCATED for row in kept] == [
        False, False, False, False,
        False, True, False, True,
        True, True, True, True,
        False, False, False, False,
        True, True, True, True,
    ]
    skipped = _interpret(rows, 1, "skip")
    assert skipped == [row for row in kept if row[1] is not TRUNCATED]
    assert [row[1] for row in skipped if row[2] == "mode"] == ["on", "err"]
    # The first short K_join row is (t=0.5, vel): rows before rules.
    assert _interpret(rows, 1, "raise") == (
        "frame t=0.5 b_id 'FC' m_id 3: payload of 3 bytes too short for "
        "relevant bytes 2..3"
    )
    for on_short in ("raise", "skip", "keep"):
        assert _typed(_interpret(rows, 1, on_short)) == \
            _typed(_interpret(rows, 1, on_short, join=True))


def test_scalar_rules_are_classified_per_reason():
    task = _RuleKernels(CATALOG)
    assert task.scalar_rules == {
        "mux": [("FC", 4)],
        "width": [("FC", 4)],
        "section": [("ETH", 9)],
        "required_info": [("ETH", 9)],
    }
    assert _RuleKernels(CATALOG.select(["pos", "vel"])).scalar_rules == {}


def test_task_runs_on_row_lists():
    rows = [
        (0.0, bytes([1, 2, 3, 4]), "FC", 3, ()),
        (1, bytes([1, 2]), "FC", 4, ()),  # an int timestamp stays an int
        (2.0, bytes([5, 1, 2, 3]), "ETH", 9, (("message_type", 2),)),
    ]
    task = _RuleKernels(CATALOG, "keep")
    expected = _interpret(rows, 1, "keep", join=True)
    k_s = [row[:4] for row in task(rows)]
    assert _typed(k_s) == _typed(expected)
    assert task([]) == []


def test_showcase_rules_through_the_scalar_fallback(tmp_path):
    """Mux, sectioned and gated rules of the showcase vehicle, truncated
    one frame in twenty: same rows either way, and the report says how
    many rules and K_join rows ran scalar, per reason."""
    showcase = build_showcase()
    gated = showcase.notification_catalog()
    catalog = RuleCatalog(tuple(
        u for u in showcase.catalog()
        if u.signal_id != showcase.notification_signal
    ) + gated.tuples)
    records = [
        (t, l[: len(l) // 2] if i % 20 == 7 else l, b_id, m_id, info)
        for i, (t, l, b_id, m_id, info) in enumerate(
            showcase.simulation.byte_records(4.0)
        )
    ]
    for on_short in ("raise", "skip", "keep"):
        assert _typed(
            _interpret(records, 3, on_short, catalog)
        ) == _typed(_interpret(records, 3, on_short, catalog, join=True))

    config = PipelineConfig(catalog=catalog, short_payload="skip")
    context = EngineContext.serial()
    k_b = context.table_from_rows(K_PRE_COLUMNS, records, num_partitions=3)
    result = PreprocessingPipeline(config).run(k_b)
    counters = result.report.metrics.snapshot()["counters"]
    # The "skip" policy path (interpret with "keep", then drop the
    # markers) equals the join plan under "skip", and so does the policy
    # path over the join plan, which runs no rule scalar.
    join_config = SimpleNamespace(
        catalog=catalog.to_table(context), short_payload="skip"
    )
    reference, reference_counts = interpret_under_policy(
        preselect(k_b, catalog), join_config
    )
    expected_k_s = _typed(_interpret(records, 3, "skip", catalog, join=True))
    assert _typed(result.k_s.collect()) == expected_k_s
    assert _typed(reference.select(*K_S_COLUMNS).collect()) == expected_k_s
    skipped = counters["pipeline.interpret.short_payload_skipped"]
    assert skipped > 0
    assert reference_counts == {"short_payload_skipped": skipped}
    scalar = {
        name[len("pipeline.interpret."):]: value
        for name, value in counters.items()
        if name.startswith("pipeline.interpret.scalar_")
    }
    per_key = {}
    for _t, _l, b_id, m_id, _info in records:
        per_key[m_id, b_id] = per_key.get((m_id, b_id), 0) + 1
    expected = {}
    for u in catalog:
        reason = u.rule.vector_decode()[1]
        if reason is not None:
            rules = "scalar_rules." + reason
            rows = "scalar_rows." + reason
            expected[rules] = expected.get(rules, 0) + 1
            expected[rows] = expected.get(rows, 0) + per_key.get(u.key(), 0)
    assert scalar == expected
    assert {name.split(".")[1] for name in scalar} == {
        "mux", "section", "required_info"
    }


@pytest.mark.parametrize("spelling", ["kernels", "join"])
def test_lines_4_to_6_keep_two_spellings(spelling):
    rows = [(0.0, bytes([1, 2, 3, 4]), "FC", 3, ())]
    context = EngineContext.serial()
    k_pre = context.table_from_rows(K_PRE_COLUMNS, rows)
    catalog = CATALOG if spelling == "kernels" else CATALOG.to_table(context)
    k_s = interpret(k_pre, catalog)
    node = k_s.plan
    while not isinstance(node, (logical.MapPartitions, logical.Join)):
        (node,) = node.children()
    if spelling == "kernels":
        assert isinstance(node.func, _RuleKernels)
    else:
        assert isinstance(node, logical.Join)
    assert _typed(k_s.collect()) == _typed(
        _interpret(rows, 1, "raise", join=True)
    )
