"""Property-based test for the forward-fill window."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext
from repro.engine.window import ForwardFill

partitions_strategy = st.integers(min_value=1, max_value=5)


@given(
    rows=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        max_size=40,
    ),
    parts=partitions_strategy,
)
@settings(max_examples=60, deadline=None)
def test_forward_fill_matches_reference(rows, parts):
    ctx = EngineContext.serial()
    stamped = [(float(i), v) for i, v in enumerate(rows)]
    table = ctx.table_from_rows(["t", "v"], stamped, num_partitions=parts)
    out = (
        table.sort(["t"])
        .sorted_map_partitions(ForwardFill((1,)), carry_rows=100_000)
        .sort("t")
        .collect()
    )
    last = None
    for (t, v), (_t_in, v_in) in zip(out, sorted(stamped)):
        if v_in is not None:
            last = v_in
        assert v == last
