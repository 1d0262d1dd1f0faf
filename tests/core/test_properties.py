"""Property-based tests on the pipeline's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Constraint,
    KIND_OUTLIER,
    KIND_SYMBOL,
    KIND_VALIDITY,
    R_COLUMNS,
    UnchangedValue,
    UnchangedWithinCycle,
    build_state_representation,
    classify,
    compute_criteria,
    reduce_signal,
)
from repro.core.branches import process_branch
from repro.core.classification import BETA, GAMMA, ORDINAL, Classification
from repro.engine import EngineContext, Schema
from tests.core.row_reference import sequence_of

SCHEMA = Schema.of("t", "v", "s_id", "b_id")

# Strictly increasing time stamps.
times_strategy = st.lists(
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=40,
).map(lambda gaps: [round(sum(gaps[: i + 1]), 6) for i in range(len(gaps))])

mixed_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.sampled_from(["low", "medium", "high", "ON", "OFF", "driving", "invalid"]),
)


def make_rows(times, values):
    return [(t, v, "s", "FC") for t, v in zip(times, values)]


@given(times=times_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_classification_is_total_and_deterministic(times, data):
    values = data.draw(
        st.lists(mixed_values, min_size=len(times), max_size=len(times))
    )
    first = classify(times, values)
    second = classify(times, values)
    assert first == second
    assert first.branch in ("alpha", "beta", "gamma")
    criteria = compute_criteria(times, values)
    assert criteria.z_num <= len(set(map(str, values)))


@given(times=times_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_branch_output_is_homogeneous(times, data):
    values = data.draw(
        st.lists(mixed_values, min_size=len(times), max_size=len(times))
    )
    rows = make_rows(times, values)
    classification = classify(times, values)
    out = process_branch(sequence_of(rows), classification)
    assert all(len(r) == len(R_COLUMNS) for r in out)
    out_times = [r[0] for r in out]
    assert out_times == sorted(out_times)
    # No branch invents timestamps.
    assert set(out_times) <= set(times)


@given(times=times_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_preserves_every_element(times, data):
    values = data.draw(
        st.lists(
            st.sampled_from(["a", "b", "invalid"]),
            min_size=len(times),
            max_size=len(times),
        )
    )
    out = process_branch(sequence_of(make_rows(times, values)),
                         Classification(None, "nominal", GAMMA))
    assert len(out) == len(times)
    validity = [r for r in out if r[3] == KIND_VALIDITY]
    assert len(validity) == values.count("invalid")


@given(times=times_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_beta_partitions_elements(times, data):
    values = data.draw(
        st.lists(
            st.sampled_from(["low", "medium", "high", "invalid"]),
            min_size=len(times),
            max_size=len(times),
        )
    )
    out = process_branch(sequence_of(make_rows(times, values)),
                         Classification(None, ORDINAL, BETA))
    kinds = [r[3] for r in out]
    # Every input element lands in exactly one of the three outcomes.
    assert len(out) == len(times)
    assert kinds.count(KIND_VALIDITY) == values.count("invalid")
    assert set(kinds) <= {KIND_SYMBOL, KIND_OUTLIER, KIND_VALIDITY}


@given(
    times=times_strategy,
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_reduction_is_a_subsequence_keeping_changes(times, data):
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(times),
            max_size=len(times),
        )
    )
    ctx = EngineContext.serial()
    table = ctx.table_from_rows(
        list(SCHEMA.names), make_rows(times, values), num_partitions=3
    )
    reduced = reduce_signal(
        table, [Constraint("s", True, (UnchangedValue(),))]
    ).collect()
    original = sorted(make_rows(times, values))
    # Subsequence of the input.
    assert all(r in original for r in reduced)
    # First element always survives.
    assert reduced[0] == original[0]
    # Exactly the value-change points survive.
    expected = [original[0]]
    for row in original[1:]:
        if row[1] != expected[-1][1]:
            expected.append(row)
    assert reduced == expected


@given(
    times=times_strategy,
    cycle=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_cycle_aware_reduction_never_hides_violations(times, cycle):
    """Constant-valued sequences reduce, but any gap beyond the tolerance
    must survive -- the paper's "important state changes such as
    violations of cycle times need to be preserved"."""
    values = [7] * len(times)
    ctx = EngineContext.serial()
    table = ctx.table_from_rows(
        list(SCHEMA.names), make_rows(times, values), num_partitions=2
    )
    tolerance = 1.5
    reduced = reduce_signal(
        table,
        [Constraint("s", True, (UnchangedWithinCycle(cycle, tolerance),))],
    ).collect()
    kept_times = {r[0] for r in reduced}
    previous = None
    for t in times:
        if previous is not None and (t - previous) > cycle * tolerance:
            assert t in kept_times
        previous = t


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_state_representation_forward_fill_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    rows = []
    signals = ["a", "b"]
    for i in range(n):
        signal = data.draw(st.sampled_from(signals))
        rows.append(
            (float(i), signal, "FC", "nominal", "v{}".format(i % 3), None)
        )
    ctx = EngineContext.serial()
    table = ctx.table_from_rows(list(R_COLUMNS), rows)
    rep = build_state_representation(table, signals)
    # After a signal's first occurrence its column is never None again.
    seen = set()
    for state in rep.iter_states():
        for signal in signals:
            if state[signal] is not None:
                seen.add(signal)
            if signal in seen:
                assert state[signal] is not None
