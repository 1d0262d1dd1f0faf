"""Property: windowed IncrementalRunner == whole-trace pipeline.

Fuzz-generated vehicles (random messages, signals, constraints and
extension rules, with dropouts) are processed both ways; the merged
``R_out`` must match row-for-row regardless of where window boundaries
fall. This is the load-bearing guarantee of ``repro.core.incremental``:
daily windowed batches of a vehicle's history reduce to exactly what a
(hypothetical) whole-history run would produce.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalRunner, split_into_windows
from repro.core.params import config_from_dict
from repro.core.pipeline import PreprocessingPipeline
from repro.engine import EngineContext
from repro.protocols import ShortPayloadError
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.testing.generator import generate_journey_case


def _sorted_rows(table):
    # Mixed value types (numeric signals, ordinal labels) make tuple
    # comparison partial; repr gives a total order for multiset equality.
    return sorted(table.collect(), key=repr)


def _whole_trace_rows(ctx, config, records):
    k_b = ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), list(records))
    result = PreprocessingPipeline(config).run(k_b)
    return _sorted_rows(result.r_out)


def _windowed_rows(ctx, config, records, window_seconds):
    runner = IncrementalRunner(config)
    for window in split_into_windows(list(records), window_seconds):
        runner.process_window(
            ctx.table_from_rows(list(BYTE_RECORD_COLUMNS), window)
        )
    return _sorted_rows(runner.finalize(ctx).r_out)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    window=st.sampled_from((0.3, 0.7, 1.1, 2.5)),
)
@settings(max_examples=20, deadline=None)
def test_windowed_run_matches_whole_trace(seed, window):
    case = generate_journey_case(random.Random(seed))
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    whole = _whole_trace_rows(ctx, config, case.records)
    windowed = _windowed_rows(ctx, config, case.records, window)
    assert windowed == whole


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_window_size_is_irrelevant(seed):
    """Any two window sizes agree with each other (transitivity check
    catching bugs that happen to cancel against the whole-trace path)."""
    case = generate_journey_case(random.Random(seed))
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    small = _windowed_rows(ctx, config, case.records, 0.4)
    large = _windowed_rows(ctx, config, case.records, 3.0)
    assert small == large


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    window=st.sampled_from((0.3, 0.7, 1.1, 2.5)),
)
@settings(max_examples=20, deadline=None)
def test_lossy_windowed_run_matches_whole_trace(seed, window):
    """Satellite regression: the incremental == whole-trace guarantee
    must survive transport corruption — non-monotonic timestamps from
    clock skew, exact gateway duplicates, dropped and truncated frames.
    Pre-fix code diverged here (windows split on raw record order and
    per-window dedup did not exist)."""
    case = generate_journey_case(random.Random(seed), lossy=True)
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    whole = _whole_trace_rows(ctx, config, case.records)
    windowed = _windowed_rows(ctx, config, case.records, window)
    assert windowed == whole


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_lossy_window_size_is_irrelevant(seed):
    case = generate_journey_case(random.Random(seed), lossy=True)
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    small = _windowed_rows(ctx, config, case.records, 0.4)
    large = _windowed_rows(ctx, config, case.records, 3.0)
    assert small == large


def _with_replays_and_ties(records, rng, count=8):
    """*records* plus *count* frames a lossy gateway adds: exact replays
    (same timestamp, same bytes) and copies that share the original's
    timestamp but not its payload, each inserted at a random position."""
    records = list(records)
    for i in range(count):
        t, payload, b_id, m_id, info = rng.choice(records)
        if i % 2:
            payload = bytes(b ^ 0xFF for b in payload)
        records.insert(
            rng.randrange(len(records) + 1), (t, payload, b_id, m_id, info)
        )
    return records


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    window=st.sampled_from((0.3, 0.7, 1.1, 2.5)),
)
@settings(max_examples=20, deadline=None)
def test_replayed_and_tied_frames_windowed_matches_whole(seed, window):
    """Replayed frames and tie timestamps go through one
    ``split_sequences`` either way: the window cut cannot separate rows
    that share a timestamp, so the same rows are dropped and every tie
    is broken the same way."""
    case = generate_journey_case(random.Random(seed))
    records = _with_replays_and_ties(case.records, random.Random(seed + 1))
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(case.params, case.database)
    whole = _whole_trace_rows(ctx, config, records)
    assert _windowed_rows(ctx, config, records, window) == whole
    # Arrival order of the added frames is irrelevant too.
    assert _whole_trace_rows(ctx, config, sorted(records, key=repr)) == whole


def _short_payload_outcome(fn):
    """Run a pipeline path; a ShortPayloadError anywhere in the cause
    chain becomes a comparable sentinel, everything else propagates."""
    try:
        return fn()
    except Exception as exc:
        seen = set()
        cause = exc
        while cause is not None and id(cause) not in seen:
            seen.add(id(cause))
            if isinstance(cause, ShortPayloadError):
                return "short-payload-raise"
            cause = getattr(cause, "cause", None) or cause.__cause__ \
                or cause.__context__
        raise


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    window=st.sampled_from((0.3, 0.7, 1.1, 2.5)),
    mode=st.sampled_from(("raise", "skip", "keep")),
)
@settings(max_examples=30, deadline=None)
def test_lossy_short_payload_mode_parity(seed, window, mode):
    """Satellite bugfix regression: every short_payload mode must give
    windowed == whole-trace on lossy journeys. Pre-fix,
    ``IncrementalRunner.process_window`` mapped "keep" to interpret's
    raise mode and then filtered TRUNCATED rows -- i.e. windowed "keep"
    silently implemented "skip" (and could abort where the whole-trace
    run kept rows). In raise mode parity means both paths surface a
    ShortPayloadError for the same trace."""
    case = generate_journey_case(random.Random(seed), lossy=True)
    params = dict(case.params)
    params["short_payload"] = mode
    ctx = EngineContext.serial(default_parallelism=3)
    config = config_from_dict(params, case.database)
    whole = _short_payload_outcome(
        lambda: _whole_trace_rows(ctx, config, case.records)
    )
    windowed = _short_payload_outcome(
        lambda: _windowed_rows(ctx, config, case.records, window)
    )
    assert windowed == whole


def test_keep_mode_is_not_skip_in_disguise():
    """On a journey with truncated frames (seed 0 is known to carry
    them), "keep" must produce *more* evidence than "skip": the
    TRUNCATED sentinel rows survive into the merged output instead of
    being silently filtered."""
    case = generate_journey_case(random.Random(0), lossy=True)
    ctx = EngineContext.serial(default_parallelism=3)
    rows = {}
    for mode in ("skip", "keep"):
        params = dict(case.params)
        params["short_payload"] = mode
        config = config_from_dict(params, case.database)
        rows[mode] = _windowed_rows(ctx, config, case.records, 0.7)
        assert rows[mode] == _whole_trace_rows(ctx, config, case.records)
    assert rows["keep"] != rows["skip"]
    assert any("TRUNCATED" in repr(r) for r in rows["keep"])
    assert not any("TRUNCATED" in repr(r) for r in rows["skip"])


def test_generated_journeys_are_deterministic():
    a = generate_journey_case(random.Random(1234))
    b = generate_journey_case(random.Random(1234))
    assert a.records == b.records
    assert a.params == b.params


def test_lossy_journeys_are_deterministic():
    a = generate_journey_case(random.Random(1234), lossy=True)
    b = generate_journey_case(random.Random(1234), lossy=True)
    assert a.records == b.records
    assert a.params == b.params


def test_lossy_mode_does_not_reshuffle_clean_journeys():
    """Corruption draws come after every clean draw, so the clean
    journey per seed is identical whether or not lossy mode exists."""
    for seed in (0, 7, 1234):
        clean = generate_journey_case(random.Random(seed))
        lossy = generate_journey_case(random.Random(seed), lossy=True)
        assert lossy.params["short_payload"] == "skip"
        assert clean.params == {
            k: v for k, v in lossy.params.items() if k != "short_payload"
        }
        assert clean.database.messages == lossy.database.messages


def test_lossy_journeys_have_corruption_substance():
    """Across a small corpus the lossy corpus must actually contain
    the frame defects the satellites fix: non-monotonic timestamps and
    exact duplicate frames."""
    saw_backwards = saw_duplicate = saw_changed = False
    for seed in range(40):
        case = generate_journey_case(random.Random(seed), lossy=True)
        times = [r[0] for r in case.records]
        if any(b < a for a, b in zip(times, times[1:])):
            saw_backwards = True
        if len(set(case.records)) < len(case.records):
            saw_duplicate = True
        clean = generate_journey_case(random.Random(seed))
        if case.records != clean.records:
            saw_changed = True
    assert saw_backwards and saw_duplicate and saw_changed


def test_generated_journeys_have_substance():
    """Guard against the generator degenerating into trivial traces."""
    saw_constraint = saw_extension = False
    for seed in range(30):
        case = generate_journey_case(random.Random(seed))
        assert len(case.records) >= 2
        assert case.params["signals"]
        assert case.params["dedup_channels"] is False
        saw_constraint = saw_constraint or bool(case.params["constraints"])
        saw_extension = saw_extension or bool(case.params["extensions"])
    assert saw_constraint and saw_extension
