"""Truncated payloads fail identically on both spellings of lines 4-6.

A RuleCatalog (``_RuleKernels``) and a catalog table (the join plan),
at any partition count, must surface a truncated frame as the same
:class:`ShortPayloadError` (raise mode) and produce the same
interpreted rows (skip/keep modes). Pre-fix, the interpreted row path raised
``CodecError``, the compiled path ``ValueError`` and the SOME/IP path
``SomeIpError`` -- three spellings of one transport defect.
"""

from __future__ import annotations

import pytest

from repro.core import (
    TRUNCATED,
    InterpretationRule,
    RuleCatalog,
    TranslationTuple,
    interpret,
)
from repro.engine import EngineContext
from repro.engine.errors import EngineError
from repro.protocols import ShortPayloadError, SignalEncoding

SPELLINGS = ("kernels", "join")
K_PRE_COLUMNS = ["t", "l", "b_id", "m_id", "m_info"]

#: Two healthy 4-byte wiper frames around one truncated 1-byte frame.
ROWS = [
    (2.0, (90).to_bytes(2, "little") + (1).to_bytes(2, "little"),
     "FC", 3, ()),
    (2.5, b"\x2d", "FC", 3, ()),
    (3.0, (120).to_bytes(2, "little") + (1).to_bytes(2, "little"),
     "FC", 3, ()),
]


def _catalog():
    return RuleCatalog((
        TranslationTuple(
            "wpos", "FC", 3,
            InterpretationRule(SignalEncoding(0, 16, scale=0.5)),
        ),
        TranslationTuple(
            "wvel", "FC", 3,
            InterpretationRule(SignalEncoding(16, 16)),
        ),
    ))


def _catalog_for(spelling, ctx):
    """A RuleCatalog runs as ``_RuleKernels``; a catalog already loaded
    as a table runs the join plan."""
    catalog = _catalog()
    return catalog if spelling == "kernels" else catalog.to_table(ctx)


def _short_payload_cause(exc):
    """Walk an engine error's cause chain to the ShortPayloadError."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, ShortPayloadError):
            return exc
        exc = getattr(exc, "cause", None) or exc.__cause__
    return None


def _run_all_modes(partitions):
    """Interpret ROWS over *partitions* partitions; returns per-mode
    observations."""
    out = {}
    ctx = EngineContext.serial(default_parallelism=partitions)
    for spelling in SPELLINGS:
        catalog = _catalog_for(spelling, ctx)
        k_pre = ctx.table_from_rows(K_PRE_COLUMNS, list(ROWS))
        with pytest.raises((ShortPayloadError, EngineError)) as info:
            interpret(k_pre, catalog).collect()
        cause = (
            info.value
            if isinstance(info.value, ShortPayloadError)
            else _short_payload_cause(info.value)
        )
        out["raise", spelling] = cause
        for mode in ("skip", "keep"):
            rows = interpret(k_pre, catalog, on_short=mode).collect()
            out[mode, spelling] = sorted(rows, key=repr)
    return out


@pytest.fixture(scope="module")
def reference():
    return _run_all_modes(1)


@pytest.mark.parametrize("partitions", [2, 3])
def test_partition_count_matches_reference(partitions, reference):
    observed = _run_all_modes(partitions)
    for spelling in SPELLINGS:
        ref_error = reference["raise", spelling]
        got_error = observed["raise", spelling]
        assert isinstance(ref_error, ShortPayloadError)
        assert isinstance(got_error, ShortPayloadError), (
            "{} partitions: the {} spelling surfaced no "
            "ShortPayloadError".format(partitions, spelling)
        )
        assert str(got_error) == str(ref_error)
        for mode in ("skip", "keep"):
            assert observed[mode, spelling] == reference[mode, spelling]


def test_reference_modes_are_substantive(reference):
    for spelling in SPELLINGS:
        # skip keeps the 2 healthy frames x 2 rules.
        skipped = reference["skip", spelling]
        assert len(skipped) == 4
        assert all(row[1] is not TRUNCATED for row in skipped)
        # keep adds one TRUNCATED sentinel row per (frame, rule) pair.
        kept = reference["keep", spelling]
        assert len(kept) == 6
        assert sum(1 for row in kept if row[1] is TRUNCATED) == 2


def test_strategies_agree_with_each_other(reference):
    assert reference["skip", "kernels"] == reference["skip", "join"]
    assert str(reference["raise", "kernels"]) == str(
        reference["raise", "join"]
    )
