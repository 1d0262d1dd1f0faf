"""Information interpretation (paper Sec. 3.2, Algorithm 1 lines 4-6).

The byte-to-signal mapping is made row-wise distributable by joining the
preselected trace ``K_pre`` with the translation tuples ``U_comb`` on
``(m_id, b_id)`` (line 4), then applying

* ``u_1 : (l, u_info) -> l_rel`` -- relevant-byte extraction (line 5) and
* ``u_2 : (l_rel, m_info, u_info) -> (t, (v, s_id))`` -- evaluation
  (line 6)

per row. The result is the signal-instance sequence ``K_s`` with columns
``(t, v, s_id, b_id)``. Rows whose signal is absent in the instance
(presence-conditional SOME/IP sections) are dropped.

Truncated payloads (shorter than a rule's relevant bytes) surface as
:class:`~repro.protocols.signalcodec.ShortPayloadError` by default.
``on_short`` selects the lossy-trace alternative: ``"skip"`` drops the
affected rows, ``"keep"`` retains them with ``v`` set to the
:data:`~repro.core.rules.TRUNCATED` sentinel so callers can count them
before dropping. All three modes behave identically across the join and
fused strategies and across the interpreted, compiled and columnar
execution paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import K_S_COLUMNS  # noqa: F401 (used by both paths)
from repro.core.rules import ABSENT, TRUNCATED, U_REL_COLUMNS
from repro.engine.expressions import apply, col
from repro.protocols.signalcodec import ShortPayloadError

_ON_SHORT_MODES = ("raise", "skip", "keep")


def _check_on_short(on_short):
    if on_short not in _ON_SHORT_MODES:
        raise ValueError(
            "on_short must be one of {}, got {!r}".format(
                "/".join(_ON_SHORT_MODES), on_short
            )
        )


@dataclass(frozen=True)
class _U1:
    """``u_1``: extract the relevant payload bytes per row.

    ``batch_call`` is the columnar batch form the engine's columnar
    kernels invoke once per partition: element-for-element identical to
    calling the row form, but the per-rule setup (byte spans, mux
    geometry) is compiled once per distinct rule instead of re-derived
    per row. Rules repeat massively (one per catalog entry across
    thousands of trace rows), so the cache is tiny and hot.

    With ``on_short`` other than ``"raise"``, truncated payloads map to
    the :data:`TRUNCATED` sentinel instead of raising; downstream
    filters decide whether the marker rows are counted or dropped.
    """

    on_short: str = "raise"

    def __call__(self, payload, rule):
        if self.on_short == "raise":
            return rule.extract_relevant(payload)
        try:
            return rule.extract_relevant(payload)
        except ShortPayloadError:
            return TRUNCATED

    def batch_call(self, payloads, rules):
        tolerant = self.on_short != "raise"
        compiled = {}
        out = []
        append = out.append
        for payload, rule in zip(payloads, rules):
            extract = compiled.get(id(rule))
            if extract is None:
                extract = rule.compile_extractor()
                compiled[id(rule)] = extract
            if tolerant:
                try:
                    append(extract(payload))
                except ShortPayloadError:
                    append(TRUNCATED)
            else:
                append(extract(payload))
        return out


@dataclass(frozen=True)
class _U2:
    """``u_2``: evaluate relevant bytes to the physical signal value.

    ``m_info`` is accepted for protocol-specific evaluation; the bundled
    rules are self-contained, but data-dependent rules (e.g. scaling
    switched by a header field) can inspect it. ``batch_call`` mirrors
    :meth:`_U1.batch_call` with per-rule compiled evaluators, and
    indexes the ``m_info`` column only for rows whose rule has
    ``required_info`` (no other evaluator looks at the argument): a
    packed ``.ctrc`` info plane is decoded for exactly those rows.
    """

    def __call__(self, l_rel, m_info, rule):
        if l_rel is TRUNCATED:
            return TRUNCATED
        return rule.evaluate(l_rel, m_info)

    def batch_call(self, l_rels, m_infos, rules):
        compiled = {}
        out = []
        append = out.append
        for i, (l_rel, rule) in enumerate(zip(l_rels, rules)):
            if l_rel is TRUNCATED:
                append(TRUNCATED)
                continue
            entry = compiled.get(id(rule))
            if entry is None:
                entry = compiled[id(rule)] = (
                    rule.compile_evaluator(), bool(rule.required_info)
                )
            evaluate, reads_info = entry
            append(evaluate(l_rel, m_infos[i] if reads_info else None))
        return out


def join_rules(k_pre, catalog_table):
    """Line 4: ``K_join = K_pre ⋈ U_comb`` on (b_id, m_id).

    *catalog_table* must have the ``U_REL_COLUMNS`` layout (built by
    :meth:`RuleCatalog.to_table`). Every trace row is replicated once per
    signal to extract from it.

    Physically this is a broadcast join (the catalog always fits in
    memory), and under the columnar exchange it runs as a columnar
    broadcast join: the (b_id, m_id) keys hash straight off the trace's
    key columns and matching rows are index-gathered, never transposed
    to row tuples. The executor falls back to the row join per task
    when a key column holds non-scalar objects or NaN floats (NaN keys
    would depend on object identity in the row path's dict probe).
    """
    missing = [c for c in ("b_id", "m_id") if c not in catalog_table.schema]
    if missing:
        raise ValueError(
            "catalog table lacks join columns {}".format(missing)
        )
    return k_pre.join(catalog_table, on=["b_id", "m_id"], how="inner")


def extract_relevant_bytes(k_join, on_short="raise"):
    """Line 5: ``K_join2 = F_u1(K_join)`` -- add the ``l_rel`` column."""
    return k_join.with_column(
        "l_rel", apply(_U1(on_short=on_short), "l", "u_info")
    )


@dataclass(frozen=True)
class _NotTruncated:
    """Picklable filter body: keep rows whose value is not TRUNCATED."""

    def __call__(self, v):
        return v is not TRUNCATED

    def batch_call(self, values):
        return [v is not TRUNCATED for v in values]


@dataclass(frozen=True)
class _IsTruncated:
    """Picklable filter body: keep only TRUNCATED marker rows."""

    def __call__(self, v):
        return v is TRUNCATED

    def batch_call(self, values):
        return [v is TRUNCATED for v in values]


def evaluate_signals(k_join2, on_short="raise"):
    """Line 6: ``K_s = F_u2(K_join2)`` -- signal instances per row."""
    with_value = k_join2.with_column(
        "v", apply(_U2(), "l_rel", "m_info", "u_info")
    )
    present = with_value.filter(col("v").is_not_null() if ABSENT is None
                                else col("v") != ABSENT)
    if on_short == "skip":
        present = present.filter(apply(_NotTruncated(), "v"))
    return present.select(*K_S_COLUMNS)


@dataclass(frozen=True)
class _FusedInterpreter:
    """Broadcast-style interpretation: one flat-map over trace rows.

    ``rules_by_key`` maps (m_id, b_id) -> ((s_id, rule), ...). Each trace
    row expands directly into its signal-instance rows, fusing lines 4-6
    into a single narrow stage (the mapPartitions formulation a Spark
    implementation would use when the rule catalog fits in a broadcast
    variable).
    """

    rules_by_key: dict
    on_short: str = "raise"

    def __call__(self, row):
        t, payload, b_id, m_id, m_info = row
        tolerant = self.on_short != "raise"
        out = []
        for s_id, rule in self.rules_by_key.get((m_id, b_id), ()):
            if tolerant:
                try:
                    l_rel = rule.extract_relevant(payload)
                except ShortPayloadError:
                    if self.on_short == "keep":
                        out.append((t, TRUNCATED, s_id, b_id))
                    continue
                value = rule.evaluate(l_rel, m_info)
            else:
                value = rule.evaluate(rule.extract_relevant(payload), m_info)
            if value is not ABSENT:
                out.append((t, value, s_id, b_id))
        return out


def interpret_fused(k_pre, catalog, on_short="raise"):
    """Lines 4-6 as one fused flat-map stage (broadcast rules).

    Produces exactly the rows of :func:`interpret`; preferable when the
    catalog is small (it always is) and the engine benefits from fewer
    stages.
    """
    rules_by_key = {}
    for u in catalog:
        rules_by_key.setdefault((u.message_id, u.channel_id), []).append(
            (u.signal_id, u.rule)
        )
    frozen = {k: tuple(v) for k, v in rules_by_key.items()}
    return k_pre.flat_map(
        _FusedInterpreter(frozen, on_short=on_short), list(K_S_COLUMNS)
    )


def interpret(k_pre, catalog, context=None, strategy="join",
              on_short="raise"):
    """Lines 4-6 composed: preselected trace + catalog -> ``K_s``.

    *catalog* may be a :class:`~repro.core.rules.RuleCatalog` (loaded into
    the trace's context) or an already-loaded engine table. *strategy*
    selects the physical formulation: ``"join"`` (the paper's relational
    join of line 4) or ``"fused"`` (broadcast flat-map; same output,
    fewer stages; requires a RuleCatalog). *on_short* selects truncated-
    payload handling: ``"raise"`` (default), ``"skip"`` (drop affected
    rows) or ``"keep"`` (retain them with ``v = TRUNCATED``).
    """
    _check_on_short(on_short)
    if strategy == "fused":
        if not hasattr(catalog, "preselection_keys"):
            raise ValueError("fused interpretation needs a RuleCatalog")
        return interpret_fused(k_pre, catalog, on_short=on_short)
    if strategy != "join":
        raise ValueError("unknown interpretation strategy {!r}".format(strategy))
    if hasattr(catalog, "to_table"):
        context = context if context is not None else k_pre.context
        catalog_table = catalog.to_table(context)
    else:
        catalog_table = catalog
    k_join = join_rules(k_pre, catalog_table)
    k_join2 = extract_relevant_bytes(k_join, on_short=on_short)
    return evaluate_signals(k_join2, on_short=on_short)


def interpret_under_policy(k_pre, config):
    """Lines 4-6 under *config*'s ``short_payload`` policy.

    The one place the policy is spelled out, for whole-trace and
    windowed runs alike. Returns ``(k_s, counts)``: the cached ``K_s``
    and the policy's counter increments by counter name --
    ``short_payload_skipped`` under ``"skip"``, ``short_payload_kept``
    under ``"keep"``, none under ``"raise"`` (where a truncated payload
    aborts with :class:`ShortPayloadError`).
    """
    mode = config.short_payload
    _check_on_short(mode)
    # Both lossy modes interpret tolerantly so truncated rows can be
    # counted; "skip" then drops the markers, "keep" lets them flow
    # into reduction (they classify as nominal TRUNCATED evidence).
    k_s = interpret(
        k_pre,
        config.catalog,
        strategy=config.interpretation_strategy,
        on_short="raise" if mode == "raise" else "keep",
    ).cache()
    if mode == "raise":
        return k_s, {}
    truncated = k_s.filter(apply(_IsTruncated(), "v")).count()
    if mode == "keep":
        return k_s, {"short_payload_kept": truncated}
    if truncated:
        k_s = k_s.filter(apply(_NotTruncated(), "v")).cache()
    return k_s, {"short_payload_skipped": truncated}


_ = U_REL_COLUMNS  # re-exported context for readers of this module
