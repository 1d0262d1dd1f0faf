"""Preselection (lines 2-3) and interpretation (lines 4-6), incl. the
wiper example of Fig. 2 / Table 1."""

import pytest

from repro.core import (
    InterpretationRule,
    RuleCatalog,
    TranslationTuple,
    interpret,
    preselect,
    preselection_ratio,
)
from repro.core.interpretation import (
    evaluate_signals,
    extract_relevant_bytes,
    join_rules,
)
from repro.engine import col
from repro.protocols import SignalEncoding


@pytest.fixture
def fig2_trace(ctx):
    """The K_b of Fig. 2: two wiper messages plus unrelated traffic."""
    rows = [
        # t, l, b_id, m_id, m_info  (l encodes wpos=45deg, wvel=1)
        (2.0, (90).to_bytes(2, "little") + (1).to_bytes(2, "little"), "FC", 3, ()),
        (2.5, (120).to_bytes(2, "little") + (1).to_bytes(2, "little"), "FC", 3, ()),
        (2.1, b"\xff", "FC", 9, ()),  # irrelevant message type
        (2.2, b"\x01\x02", "DC", 3, ()),  # same id, wrong channel
    ]
    return ctx.table_from_rows(["t", "l", "b_id", "m_id", "m_info"], rows)


@pytest.fixture
def wiper_catalog():
    return RuleCatalog(
        (
            TranslationTuple(
                "wpos", "FC", 3,
                InterpretationRule(SignalEncoding(0, 16, scale=0.5)),
            ),
            TranslationTuple(
                "wvel", "FC", 3,
                InterpretationRule(SignalEncoding(16, 16)),
            ),
        )
    )


class TestPreselection:
    def test_filters_to_relevant_keys(self, fig2_trace, wiper_catalog):
        k_pre = preselect(fig2_trace, wiper_catalog)
        rows = k_pre.collect()
        assert len(rows) == 2
        assert all(r[2] == "FC" and r[3] == 3 for r in rows)

    def test_channel_matters_not_just_id(self, fig2_trace, wiper_catalog):
        k_pre = preselect(fig2_trace, wiper_catalog)
        assert all(r[2] != "DC" for r in k_pre.collect())

    def test_requires_catalog_type(self, fig2_trace):
        with pytest.raises(TypeError):
            preselect(fig2_trace, ["not", "a", "catalog"])

    def test_ratio(self, fig2_trace, wiper_catalog):
        k_pre = preselect(fig2_trace, wiper_catalog)
        assert preselection_ratio(fig2_trace, k_pre) == 0.5

    def test_ratio_empty_trace(self, ctx, wiper_catalog):
        empty = ctx.empty_table(["t", "l", "b_id", "m_id", "m_info"])
        assert preselection_ratio(empty, empty) == 0.0


    @pytest.mark.parametrize(
        "dataset, codec", [("SYN", "colbin"), ("LIG", "binlog")],
        ids=["ctrc", "btrc"],
    )
    def test_batch_membership_equals_the_row_form(
        self, tmp_path, dataset, codec
    ):
        """On the packed ``m_id``/``b_id`` columns a trace file loads
        into, the whole-column form keeps exactly the rows the per-row
        predicate keeps, and so does the filter either way."""
        from repro.core.preselection import _KeyMember
        from repro.datasets import SPECS, build_dataset
        from repro.engine import EngineContext
        from repro.tracefile import binlog, colbin

        codec = {"colbin": colbin, "binlog": binlog}[codec]
        bundle = build_dataset(SPECS[dataset])
        path = tmp_path / "trace"
        codec.dump_records(bundle.byte_records(3.0), path)
        # Every other message type, so the trace has rows of both kinds.
        kept = sorted(bundle.catalog().preselection_keys())[::2]
        catalog = RuleCatalog(tuple(
            u for u in bundle.catalog()
            if (u.message_id, u.channel_id) in kept
        ))
        member = _KeyMember(catalog.preselection_keys())
        k_b = codec.load_table(EngineContext.serial(), path).cache()
        masks = []
        for partition in k_b.plan.partitions:
            b_ids, m_ids = partition.column(2), partition.column(3)
            assert not isinstance(m_ids, list)  # a packed column
            mask = member.batch_call(m_ids, b_ids)
            assert mask == [member(m, b) for m, b in zip(m_ids, b_ids)]
            masks += mask
        assert any(masks) and not all(masks)
        assert preselect(k_b, catalog).collect() == [
            row for row in k_b.collect() if member(row[3], row[2])
        ]

class TestJoin:
    def test_join_replicates_per_rule(self, fig2_trace, wiper_catalog, ctx):
        k_pre = preselect(fig2_trace, wiper_catalog)
        k_join = join_rules(k_pre, wiper_catalog.to_table(ctx))
        # 2 relevant messages x 2 rules = 4 rows (line 4 of Algorithm 1).
        assert k_join.count() == 4
        assert "u_info" in k_join.schema

    def test_missing_join_columns_detected(self, fig2_trace, ctx):
        bad = ctx.table_from_rows(["s_id", "u_info"], [("x", None)])
        with pytest.raises(ValueError):
            join_rules(fig2_trace, bad)


class TestInterpretation:
    def test_fig2_values(self, fig2_trace, wiper_catalog):
        """K_s must contain (2s, 45deg, wpos), (2s, 1, wvel), ..."""
        k_pre = preselect(fig2_trace, wiper_catalog)
        k_s = interpret(k_pre, wiper_catalog)
        rows = sorted(k_s.collect())
        assert k_s.columns == ["t", "v", "s_id", "b_id"]
        assert (2.0, 45.0, "wpos", "FC") in rows
        assert (2.0, 1, "wvel", "FC") in rows
        assert (2.5, 60.0, "wpos", "FC") in rows
        assert (2.5, 1, "wvel", "FC") in rows
        assert len(rows) == 4

    def test_u1_stage_adds_relevant_bytes(self, fig2_trace, wiper_catalog, ctx):
        k_pre = preselect(fig2_trace, wiper_catalog)
        k_join2 = extract_relevant_bytes(
            join_rules(k_pre, wiper_catalog.to_table(ctx))
        )
        l_rels = {
            (r_s_id, l_rel)
            for _t, _l, _b, _m, _mi, r_s_id, _u, l_rel in k_join2.collect()
        }
        assert ("wpos", (90).to_bytes(2, "little")) in l_rels
        assert ("wvel", (1).to_bytes(2, "little")) in l_rels

    def test_absent_sectioned_signals_dropped(self, ctx):
        from repro.protocols.someip import ConditionalLayout, OptionalSection

        layout = ConditionalLayout((OptionalSection(0, 2),))
        catalog = RuleCatalog(
            (
                TranslationTuple(
                    "wstat", "ETH", 212,
                    InterpretationRule(
                        SignalEncoding(0, 16), layout=layout, section_bit=0
                    ),
                ),
            )
        )
        present = layout.build_payload({0: (77).to_bytes(2, "little")})
        absent = layout.build_payload({})
        trace = ctx.table_from_rows(
            ["t", "l", "b_id", "m_id", "m_info"],
            [(1.0, present, "ETH", 212, ()), (2.0, absent, "ETH", 212, ())],
        )
        k_s = interpret(preselect(trace, catalog), catalog)
        assert k_s.collect() == [(1.0, 77, "wstat", "ETH")]

    def test_multi_protocol_catalog(self, ctx, wiper_simulation):
        """Table 1: one U_rel combining CAN and LIN signals."""
        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos", "heat"])
        k_b = wiper_simulation.record_table(ctx, 3.0)
        k_s = interpret(preselect(k_b, catalog), catalog)
        signals = {r[2] for r in k_s.collect()}
        assert signals == {"wpos", "heat"}

    def test_simulated_values_match_ground_truth(self, ctx, wiper_simulation):
        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos", "wvel"]).restrict_channels(["FC"])
        k_b = wiper_simulation.record_table(ctx, 3.0)
        k_s = interpret(preselect(k_b, catalog), catalog).cache()
        wiper = db.message("FC", 3)
        for t, payload, b_id, m_id, _mi in k_b.collect():
            if b_id != "FC" or m_id != 3:
                continue
            truth = wiper.decode(payload)
            got = {
                r[2]: r[1]
                for r in k_s.filter(col("t") == t).collect()
            }
            assert got == {"wpos": truth["wpos"], "wvel": truth["wvel"]}

    def test_m_info_dependent_rule_in_pipeline(self, ctx):
        """End to end: the same payload bytes interpret only for rows
        whose m_info satisfies the rule's protocol-field precondition."""
        catalog = RuleCatalog(
            (
                TranslationTuple(
                    "note", "ETH", 99,
                    InterpretationRule(
                        SignalEncoding(0, 8),
                        required_info=(("message_type", 2),),
                    ),
                ),
            )
        )
        trace = ctx.table_from_rows(
            ["t", "l", "b_id", "m_id", "m_info"],
            [
                (1.0, b"\x05", "ETH", 99, (("message_type", 2),)),
                (2.0, b"\x06", "ETH", 99, (("message_type", 0x81),)),
            ],
        )
        k_s = interpret(preselect(trace, catalog), catalog)
        assert k_s.collect() == [(1.0, 5, "note", "ETH")]

    def test_interpret_accepts_preloaded_table(self, fig2_trace, wiper_catalog, ctx):
        table = wiper_catalog.to_table(ctx)
        k_s = interpret(preselect(fig2_trace, wiper_catalog), table)
        assert k_s.count() == 4


class TestTwoSpellings:
    """Lines 4-6 as ``_RuleKernels`` (a RuleCatalog on the production
    executor) and as the join plan (a catalog table) give one ``K_s``."""

    def test_kernels_match_join_plan(self, ctx, wiper_simulation):
        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos", "wvel", "heat", "belt"])
        k_b = wiper_simulation.record_table(ctx, 10.0)
        k_pre = preselect(k_b, catalog).cache()
        joined = interpret(k_pre, catalog.to_table(ctx)).collect()
        kernels = interpret(k_pre, catalog).collect()
        assert kernels == joined

    @pytest.mark.parametrize("spelling", ["kernels", "join"])
    def test_absent_signals_dropped_by_both(self, ctx, spelling):
        from repro.protocols.someip import ConditionalLayout, OptionalSection

        layout = ConditionalLayout((OptionalSection(0, 2),))
        catalog = RuleCatalog(
            (
                TranslationTuple(
                    "opt", "ETH", 7,
                    InterpretationRule(
                        SignalEncoding(0, 16), layout=layout, section_bit=0
                    ),
                ),
            )
        )
        trace = ctx.table_from_rows(
            ["t", "l", "b_id", "m_id", "m_info"],
            [
                (1.0, layout.build_payload({0: b"\x09\x00"}), "ETH", 7, ()),
                (2.0, layout.build_payload({}), "ETH", 7, ()),
            ],
        )
        if spelling == "join":
            catalog = catalog.to_table(ctx)
        k_s = interpret(trace, catalog)
        assert k_s.collect() == [(1.0, 9, "opt", "ETH")]

    def test_kernel_plan_has_no_join(self, ctx, wiper_simulation):
        """A RuleCatalog is one narrow stage;
        the same catalog as a table is the join plan."""
        from repro.engine import plan as logical

        db = wiper_simulation.database
        catalog = db.translation_catalog(["wpos"])
        k_b = wiper_simulation.record_table(ctx, 2.0)
        k_pre = preselect(k_b, catalog)

        def contains_join(node):
            if isinstance(node, logical.Join):
                return True
            return any(contains_join(c) for c in node.children())

        assert not contains_join(interpret(k_pre, catalog).plan)
        assert contains_join(interpret(k_pre, catalog.to_table(ctx)).plan)


class TestBatchInterpretation:
    """The per-rule task of lines 4-6 equals the row forms of u_1/u_2."""

    def test_task_matches_rowwise_u1_u2(self, wiper_catalog):
        from repro.core.interpretation import _RuleKernels, _U1, _U2

        rows = [
            (0.25 * i, (90 + i).to_bytes(2, "little")
             + i.to_bytes(2, "little"), "FC", 3, ())
            for i in range(6)
        ]
        u1, u2 = _U1(), _U2()
        expected = [
            (t, u2(u1(l, u.rule), m_info, u.rule), u.signal_id, b_id)
            for t, l, b_id, _m_id, m_info in rows
            for u in wiper_catalog
        ]
        task = _RuleKernels(wiper_catalog)
        assert task.scalar_rules == {}
        out = task(rows)
        assert [row[:4] for row in out] == expected
        # ... plus each row's sequence code: its (s_id, b_id) ranked.
        keys = sorted({(u.signal_id, u.channel_id) for u in wiper_catalog})
        assert [row[4] for row in out] == [
            keys.index((s_id, b_id)) for _t, _v, s_id, b_id in expected
        ]

    def test_rule_kernels_match_the_join_plan(
        self, fig2_trace, wiper_catalog, ctx
    ):
        k_pre = preselect(fig2_trace, wiper_catalog)
        actual = interpret(k_pre, wiper_catalog).collect()
        assert ctx.executor.metrics.columnar_tasks > 0
        expected = interpret(k_pre, wiper_catalog.to_table(ctx)).collect()
        assert actual == expected
