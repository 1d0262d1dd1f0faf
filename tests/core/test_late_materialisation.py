"""Moving a cell is not reading it: Algorithm 1 over a ``.ctrc`` or
``.btrc`` table.

``m_info`` reaches ``u_2`` only for rules with ``required_info``; the
front half therefore moves the packed info plane (preselection filter,
``cache()``) without one TLV decode, and -- every SYN rule having a
vector kernel -- decodes each rule's payloads column-wise, never
calling the scalar ``u_1``. Both are counted here, against the join
plan's ``K_s`` (the catalog passed as a table).
"""

import dataclasses

import pytest

from repro.core import (
    PipelineConfig,
    PreprocessingPipeline,
    interpret,
    preselect,
)
from repro.core.rules import InterpretationRule, RuleCatalog
from repro.datasets import SPECS, build_dataset
from repro.datasets.showcase import build_showcase
from repro.engine import EngineContext
from repro.protocols.frames import BYTE_RECORD_COLUMNS
from repro.tracefile import binlog, colbin


@pytest.fixture
def extractions(monkeypatch):
    """``u_1`` evaluations, through the row form or a compiled one."""
    calls = []
    compile_extractor = InterpretationRule.compile_extractor
    extract_relevant = InterpretationRule.extract_relevant

    def counting_compile(self):
        extract = compile_extractor(self)

        def counted(payload):
            calls.append(1)
            return extract(payload)

        return counted

    def counting_extract(self, payload):
        calls.append(1)
        return extract_relevant(self, payload)

    monkeypatch.setattr(
        InterpretationRule, "compile_extractor", counting_compile
    )
    monkeypatch.setattr(
        InterpretationRule, "extract_relevant", counting_extract
    )
    return calls


def _dump(records, tmp_path, codec=colbin):
    path = tmp_path / ("trace.ctrc" if codec is colbin else "trace.btrc")
    codec.dump_records(records, path)
    return path


def _k_join_rows(records, catalog, gated_only=False):
    """Rows of ``K_pre ⋈ U_comb`` (optionally: whose rule reads m_info)."""
    per_key = {}
    for u in catalog:
        if u.rule.required_info or not gated_only:
            per_key[u.key()] = per_key.get(u.key(), 0) + 1
    return sum(per_key.get((r[3], r[2]), 0) for r in records)


def test_syn_ctrc_decodes_no_info_cell_and_calls_no_scalar_extractor(
    tmp_path, info_decodes, extractions
):
    bundle = build_dataset(SPECS["SYN"])
    records = bundle.byte_records(4.0)
    catalog = bundle.catalog()
    assert not any(u.rule.required_info for u in catalog)
    k_join = _k_join_rows(records, catalog)
    path = _dump(records, tmp_path)
    pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))

    context = EngineContext.serial()
    result = pipeline.run(colbin.load_table(context, path))
    assert result.counts["k_s"] == k_join
    assert info_decodes == []
    assert extractions == []
    assert not any(
        name.startswith("pipeline.interpret.scalar_")
        for name in result.report.metrics.snapshot()["counters"]
    )

    k_s = pipeline.extract_signals(colbin.load_table(context, path))
    assert k_s.count() == k_join
    assert info_decodes == []
    assert extractions == []

    # The row-wise definition still extracts once per K_join row.
    k_pre = preselect(colbin.load_table(context, path), catalog)
    expected = interpret(k_pre, catalog.to_table(context))
    assert k_s.collect() == expected.collect()
    assert len(extractions) == k_join


def test_lig_btrc_run_decodes_no_info_cell(tmp_path, info_decodes):
    bundle = build_dataset(SPECS["LIG"])
    records = bundle.byte_records(4.0)
    path = _dump(records, tmp_path, binlog)
    pipeline = PreprocessingPipeline(PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    ))
    context = EngineContext.serial()
    r_out = pipeline.run(binlog.load_table(context, path)).r_out.collect()
    assert r_out
    assert info_decodes == []
    # The rows the loader used to build give the same R_out.
    k_b = context.table_from_rows(list(BYTE_RECORD_COLUMNS), records)
    assert sorted(r_out, key=repr) == sorted(
        pipeline.run(k_b).r_out.collect(), key=repr
    )


@pytest.mark.parametrize("codec", [colbin, binlog], ids=["ctrc", "btrc"])
def test_required_info_decodes_exactly_the_rows_whose_rule_asks(
    tmp_path, info_decodes, extractions, codec
):
    showcase = build_showcase()
    records = showcase.simulation.byte_records(4.0)
    gated = showcase.notification_catalog()
    others = tuple(
        u for u in showcase.catalog()
        if u.signal_id != showcase.notification_signal
    )
    catalog = RuleCatalog(others + gated.tuples)
    asking = _k_join_rows(records, catalog, gated_only=True)
    assert 0 < asking < _k_join_rows(records, catalog)
    path = _dump(records, tmp_path, codec)
    pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))

    del extractions[:]  # building the showcase decodes its own frames
    result = pipeline.run(codec.load_table(EngineContext.serial(), path))
    assert len(info_decodes) == asking
    # The scalar extractor ran for the rows of the scalar rules only,
    # which the run report counts per reason.
    counters = result.report.metrics.snapshot()["counters"]
    scalar_rows = {
        name.rsplit(".", 1)[1]: value for name, value in counters.items()
        if name.startswith("pipeline.interpret.scalar_rows.")
    }
    assert scalar_rows["required_info"] == asking
    assert len(extractions) == sum(scalar_rows.values())
    assert len(extractions) < _k_join_rows(records, catalog)
    r_out = sorted(result.r_out.collect(), key=repr)
    assert showcase.notification_signal in {row[1] for row in r_out}

    context = EngineContext.serial()
    k_s = pipeline.extract_signals(codec.load_table(context, path))
    k_pre = preselect(codec.load_table(context, path), catalog)
    expected = interpret(k_pre, catalog.to_table(context))
    assert k_s.collect() == expected.collect()


def test_cached_ctrc_table_keeps_packed_planes_and_yields_the_serial_r_out(
    tmp_path,
):
    bundle = build_dataset(SPECS["SYN"])
    path = _dump(bundle.byte_records(4.0), tmp_path)
    pipeline = PreprocessingPipeline(PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    ))
    serial = pipeline.run(
        colbin.load_table(EngineContext.serial(), path)
    ).r_out.collect()
    context = EngineContext.serial(default_parallelism=2)
    k_b = colbin.load_table(context, path).cache()
    # The cache kept the packed planes.
    info = k_b.plan.partitions[0].column(4)
    assert info.decode is colbin._unpack_info
    parallel = pipeline.run(k_b).r_out.collect()
    assert serial
    assert sorted(parallel, key=repr) == sorted(serial, key=repr)


def test_gated_rule_reads_info_through_every_u2_form(wiper_database):
    """The row form, the compiled evaluator and the per-rule task agree
    on a rule with ``required_info`` -- and the task indexes the info
    column for that rule's rows only."""
    from repro.core.interpretation import _RuleKernels, _U1, _U2
    from repro.engine.columnar import ColumnarPartition

    plain = next(iter(wiper_database.translation_catalog()))
    gated = dataclasses.replace(
        plain, signal_id="gated", message_id=plain.message_id + 1,
        rule=dataclasses.replace(
            plain.rule, required_info=(("protocol", "CAN"),)
        ),
    )
    payload = bytes(range(1, plain.rule.encoding.byte_span()[1] + 2))
    can, lin = (("protocol", "CAN"),), (("protocol", "LIN"),)

    class Infos:
        def __init__(self, cells):
            self.cells, self.read = cells, []

        def __len__(self):
            return len(self.cells)

        def __getitem__(self, index):
            self.read.append(index)
            return self.cells[index]

    infos = Infos([can, lin, can, lin])
    tuples = [gated, gated, plain, plain]
    partition = ColumnarPartition(
        [
            [0.0, 1.0, 2.0, 3.0],
            [payload] * 4,
            [u.channel_id for u in tuples],
            [u.message_id for u in tuples],
            infos,
        ],
        4,
    )
    task = _RuleKernels(RuleCatalog((plain, gated)))
    assert task.scalar_rules == {"required_info": [gated.key()[::-1]]}
    out = task.batch_call(partition).column(1)
    assert infos.read == [0, 1]
    expected = [
        _U2()(_U1()(payload, u.rule, t, u.channel_id, u.message_id), m,
              u.rule)
        for t, m, u in zip(partition.column(0), infos.cells, tuples)
    ]
    assert expected[1] is None and expected[0] == expected[2] == expected[3]
    assert list(out) == [v for v in expected if v is not None]
    evaluate = gated.rule.compile_evaluator()
    assert [
        evaluate(_U1()(payload, gated.rule, t, "FC", 1), m)
        for t, m in zip(partition.column(0), infos.cells[:2])
    ] == expected[:2]


@pytest.mark.parametrize(
    "dataset, codec", [("SYN", colbin), ("LIG", binlog)], ids=["ctrc", "btrc"]
)
def test_k_s_reaches_r_out_without_landing_a_row(
    tmp_path, monkeypatch, dataset, codec
):
    """Lines 7-28 read the cached ``K_s`` as columns: no column the rule
    kernels produced is landed as row tuples between interpretation
    and the merge. ``result.k_s`` still lands the rows the stage used
    to hand on when it is collected."""
    from repro.core import interpretation
    from repro.engine import columnar, operations
    from tests.core import row_reference

    bundle = build_dataset(SPECS[dataset])
    path = _dump(bundle.byte_records(3.0), tmp_path, codec)
    config = PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    )
    produced, landed = [], []
    batch_call = interpretation._RuleKernels.batch_call

    def producing(self, partition):
        out = batch_call(self, partition)
        produced.extend(out.columns)
        return out

    monkeypatch.setattr(interpretation._RuleKernels, "batch_call", producing)
    for module in (columnar, operations):
        def landing(columns, length, land=module.columns_to_rows):
            landed.extend(columns)
            return land(columns, length)

        monkeypatch.setattr(module, "columns_to_rows", landing)
    pipeline = PreprocessingPipeline(config)
    result = pipeline.run(codec.load_table(EngineContext.serial(), path))
    assert produced and result.r_out.count()
    assert not {id(c) for c in produced} & {id(c) for c in landed}

    rows = pipeline.extract_signals(
        codec.load_table(EngineContext.serial(), path)
    ).collect()
    sequences, dropped = row_reference.split_sequences(rows, True, True)
    if dropped:
        rows = [row for seq in sequences.values() for row in seq]
    assert [tuple(map(repr, r)) for r in result.k_s.collect()] == [
        tuple(map(repr, r)) for r in rows
    ]
