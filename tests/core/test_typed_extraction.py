"""Table 6's extraction keeps ``K_s`` in typed columns end to end.

Lines 3-6 hand ``K_s`` over as columnar partitions; the split by signal
type, the table store's write and read, and ``count()`` then move those
columns without building one row tuple, nor one value cell of the
decoded values' planes. The rows read back are the join plan's ``K_s``,
value for value and type for type.
"""

from repro.core import (
    PipelineConfig,
    PreprocessingPipeline,
    interpret,
    preselect,
)
from repro.core.splitting import split_signal_types
from repro.datasets import SPECS, build_dataset
from repro.engine import EngineContext, TableStore
from repro.engine import columnar, operations
from repro.tracefile import colbin


def test_split_write_read_count_land_no_row(tmp_path, monkeypatch):
    bundle = build_dataset(SPECS["SYN"])
    path = tmp_path / "trace.ctrc"
    colbin.dump_records(bundle.byte_records(4.0), path)
    catalog = bundle.catalog()
    pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))
    store = TableStore(tmp_path / "store")

    landed = []
    transpose = columnar.columns_to_rows

    def counting(columns, length):
        landed.append(length)
        return transpose(columns, length)

    monkeypatch.setattr(columnar, "columns_to_rows", counting)
    monkeypatch.setattr(operations, "columns_to_rows", counting)
    cells = []
    built = columnar.ValueColumn.cells

    def counting_cells(column):
        cells.append(len(column))
        return built(column)

    monkeypatch.setattr(columnar.ValueColumn, "cells", counting_cells)
    context = EngineContext.serial()
    k_s = pipeline.extract_signals(colbin.load_table(context, path))
    groups = split_signal_types(k_s, sorted(set(catalog.signal_ids())))
    for s_id, table in groups.items():
        store.write(s_id, table)
    counts = {s_id: store.read(context, s_id).count() for s_id in groups}
    assert landed == [] and cells == []
    monkeypatch.undo()

    k_pre = preselect(colbin.load_table(context, path), catalog)
    expected = interpret(k_pre, catalog.to_table(context)).collect()
    stored = [
        row for s_id in groups for row in store.read(context, s_id).collect()
    ]
    assert sum(counts.values()) == len(expected)
    assert sorted(map(repr, stored)) == sorted(map(repr, expected))
