"""Columnar (mmap) trace format: round-trips, structured errors, scans.

Malformed inputs -- truncated files, zero-record files, corrupt magic,
broken offset tables -- must surface as :class:`ColumnarTraceError` (a
``PlanError``), never a bare ``struct.error``; and the format must
round-trip byte records, float timestamps bit-exactly, against the
record-major binlog reader.
"""

import io
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preselection import preselect
from repro.engine import BytesColumn, ColumnarPartition, col
from repro.engine.errors import PlanError
from repro.tracefile import binlog, codec_for, colbin
from repro.tracefile.binlog import PackedRecords
from repro.tracefile.colbin import ColumnarTraceError, ColumnarTraceReader


@pytest.fixture
def records(wiper_simulation):
    return wiper_simulation.byte_records(5.0)


class TestRoundTrip:
    def test_records_round_trip(self, records, tmp_path):
        path = tmp_path / "trace.ctrc"
        count = colbin.dump_records(records, path)
        assert count == len(records)
        assert colbin.load_records(path) == records

    def test_matches_binlog_reader(self, records, tmp_path):
        columnar = tmp_path / "t.ctrc"
        record_major = tmp_path / "t.btrc"
        colbin.dump_records(records, columnar)
        binlog.dump_records(records, record_major)
        assert colbin.load_records(columnar) == binlog.load_records(
            record_major
        )

    def test_float_timestamps_bit_exact(self, tmp_path):
        t = 0.1 + 0.2  # classic non-representable sum
        path = tmp_path / "t.ctrc"
        colbin.dump_records([(t, b"", "FC", 1, ())], path)
        [(loaded_t, *_rest)] = colbin.load_records(path)
        assert loaded_t == t
        assert struct.pack("<d", loaded_t) == struct.pack("<d", t)

    def test_zero_record_file(self, tmp_path):
        path = tmp_path / "empty.ctrc"
        assert colbin.dump_records([], path) == 0
        assert colbin.load_records(path) == []
        reader = ColumnarTraceReader(path)
        assert len(reader) == 0
        assert reader.channels == ()

    def test_empty_payloads_and_info(self, tmp_path):
        path = tmp_path / "t.ctrc"
        records = [(1.0, b"", "FC", 3, ()), (2.0, b"\x00", "FC", 3, ())]
        colbin.dump_records(records, path)
        assert colbin.load_records(path) == records

    def test_table_round_trip(self, ctx, wiper_simulation, tmp_path):
        table = wiper_simulation.record_table(ctx, 3.0)
        path = tmp_path / "trace.ctrc"
        colbin.dump_table(table, path)
        loaded = colbin.load_table(ctx, path)
        assert loaded.columns == table.columns
        assert sorted(loaded.collect()) == sorted(table.collect())

    def test_codec_for_suffix(self):
        assert codec_for("a.ctrc") is colbin
        assert codec_for("a.btrc") is binlog


@given(
    t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    payload=st.binary(max_size=16),
    m_id=st.integers(min_value=0, max_value=2 ** 32 - 1),
    channel=st.sampled_from(["FC", "BC", "K-LIN", "ETH"]),
    dlc=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_property_columnar_round_trip(
    tmp_path_factory, t, payload, m_id, channel, dlc
):
    path = tmp_path_factory.mktemp("col") / "t.ctrc"
    records = [
        (t, payload, channel, m_id, (("protocol", "CAN"), ("dlc", dlc)))
    ]
    colbin.dump_records(records, path)
    assert colbin.load_records(path) == records


def _unpack_info_per_field(data):
    """The decoder ``_unpack_info`` replaced, kept as its oracle: one
    ``calcsize`` + ``unpack_from`` per field behind a bounds check."""
    pos = 0

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise ColumnarTraceError("truncated m_info entry")
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out[0]

    def take_bytes(n):
        nonlocal pos
        if pos + n > len(data):
            raise ColumnarTraceError("truncated m_info entry")
        out = bytes(data[pos : pos + n])
        pos += n
        return out

    info = []
    for _unused in range(take("<B")):
        key = take_bytes(take("<B")).decode("utf-8")
        tag = take("<B")
        if tag == 0:
            value = bool(take("<B"))
        elif tag == 1:
            value = take("<q")
        elif tag == 2:
            value = take("<d")
        elif tag == 3:
            value = take_bytes(take("<H")).decode("utf-8")
        else:
            raise ColumnarTraceError("unknown value tag {}".format(tag))
        info.append((key, value))
    return tuple(info)


_info_tuples = st.lists(
    st.tuples(
        st.text(max_size=12),  # keys: any unicode, non-ASCII included
        st.one_of(
            st.booleans(),
            st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
            st.floats(allow_nan=False),
            st.text(max_size=20),
        ),
    ),
    max_size=6,
).map(tuple)


class TestInfoCodec:
    @given(info=_info_tuples)
    @settings(max_examples=100, deadline=None)
    def test_decoder_equals_the_per_field_decoder(self, info):
        packed = colbin._pack_info(info)
        decoded = colbin._unpack_info(packed)
        assert decoded == info == _unpack_info_per_field(packed)
        assert [type(v) for _k, v in decoded] == [type(v) for _k, v in info]
        assert colbin._unpack_info(memoryview(packed)) == info

    def test_every_truncation_of_a_cell_is_the_structured_error(self):
        info = (("protocol", "CAN"), ("dlc", 8), ("ext\u00e9", False),
                ("load", 0.5), ("n\u00f8te", "\u00fcber"))
        packed = colbin._pack_info(info)
        for cut in range(len(packed)):
            for decode in (colbin._unpack_info, _unpack_info_per_field):
                with pytest.raises(ColumnarTraceError) as caught:
                    decode(packed[:cut])
                assert str(caught.value) == "truncated m_info entry"

    def test_unknown_tag_message(self):
        packed = bytearray(colbin._pack_info((("k", 1),)))
        packed[3] = 9
        for decode in (colbin._unpack_info, _unpack_info_per_field):
            with pytest.raises(ColumnarTraceError) as caught:
                decode(bytes(packed))
            assert str(caught.value) == "unknown value tag 9"


    @pytest.mark.parametrize("text", [b"key", b"val"])
    def test_non_utf8_text_is_the_structured_error(self, text):
        packed = colbin._pack_info((("key", "val"),))
        with pytest.raises(ColumnarTraceError, match="not UTF-8"):
            colbin._unpack_info(packed.replace(text, b"\xff" + text[1:]))

    def test_non_utf8_channel_name_fails_the_open(self, tmp_path):
        path = tmp_path / "t.ctrc"
        colbin.dump_records([(1.0, b"", "CHANNEL", 3, ())], path)
        path.write_bytes(path.read_bytes().replace(b"CHANNEL", b"\xffHANNEL"))
        with pytest.raises(ColumnarTraceError, match="not UTF-8"):
            ColumnarTraceReader(path)


class TestMalformedFiles:
    @pytest.fixture
    def valid_bytes(self, records, tmp_path):
        path = tmp_path / "t.ctrc"
        colbin.dump_records(records[:20], path)
        return path.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.ctrc"
        path.write_bytes(b"NOTMAGIC" + bytes(200))
        with pytest.raises(ColumnarTraceError):
            colbin.load_records(path)

    def test_error_is_a_plan_error(self, tmp_path):
        path = tmp_path / "bad.ctrc"
        path.write_bytes(b"NOTMAGIC" + bytes(200))
        with pytest.raises(PlanError):
            colbin.load_records(path)

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "zero.ctrc"
        path.write_bytes(b"")
        with pytest.raises(ColumnarTraceError):
            colbin.load_records(path)

    @pytest.mark.parametrize("keep", [5, 40, 97, -3, -1])
    def test_truncations_never_raise_struct_error(
        self, valid_bytes, tmp_path, keep
    ):
        path = tmp_path / "trunc.ctrc"
        path.write_bytes(valid_bytes[:keep])
        with pytest.raises(ColumnarTraceError):
            colbin.load_records(path)

    def test_every_truncation_point_is_structured(
        self, valid_bytes, tmp_path
    ):
        # Sweep a stride of truncation points across the whole file:
        # each one must either parse to a (shorter) valid prefix --
        # impossible here because section offsets point past the end --
        # or raise the structured error. Nothing may escape as
        # struct.error or IndexError.
        path = tmp_path / "sweep.ctrc"
        for cut in range(0, len(valid_bytes) - 1, 7):
            path.write_bytes(valid_bytes[:cut])
            with pytest.raises(ColumnarTraceError):
                colbin.load_records(path)

    def test_a_header_count_one_short_is_the_structured_error(
        self, tmp_path
    ):
        from repro.datasets import SPECS, build_dataset

        path = tmp_path / "t.ctrc"
        colbin.dump_records(build_dataset(SPECS["SYN"]).byte_records(2.0),
                            path)
        data = bytearray(path.read_bytes())
        count = struct.unpack_from("<Q", data, 10)[0]
        struct.pack_into("<Q", data, 10, count - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ColumnarTraceError) as caught:
            ColumnarTraceReader(path)
        assert str(caught.value) == (
            "section 0 holds {} bytes, but the header's {} entries need "
            "{}".format(8 * count, count - 1, 8 * (count - 1))
        )

    def test_unsupported_version(self, valid_bytes, tmp_path):
        mutated = bytearray(valid_bytes)
        mutated[8:10] = struct.pack("<H", 99)
        path = tmp_path / "v99.ctrc"
        path.write_bytes(bytes(mutated))
        with pytest.raises(ColumnarTraceError):
            colbin.load_records(path)

    def test_out_of_order_section_offsets(self, valid_bytes, tmp_path):
        mutated = bytearray(valid_bytes)
        # Swap the first two section offsets in the header table.
        base = 8 + 2 + 8 + 8
        first = mutated[base : base + 8]
        second = mutated[base + 8 : base + 16]
        mutated[base : base + 8] = second
        mutated[base + 8 : base + 16] = first
        path = tmp_path / "swapped.ctrc"
        path.write_bytes(bytes(mutated))
        with pytest.raises(ColumnarTraceError):
            colbin.load_records(path)

    def test_corrupt_channel_index(self, valid_bytes, tmp_path):
        reader = None
        mutated = bytearray(valid_bytes)
        header = struct.unpack_from("<8sHQQ", mutated, 0)
        offsets = struct.unpack_from("<9Q", mutated, 26)
        # Point a record at a channel the dictionary does not define.
        struct.pack_into("<H", mutated, offsets[2], 0xFFFE)
        path = tmp_path / "chan.ctrc"
        path.write_bytes(bytes(mutated))
        with pytest.raises(ColumnarTraceError):
            reader = ColumnarTraceReader(path)
        assert reader is None


class TestCorruptCellIsFoundWhereItIsRead:
    """Open-time validation covers the layout; a malformed TLV *inside*
    an ``m_info`` cell raises when that cell is decoded, and a run that
    only moves the cell yields the uncorrupted file's ``R_out``."""

    @pytest.fixture
    def syn(self):
        from repro.datasets import SPECS, build_dataset

        return build_dataset(SPECS["SYN"])

    @pytest.fixture
    def paths(self, syn, tmp_path):
        good = tmp_path / "good.ctrc"
        colbin.dump_records(syn.byte_records(3.0), good)
        data = bytearray(good.read_bytes())
        blob = struct.unpack_from("<9Q", data, 26)[7]
        # Cell 0: count, key length, key, then the value tag.
        data[blob + 2 + data[blob + 1]] = 0xEE
        bad = tmp_path / "bad.ctrc"
        bad.write_bytes(bytes(data))
        return good, bad

    def _r_out(self, config, path):
        from repro.core import PreprocessingPipeline
        from repro.engine import EngineContext

        k_b = colbin.load_table(EngineContext.serial(), path)
        return PreprocessingPipeline(config).run(k_b).r_out.collect()

    def test_a_run_that_never_reads_the_cell_succeeds(self, syn, paths):
        from repro.core import PipelineConfig

        good, bad = paths
        config = PipelineConfig(catalog=syn.catalog())
        r_out = self._r_out(config, bad)
        assert r_out and r_out == self._r_out(config, good)

    def test_landing_the_cell_as_a_row_raises(self, ctx, paths):
        _good, bad = paths
        records = colbin.load_records(bad)  # opens: the layout is intact
        assert list(records[1:])  # every cell but the corrupt one
        with pytest.raises(ColumnarTraceError, match="unknown value tag"):
            list(records)
        with pytest.raises(ColumnarTraceError, match="unknown value tag"):
            colbin.load_table(ctx, bad).collect()

    def test_a_rule_that_reads_the_cell_fails_the_cli_with_one_line(
        self, paths, monkeypatch, capsys
    ):
        import dataclasses

        from repro import cli
        from repro.core.rules import RuleCatalog

        def gated_config(document, database):
            config = config_from_dict(document, database)
            gated = RuleCatalog(tuple(
                dataclasses.replace(u, rule=dataclasses.replace(
                    u.rule, required_info=(("protocol", "CAN"),)
                ))
                for u in config.catalog
            ))
            return dataclasses.replace(config, catalog=gated)

        config_from_dict = cli.config_from_dict
        monkeypatch.setattr(cli, "config_from_dict", gated_config)
        good, bad = paths
        argv = ["pipeline", "--dataset", "SYN", "--trace"]
        out = io.StringIO()
        assert cli.main(argv + [str(good)], out=out) == 0
        assert "classification:" in out.getvalue()
        out = io.StringIO()
        assert cli.main(argv + [str(bad)], out=out) == 2
        assert capsys.readouterr().err == (
            "error: trace: unknown value tag 238\n"
        )
        assert out.getvalue() == ""


class TestReaderColumns:
    @pytest.fixture
    def reader(self, records, tmp_path):
        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        return ColumnarTraceReader(path)

    def test_scan_columns_match_records(self, records, reader):
        assert list(reader.times()) == [r[0] for r in records]
        assert list(reader.message_ids()) == [r[3] for r in records]
        assert reader.channel_column() == [r[2] for r in records]

    def test_payload_and_info_materialize_lazily(self, records, reader):
        payloads = reader.payload_column()
        infos = reader.info_column()
        for index in (0, len(records) // 2, len(records) - 1):
            assert payloads[index] == records[index][1]
            assert isinstance(payloads[index], bytes)
            assert infos[index] == records[index][4]

    def test_indexing_decodes_only_requested(self, records, reader):
        packed = PackedRecords(reader.partitions(1)[0])
        picked = [0, len(records) - 1]
        assert [packed[i] for i in picked] == [records[i] for i in picked]

    def test_partitions_are_columnar_and_pickle(self, records, reader):
        parts = reader.partitions(3)
        assert all(isinstance(p, ColumnarPartition) for p in parts)
        assert sum(len(p) for p in parts) == len(records)
        rows = [row for p in parts for row in p.to_rows()]
        assert rows == records
        clone = pickle.loads(pickle.dumps(parts[0]))
        assert clone.to_rows() == parts[0].to_rows()
        # Both packed planes are sized by the bytes their cells cover
        # (plus offsets), next to 8 bytes per t / b_id / m_id cell.
        n = len(records)
        packed = sum(
            len(r[1]) + len(colbin._pack_info(r[4])) for r in records
        )
        assert sum(p.nbytes() for p in parts) == (
            24 * n + packed + 2 * 8 * (n + len(parts))
        )


class TestCountDecodesNothing:
    """``Table.count()`` sums partition lengths of the layout-preserving
    execution: a ``.ctrc`` table is counted without one ``m_info`` cell
    being TLV-decoded (it used to transpose every column to rows)."""

    def test_count_of_loaded_table(self, records, tmp_path, info_decodes):
        from repro.engine import EngineContext

        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        context = EngineContext.serial(default_parallelism=3)
        table = colbin.load_table(context, path)
        assert table.count() == len(records)
        assert info_decodes == []
        assert table.count() == len(table.collect())
        assert len(info_decodes) == len(records)  # the collect does decode

    @pytest.mark.parametrize("codec", [colbin, binlog], ids=["ctrc", "btrc"])
    @pytest.mark.parametrize("shape", ["compare", "equal", "null-or-in-set"])
    def test_a_generic_filter_decodes_no_info_cell(
        self, records, tmp_path, info_decodes, codec, shape
    ):
        """A filter evaluated row by row sees only the columns it reads:
        counting its survivors decodes no ``m_info`` cell."""
        from repro.engine import EngineContext

        cut = sorted(r[0] for r in records)[len(records) // 2]
        m_id, b_id = records[0][3], records[0][2]
        predicate, keep = {
            "compare": (col("t") < cut, lambda r: r[0] < cut),
            "equal": (col("m_id") == m_id, lambda r: r[3] == m_id),
            "null-or-in-set": (
                col("t").is_null() | col("b_id").is_in([b_id]),
                lambda r: r[2] == b_id,
            ),
        }[shape]
        path = tmp_path / ("t.ctrc" if codec is colbin else "t.btrc")
        codec.dump_records(records, path)
        context = EngineContext.serial(default_parallelism=3)
        table = codec.load_table(context, path)
        expected = sum(1 for r in records if keep(r))
        assert 0 < expected < len(records)
        assert table.filter(predicate).count() == expected
        assert info_decodes == []

    def test_a_filter_on_m_info_decodes_the_cells_it_reads(
        self, records, tmp_path, info_decodes
    ):
        from repro.engine import EngineContext

        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        table = colbin.load_table(EngineContext.serial(), path)
        has_info = table.filter(col("m_info").is_not_null())
        assert has_info.count() == len(records)
        assert len(info_decodes) == len(records)

    def test_count_agrees_with_collect_after_narrow_and_wide_ops(
        self, records, tmp_path
    ):
        from repro.engine import EngineContext

        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        context = EngineContext.serial(default_parallelism=3)
        table = colbin.load_table(context, path)
        some_id = records[0][3]
        for derived in (
            table.filter(col("m_id") == some_id),
            table.select("t", "m_id").repartition(2),
            table.union(table),
            table.filter(col("t") < 0.0),
        ):
            assert derived.count() == len(derived.collect())


class TestPreselectionScan:
    """Line 3 over a ``.ctrc``: ``load_table -> preselect`` reads the
    ``(m_id, b_id)`` views only; payload and ``m_info`` cells of the
    survivors are moved packed, nobody else's are touched."""

    def test_preselect_is_payload_and_info_blind(
        self, ctx, wiper_simulation, tmp_path, info_decodes
    ):
        records = wiper_simulation.byte_records(5.0)
        catalog = wiper_simulation.database.translation_catalog(["belt"])
        keys = catalog.preselection_keys()
        survivors = [r for r in records if (r[3], r[2]) in keys]
        assert 0 < len(survivors) < len(records)
        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        k_pre = preselect(colbin.load_table(ctx, path), catalog).cache()
        assert k_pre.count() == len(survivors)
        assert info_decodes == []
        parts = k_pre.plan.partitions
        assert all(isinstance(p, ColumnarPartition) for p in parts)
        # Payload bytes exist for survivors only, still as one plane.
        payloads = [p.column(1) for p in parts]
        assert all(isinstance(c, BytesColumn) for c in payloads)
        assert sum(len(c.blob) for c in payloads) == sum(
            len(r[1]) for r in survivors
        )
        k_b = ctx.table_from_rows(
            ["t", "l", "b_id", "m_id", "m_info"], records
        )
        assert sorted(k_pre.collect()) == sorted(
            preselect(k_b, catalog).collect()
        )
        assert len(info_decodes) == len(survivors)  # the collect's

    def test_preselected_table_flows_into_engine_ops(
        self, ctx, wiper_simulation, tmp_path
    ):
        records = wiper_simulation.byte_records(3.0)
        catalog = wiper_simulation.database.translation_catalog()
        path = tmp_path / "t.ctrc"
        colbin.dump_records(records, path)
        table = preselect(colbin.load_table(ctx, path), catalog).cache()
        assert table.filter(col("t") >= 0.0).count() == table.count()
