"""``.btrc`` records decode through compiled layouts, exactly.

The decoder the layouts replaced is kept below, verbatim, as the
oracle: a known layout is decoded with one ``unpack_from`` and one
masked compare, and everything else is walked, so the tuples -- values
and element types, NaN payloads and signed zeros included -- and the
errors must be the oracle's. ``load_table`` hands the engine packed
planes built by the same scan, and its rows must be the same tuples.
"""

import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext
from repro.engine.columnar import BytesColumn, ColumnarPartition
from repro.tracefile import binlog
from repro.tracefile.binlog import BinaryTraceError

# -- the oracle: the record-by-record decoder, as it was -------------------
MAGIC = b"IVNTRACE"
VERSION = 1
_TAG_BOOL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_HEADER = struct.Struct("<8sHQ")
_RECORD_HEAD = struct.Struct("<dB")  # t | len(b_id)
_RECORD_BODY = struct.Struct("<QH")  # m_id | len(payload)
_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_STR_LENGTH = struct.Struct("<H")
TRUNCATED = "truncated file"


def _text(data, start, end):
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BinaryTraceError(
            "text field is not UTF-8 ({})".format(exc.reason)
        )


def unpack_info(data, pos):
    size = len(data)
    if pos + 1 > size:
        raise BinaryTraceError(TRUNCATED)
    count = data[pos]
    pos += 1
    info = []
    for _unused in range(count):
        # key length, key bytes and the value tag that follows them
        if pos + 1 > size:
            raise BinaryTraceError(TRUNCATED)
        end = pos + 1 + data[pos]
        if end + 1 > size:
            raise BinaryTraceError(TRUNCATED)
        key = _text(data, pos + 1, end)
        tag = data[end]
        pos = end + 1
        if tag == _TAG_STR:
            if pos + 2 > size:
                raise BinaryTraceError(TRUNCATED)
            end = pos + 2 + _STR_LENGTH.unpack_from(data, pos)[0]
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            value = _text(data, pos + 2, end)
        elif tag == _TAG_INT or tag == _TAG_FLOAT:
            end = pos + 8
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            codec = _INT if tag == _TAG_INT else _FLOAT
            value = codec.unpack_from(data, pos)[0]
        elif tag == _TAG_BOOL:
            end = pos + 1
            if end > size:
                raise BinaryTraceError(TRUNCATED)
            value = bool(data[pos])
        else:
            raise BinaryTraceError("unknown value tag {}".format(tag))
        pos = end
        info.append((key, value))
    return tuple(info), pos


def load_records(path):
    """Read byte-record tuples back from *path*."""
    with open(Path(path), "rb") as fh:
        data = fh.read()
    size = len(data)
    if size < _HEADER.size:
        raise BinaryTraceError(TRUNCATED)
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BinaryTraceError("bad magic {!r}".format(magic))
    if version != VERSION:
        raise BinaryTraceError("unsupported version {}".format(version))
    pos = _HEADER.size
    records = []
    for _unused in range(count):
        channel_start = pos + _RECORD_HEAD.size
        if channel_start > size:
            raise BinaryTraceError(TRUNCATED)
        t, channel_length = _RECORD_HEAD.unpack_from(data, pos)
        pos = channel_start + channel_length
        payload_start = pos + _RECORD_BODY.size
        if payload_start > size:
            raise BinaryTraceError(TRUNCATED)
        b_id = _text(data, channel_start, pos)
        m_id, payload_length = _RECORD_BODY.unpack_from(data, pos)
        pos = payload_start + payload_length
        if pos > size:
            raise BinaryTraceError(TRUNCATED)
        info, end = unpack_info(data, pos)
        records.append((t, data[payload_start:pos], b_id, m_id, info))
        pos = end
    return records


# -- helpers ----------------------------------------------------------------
def _oracle(path):
    """The oracle plus the one rule added since: no byte may follow the
    header's last record. A decoded record re-encodes to as many bytes
    as it was read from (a bool byte 2 re-encodes as 1, still one byte)."""
    records = load_records(path)
    used = _HEADER.size + sum(
        19 + len(b.encode()) + len(p) + len(binlog.pack_info(info))
        for _t, p, b, _m, info in records
    )
    if used != Path(path).stat().st_size:
        raise BinaryTraceError("trailing bytes")
    return records


def _exact(value):
    """*value* with every float as its IEEE bytes and every leaf typed:
    equal exactly when the decodes agree bit for bit and type for type."""
    if isinstance(value, tuple):
        return tuple(map(_exact, value))
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return type(value).__name__, value


def _encode(records):
    """A ``.btrc`` image whose info values carry their tag explicitly, so
    a bool can be any byte: ``(key, tag, value)`` entries."""
    out = [_HEADER.pack(MAGIC, VERSION, len(records))]
    for t, payload, b_id, m_id, info in records:
        channel = b_id.encode("utf-8")
        out += [
            _RECORD_HEAD.pack(t, len(channel)), channel,
            _RECORD_BODY.pack(m_id, len(payload)), payload,
            bytes([len(info)]),
        ]
        for key, tag, value in info:
            key = key.encode("utf-8")
            out += [bytes([len(key)]), key, bytes([tag])]
            if tag == _TAG_BOOL:
                out.append(bytes([value]))
            elif tag == _TAG_INT:
                out.append(_INT.pack(value))
            elif tag == _TAG_FLOAT:
                out.append(_FLOAT.pack(value))
            else:
                text = value.encode("utf-8")
                out += [_STR_LENGTH.pack(len(text)), text]
    return b"".join(out)


def _both(path):
    """``(oracle, load_records)`` outcomes: records or the error type."""
    outcomes = []
    for load in (_oracle, binlog.load_records):
        try:
            outcomes.append(_exact(tuple(load(path))))
        except BinaryTraceError:
            outcomes.append(BinaryTraceError)
    return outcomes


_KEYS = [("FC", 3, 8), ("FC", 4, 0), ("K-LIN", 3, 2), ("ét", 2 ** 64 - 1, 1)]
_TEMPLATES = [
    (),
    (("protocol", _TAG_STR), ("dlc", _TAG_INT)),
    (("protocol", _TAG_STR), ("ext", _TAG_BOOL), ("load", _TAG_FLOAT)),
    (("nøte", _TAG_STR), ("protocol", _TAG_STR), ("crc", _TAG_INT),
     ("ext", _TAG_BOOL)),
]
_VALUES = {
    _TAG_BOOL: st.sampled_from([0, 1, 2]),
    _TAG_INT: st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 0])
    | st.integers(-(2 ** 63), 2 ** 63 - 1),
    _TAG_FLOAT: st.sampled_from([0.0, -0.0, math.nan, -math.inf])
    | st.floats(),
    _TAG_STR: st.sampled_from(["CAN", "LIN"]) | st.text(max_size=3),
}


@st.composite
def _record_lists(draw):
    """Records over a few keys, interleaved; within one key the entry
    count, tags and string lengths vary, and layouts repeat often."""
    records = []
    for _unused in range(draw(st.integers(0, 48))):
        b_id, m_id, length = draw(st.sampled_from(_KEYS))
        template = draw(st.sampled_from(_TEMPLATES))
        records.append((
            draw(st.sampled_from([0.5, -0.0, math.nan]) | st.floats()),
            draw(st.binary(min_size=length, max_size=length)),
            b_id,
            m_id,
            tuple((key, tag, draw(_VALUES[tag])) for key, tag in template),
        ))
    return records


# -- exactness ---------------------------------------------------------
@given(records=_record_lists())
@settings(max_examples=150, deadline=None)
def test_decode_is_the_oracles_bit_for_bit(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("btrc") / "t.btrc"
    path.write_bytes(_encode(records))
    expected = _exact(tuple(load_records(path)))
    assert _exact(tuple(binlog.load_records(path))) == expected
    table = binlog.load_table(EngineContext.serial(), path)
    assert _exact(tuple(table.collect())) == expected


def _multi_layout_file():
    can = (("protocol", _TAG_STR, "CAN"), ("dlc", _TAG_INT, 8),
           ("ext", _TAG_BOOL, 0), ("load", _TAG_FLOAT, 0.5))
    lin = (("protocol", _TAG_STR, "LIN"), ("nøte", _TAG_STR, "ü"))
    records = [(0.1 * i, bytes([i, 2]), "FC", 3, can) for i in range(6)]
    records += [(1.0 + i, b"\x07", "K-LIN", 9, lin) for i in range(4)]
    records += [(2.0, b"\x01\x02", "FC", 3, can[:2])]  # same key, new shape
    records += [(3.0, b"", "FC", 5, ())] * 2
    records += [(4.0 + i, bytes([i, 3]), "FC", 3, can) for i in range(3)]
    return _encode(records)


def test_every_truncation_of_a_multi_layout_file_is_truncated(
    ctx, tmp_path
):
    """A cut inside a record of a compiled layout -- even one inside its
    values, which the layout's mask ignores -- is found by the fit
    check, as the walk finds any other."""
    data = _multi_layout_file()
    path = tmp_path / "t.btrc"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        for load in (load_records, binlog.load_records,
                     lambda p: binlog.load_table(ctx, p)):
            with pytest.raises(BinaryTraceError) as caught:
                load(path)
            assert str(caught.value) == "truncated file", cut


@pytest.mark.parametrize("flip", [0x01, 0x80, 0xFF])
def test_every_corrupted_byte_decodes_as_the_oracle_does(tmp_path, flip):
    data = _multi_layout_file()
    path = tmp_path / "t.btrc"
    path.write_bytes(data)
    assert _both(path)[0] is not BinaryTraceError
    context = EngineContext.serial()
    for offset in range(len(data)):
        corrupt = bytearray(data)
        corrupt[offset] ^= flip
        path.write_bytes(bytes(corrupt))
        expected, actual = _both(path)
        assert actual == expected, offset
        # The table opens unless the framing broke, and its rows are the
        # same records -- or a cell's contents raise where it is read.
        try:
            rows = _exact(tuple(binlog.load_table(context, path).collect()))
        except BinaryTraceError:
            rows = BinaryTraceError
        assert rows == expected, offset


@pytest.fixture
def compiles(monkeypatch):
    """Every layout the scans of this test compile."""
    calls = []
    compile_layout = binlog._Layout.compile

    def counting(self, data, pos):
        calls.append(pos)
        return compile_layout(self, data, pos)

    monkeypatch.setattr(binlog._Layout, "compile", counting)
    return calls


@pytest.fixture
def walks(monkeypatch):
    """Every record the scans of this test walk; the others are hits,
    framed by a compiled layout."""
    calls = []
    walk = binlog._walk

    def counting(data, pos, size):
        calls.append(pos)
        return walk(data, pos, size)

    monkeypatch.setattr(binlog, "_walk", counting)
    return calls


def test_cold_scans_and_revivals_stay_exact(tmp_path, compiles, walks):
    """Past 64 walked records in a row the scan looks up one record in
    64; a later run of repeating layouts is found again."""
    unique = [(float(i), b"", "FC", 1000 + i, ()) for i in range(150)]
    periodic = [
        (200.0 + i, bytes([i % 256]), "FC", i % 3,
         (("protocol", _TAG_STR, "CAN"), ("crc", _TAG_INT, i)))
        for i in range(600)
    ]
    path = tmp_path / "t.btrc"
    path.write_bytes(_encode(unique + periodic))
    expected, actual = _both(path)
    assert actual == expected != BinaryTraceError
    hits = len(unique + periodic) - len(walks)
    assert len(compiles) == 3 and hits > 100


# -- the structures a load hands out -----------------------------------
def test_table_partitions_are_packed_like_ctrc(tmp_path):
    from repro.datasets import SPECS, build_dataset

    records = build_dataset(SPECS["SYN"]).byte_records(2.0)
    path = tmp_path / "t.btrc"
    binlog.dump_records(records, path)
    context = EngineContext.serial(default_parallelism=3)
    table = binlog.load_table(context, path)
    sizes = [len(p) for p in table.plan.partitions]
    # Contiguous blocks, sized as split_evenly sizes them.
    base, extra = divmod(len(records), 3)
    assert sizes == [base + (i < extra) for i in range(3)]
    for part in table.plan.partitions:
        assert isinstance(part, ColumnarPartition)
        t, payload, _channel, m_id, info = part.columns
        assert t.typecode == "d" and m_id.typecode == "Q"
        assert isinstance(payload, BytesColumn) and payload.decode is bytes
        assert info.decode is binlog._unpack_cell
    assert table.collect() == records
    # Channel and key strings are shared per layout, not one per record.
    loaded = binlog.load_records(path)
    assert loaded == records
    assert len({id(row[2]) for row in loaded}) < len(records) // 5
    assert len({id(k) for row in loaded for k, _v in row[4]}) < len(records)


def test_seed_0_lig_compiles_one_layout_per_repeating_shape(
    tmp_path, compiles
):
    from repro.datasets import SPECS, build_dataset

    records = build_dataset(SPECS["LIG"]).byte_records(8.0)
    path = tmp_path / "t.btrc"
    binlog.dump_records(records, path)
    assert binlog.load_records(path) == records
    assert len(compiles) == 36 == len({(r[2], r[3], len(r[1]))
                                       for r in records})
    del compiles[:]
    binlog.load_table(EngineContext.serial(), path)
    assert len(compiles) == 36


def test_a_file_whose_layouts_never_repeat_compiles_within_the_bound(
    tmp_path, compiles, walks
):
    """3,000 records over ten keys, each with a string of a random
    length: compiles stay within two plus one per 64 records read and
    one per four hits, and at most two per key."""
    import random

    rng = random.Random(7)
    records = [
        (i * 0.001, bytes(8), "FC", rng.randrange(10),
         (("protocol", "CAN"), ("note", "x" * rng.randrange(41)),
          ("crc", rng.randrange(1 << 16))))
        for i in range(3000)
    ]
    path = tmp_path / "t.btrc"
    binlog.dump_records(records, path)
    assert binlog.load_records(path) == records
    hits = len(records) - len(walks)
    assert len(compiles) <= 2 + len(records) // 64 + hits // 4
    assert len(compiles) <= 2 * 10


# -- what is checked at open and what where a cell is read -------------
class TestCorruptCellIsFoundWhereItIsRead:
    """The ``.btrc`` twin of the ``.ctrc`` class: the framing is checked
    when the table opens; a string inside one ``m_info`` cell that is not
    UTF-8 raises where that cell is read, and a run that only moves the
    cell yields the uncorrupted file's ``R_out``."""

    @pytest.fixture
    def syn(self):
        from repro.datasets import SPECS, build_dataset

        return build_dataset(SPECS["SYN"])

    def _corrupt(self, syn, tmp_path, offset_in_cell):
        """good and bad files; *bad* has one byte of the first read
        cell, ``offset_in_cell(data, key_at)`` from its ``protocol``
        key, set to ``0xEE``."""
        records = syn.byte_records(3.0)
        keys = syn.catalog().preselection_keys()
        index = next(
            i for i, r in enumerate(records) if (r[3], r[2]) in keys
        )
        prefix = tmp_path / "prefix.btrc"
        binlog.dump_records(records[:index], prefix)
        good = tmp_path / "good.btrc"
        binlog.dump_records(records, good)
        data = bytearray(good.read_bytes())
        key_at = data.index(b"protocol\x03", prefix.stat().st_size)
        data[offset_in_cell(data, key_at)] = 0xEE
        bad = tmp_path / "bad.btrc"
        bad.write_bytes(bytes(data))
        return good, bad

    @pytest.fixture
    def paths(self, syn, tmp_path):
        # The first byte of the protocol string, past its tag and length.
        return self._corrupt(syn, tmp_path, lambda _d, at: at + 11)

    def _r_out(self, config, path):
        from repro.core import PreprocessingPipeline

        k_b = binlog.load_table(EngineContext.serial(), path)
        return PreprocessingPipeline(config).run(k_b).r_out.collect()

    def test_a_run_that_never_reads_the_cell_succeeds(self, syn, paths):
        from repro.core import PipelineConfig

        good, bad = paths
        config = PipelineConfig(catalog=syn.catalog())
        r_out = self._r_out(config, bad)
        assert r_out and r_out == self._r_out(config, good)

    def test_landing_the_cell_as_a_row_raises(self, ctx, paths):
        _good, bad = paths
        k_b = binlog.load_table(ctx, bad)  # opens: the framing is intact
        with pytest.raises(BinaryTraceError, match="not UTF-8"):
            k_b.collect()
        records = binlog.load_records(bad)  # as the table: it opens
        with pytest.raises(BinaryTraceError, match="not UTF-8"):
            list(records)

    def test_a_rule_that_reads_the_cell_fails_the_cli_with_one_line(
        self, paths, monkeypatch, capsys
    ):
        import dataclasses
        import io

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
            "error: trace: text field is not UTF-8 (invalid continuation "
            "byte)\n"
        )
        assert out.getvalue() == ""

    def test_an_unknown_tag_is_still_an_open_time_error(
        self, ctx, syn, tmp_path, capsys
    ):
        import io

        from repro import cli

        # The protocol value's tag: without it the cell's end is unknown.
        _good, bad = self._corrupt(syn, tmp_path, lambda _d, at: at + 8)
        with pytest.raises(BinaryTraceError, match="unknown value tag 238"):
            binlog.load_table(ctx, bad)
        out = io.StringIO()
        argv = ["pipeline", "--dataset", "SYN", "--trace", str(bad)]
        assert cli.main(argv, out=out) == 2
        assert capsys.readouterr().err == (
            "error: trace: trace file {!r} is corrupt: unknown value tag "
            "238\n".format(str(bad))
        )
        assert out.getvalue() == ""
