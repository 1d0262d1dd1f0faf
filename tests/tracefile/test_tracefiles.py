"""ASCII and binary trace log round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracefile import asciilog, binlog, colbin
from repro.tracefile.asciilog import TraceFormatError
from repro.tracefile.binlog import BinaryTraceError
from repro.tracefile.colbin import ColumnarTraceError


@pytest.fixture
def records(wiper_simulation):
    return wiper_simulation.byte_records(5.0)


@pytest.mark.parametrize("module", [asciilog, binlog], ids=["ascii", "binary"])
class TestRoundTrip:
    def test_records_round_trip(self, module, records, tmp_path):
        path = tmp_path / "trace.log"
        count = module.dump_records(records, path)
        assert count == len(records)
        assert module.load_records(path) == records

    def test_table_round_trip(self, module, ctx, wiper_simulation, tmp_path):
        table = wiper_simulation.record_table(ctx, 3.0)
        path = tmp_path / "trace.log"
        module.dump_table(table, path)
        loaded = module.load_table(ctx, path)
        assert loaded.columns == table.columns
        assert sorted(loaded.collect()) == sorted(table.collect())

    def test_empty_trace(self, module, tmp_path):
        path = tmp_path / "empty.log"
        module.dump_records([], path)
        assert module.load_records(path) == []

    def test_empty_payload(self, module, tmp_path):
        path = tmp_path / "t.log"
        records = [(1.0, b"", "FC", 3, (("protocol", "CAN"),))]
        module.dump_records(records, path)
        assert module.load_records(path) == records

    def test_info_value_types_preserved(self, module, tmp_path):
        path = tmp_path / "t.log"
        info = (
            ("protocol", "CAN"),
            ("dlc", 8),
            ("extended", False),
            ("ratio", 0.25),
        )
        records = [(1.5, b"\x01", "FC", 3, info)]
        loaded = module.load_records(
            path if module.dump_records(records, path) else path
        )
        assert loaded == records
        values = dict(loaded[0][4])
        assert isinstance(values["dlc"], int)
        assert isinstance(values["extended"], bool)
        assert isinstance(values["ratio"], float)


class TestAsciiFormat:
    def test_header_line_written(self, tmp_path):
        path = tmp_path / "t.log"
        asciilog.dump_records([], path)
        assert path.read_text().startswith("// repro in-vehicle trace log")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            asciilog.load_records(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("// repro in-vehicle trace log v1\ngarbage line\n")
        with pytest.raises(TraceFormatError):
            asciilog.load_records(path)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            "// repro in-vehicle trace log v1\n"
            "1.0 FC 3 CAN d 5 aabb // protocol=s:CAN\n"
        )
        with pytest.raises(TraceFormatError):
            asciilog.load_records(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "t.log"
        asciilog.dump_records([(1.0, b"\x01", "FC", 3, ())], path)
        content = path.read_text().splitlines()
        content.insert(1, "// a comment")
        path.write_text("\n".join(content) + "\n")
        assert len(asciilog.load_records(path)) == 1

    def test_reserved_characters_rejected(self, tmp_path):
        records = [(1.0, b"", "FC", 3, (("key", "a;b"),))]
        with pytest.raises(TraceFormatError):
            asciilog.dump_records(records, tmp_path / "t.log")


class TestBinaryFormat:
    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + bytes(10))
        with pytest.raises(BinaryTraceError):
            binlog.load_records(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        binlog.dump_records([(1.0, b"\x01\x02", "FC", 3, ())], path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(BinaryTraceError):
            binlog.load_records(path)

    def test_every_truncation_is_the_structured_error(self, tmp_path):
        info = (("protocol", "CAN"), ("dlc", 8), ("ext\u00e9", False),
                ("load", 0.5), ("n\u00f8te", "\u00fcber"))
        path = tmp_path / "t.bin"
        binlog.dump_records(
            [(1.0, b"\x01\x02", "FC", 3, info), (2.0, b"", "K-LIN", 7, ())],
            path,
        )
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(BinaryTraceError) as caught:
                binlog.load_records(path)
            assert str(caught.value) == "truncated file"

    def test_a_header_count_one_short_is_the_structured_error(
        self, ctx, tmp_path
    ):
        from repro.datasets import SPECS, build_dataset

        path = tmp_path / "t.btrc"
        binlog.dump_records(build_dataset(SPECS["SYN"]).byte_records(2.0),
                            path)
        data = bytearray(path.read_bytes())
        count = int.from_bytes(data[10:18], "little")
        data[10:18] = (count - 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        for load in (binlog.load_records,
                     lambda p: binlog.load_table(ctx, p)):
            with pytest.raises(BinaryTraceError) as caught:
                load(path)
            message = str(caught.value)
            assert "{} records".format(count - 1) in message
            assert "{} bytes".format(len(data)) in message

    def test_trailing_bytes_are_the_structured_error(self, tmp_path):
        path = tmp_path / "t.btrc"
        binlog.dump_records([(1.0, b"\x01", "FC", 3, (("dlc", 1),))], path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(BinaryTraceError, match="file has"):
            binlog.load_records(path)

    def test_unknown_tag_message(self, tmp_path):
        path = tmp_path / "t.bin"
        binlog.dump_records([(1.0, b"", "FC", 3, (("k", 1),))], path)
        data = bytearray(path.read_bytes())
        data[-9] = 9  # the tag byte in front of the 8-byte int
        path.write_bytes(bytes(data))
        with pytest.raises(BinaryTraceError) as caught:
            binlog.load_records(path)
        assert str(caught.value) == "unknown value tag 9"

    @pytest.mark.parametrize("text", [b"FC", b"key", b"val"],
                             ids=["b_id", "info-key", "info-value"])
    def test_non_utf8_text_is_the_structured_error(self, tmp_path, text):
        path = tmp_path / "t.bin"
        binlog.dump_records([(1.0, b"", "FC", 3, (("key", "val"),))], path)
        data = path.read_bytes()
        path.write_bytes(data.replace(text, b"\xff" + text[1:]))
        with pytest.raises(BinaryTraceError, match="not UTF-8"):
            list(binlog.load_records(path))

    def test_float_timestamps_bit_exact(self, tmp_path):
        t = 0.1 + 0.2  # classic non-representable sum
        path = tmp_path / "t.bin"
        binlog.dump_records([(t, b"", "FC", 1, ())], path)
        [(loaded_t, *_rest)] = binlog.load_records(path)
        assert loaded_t == t


_GOOD = (1.0, b"\x01", "FC", 3, (("protocol", "CAN"),))


_SHARED_LIMITS = {
    "key": ((1.0, b"", "FC", 3, (("k" * 256, 1),)), "m_info key"),
    "entries": ((1.0, b"", "FC", 3, (("k", 1),) * 256), "entries"),
    "string": ((1.0, b"", "FC", 3, (("note", "x" * 65536),)), "'note'"),
    "int": ((1.0, b"", "FC", 3, (("crc", 2 ** 63),)), "'crc'"),
    "m_id": ((1.0, b"", "FC", 2 ** 64, ()), "m_id"),
    "negative-m_id": ((1.0, b"", "FC", -1, ()), "m_id"),
}


@pytest.mark.parametrize("module, bad, field", [
    pytest.param(binlog, (1.0, b"", "C" * 256, 3, ()), "channel",
                 id="btrc-channel"),
    pytest.param(binlog, (1.0, bytes(65536), "FC", 3, ()), "payload",
                 id="btrc-payload"),
    # A .ctrc channel has a 2-byte length; its payloads have no limit.
    pytest.param(colbin, (1.0, b"", "C" * 65536, 3, ()), "channel",
                 id="ctrc-channel"),
] + [
    pytest.param(module, bad, field, id="{}-{}".format(suffix, name))
    for module, suffix in ((binlog, "btrc"), (colbin, "ctrc"))
    for name, (bad, field) in _SHARED_LIMITS.items()
])
def test_a_field_the_format_cannot_hold_fails_before_any_byte_is_written(
    tmp_path, module, bad, field
):
    error = BinaryTraceError if module is binlog else ColumnarTraceError
    path = tmp_path / "t.trace"
    with pytest.raises(error) as caught:
        module.dump_records([_GOOD, bad], path)
    assert str(caught.value).startswith("record 1: ")
    assert field in str(caught.value)
    assert not path.exists()


@given(
    t=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    payload=st.binary(max_size=16),
    m_id=st.integers(min_value=0, max_value=2**32 - 1),
    channel=st.sampled_from(["FC", "BC", "K-LIN", "ETH"]),
    dlc=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_property_binary_round_trip(tmp_path_factory, t, payload, m_id, channel, dlc):
    path = tmp_path_factory.mktemp("bin") / "t.bin"
    records = [(t, payload, channel, m_id, (("protocol", "CAN"), ("dlc", dlc)))]
    binlog.dump_records(records, path)
    assert binlog.load_records(path) == records
