"""The typed table format: manifest and name checks, corruption sweeps,
round-trip properties and the writer contract.

A stored table is one file: a fixed head, a CRC'd JSON manifest tagged
``repro.table/3`` and one CRC-checked section of column planes per
partition. Everything read back from disk is checked before the engine
sees it, so a damaged store fails with one :class:`ExecutionError` --
never another exception type, and never different rows.
"""

import json
import math
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rules import TRUNCATED
from repro.engine import EngineContext, ExecutionError, TableStore
from repro.engine import storage as storage_mod


@pytest.fixture
def store(tmp_path):
    return TableStore(tmp_path / "db")


#: One column per layout: float64, int64, bytes, str and tagged.
_ROWS = [
    (0.5, 1, b"\x00\x01", "FC", None),
    (-0.0, -2, b"", "FC", True),
    (float("nan"), 2 ** 62, b"\xff", "BC", TRUNCATED),
    (3.0, 7, b"ab", "FC", 2 ** 70),
]
_COLUMNS = ["t", "n", "l", "b_id", "v"]


def _stored(store, ctx, name="x", rows=_ROWS, columns=_COLUMNS):
    store.write(name, ctx.table_from_rows(columns, rows, num_partitions=2))
    return store.path(name)


def _same(left, right):
    """Same type and value; NaN equals NaN and -0.0 is not 0.0."""
    if type(left) is not type(right):
        return False
    if type(left) is float:
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right and math.copysign(1, left) == \
            math.copysign(1, right)
    return left is right if left is TRUNCATED else left == right


def _same_rows(left, right):
    return len(left) == len(right) and all(
        len(a) == len(b) and all(map(_same, a, b))
        for a, b in zip(left, right)
    )


_HEAD = storage_mod._FILE


def _manifest_text(path):
    data = path.read_bytes()
    _magic, length, _crc = _HEAD.unpack_from(data)
    return data[_HEAD.size : _HEAD.size + length]


def _with_manifest(path, text):
    """Replace the manifest in a table's file by *text*, under a valid
    checksum, and keep its sections."""
    data = path.read_bytes()
    start = _HEAD.size + len(_manifest_text(path))
    sections = data[start + -start % 8 :]
    head = _HEAD.pack(storage_mod._FILE_MAGIC, len(text), zlib.crc32(text))
    head += text
    path.write_bytes(head + bytes(-len(head) % 8 if sections else 0)
                     + sections)


def _rewrite_manifest(path, edit):
    manifest = json.loads(_manifest_text(path))
    _with_manifest(path, json.dumps(edit(manifest)).encode())


class TestManifestIsChecked:
    def test_truncated_manifest(self, store, ctx):
        path = _stored(store, ctx)
        _with_manifest(path, _manifest_text(path)[:20])
        with pytest.raises(ExecutionError, match="not valid JSON"):
            store.read(ctx, "x")

    def test_manifest_that_is_not_an_object(self, store, ctx):
        _with_manifest(_stored(store, ctx), b"[]")
        with pytest.raises(ExecutionError, match="not a JSON object"):
            store.read(ctx, "x")

    def test_manifest_under_a_stale_checksum(self, store, ctx):
        path = _stored(store, ctx)
        data = path.read_bytes()
        text = _manifest_text(path)
        at = data.index(b'"num_rows": 4')
        path.write_bytes(data[:at] + b'"num_rows": 5' + data[at + 13 :])
        assert len(_manifest_text(path)) == len(text)
        with pytest.raises(ExecutionError, match="checksum"):
            store.read(ctx, "x")

    def test_string_partition_count(self, store, ctx):
        def edit(manifest):
            manifest["num_partitions"] = "2"
            return manifest

        _rewrite_manifest(_stored(store, ctx), edit)
        with pytest.raises(ExecutionError, match="num_partitions"):
            store.read(ctx, "x")

    def test_manifest_without_columns(self, store, ctx):
        def edit(manifest):
            del manifest["columns"]
            return manifest

        _rewrite_manifest(_stored(store, ctx), edit)
        with pytest.raises(ExecutionError, match="columns"):
            store.read(ctx, "x")

    def test_negative_partition_count(self, store, ctx):
        # At the pickle format this read a 4-row table as 0 rows.
        def edit(manifest):
            manifest["num_partitions"] = -1
            return manifest

        _rewrite_manifest(_stored(store, ctx), edit)
        with pytest.raises(ExecutionError, match="num_partitions"):
            store.read(ctx, "x")

    def test_partition_of_the_wrong_width(self, store, ctx):
        # A 1-column partition in a 2-column table used to be accepted.
        wide = _stored(store, ctx, "wide", [(i, i) for i in range(6)],
                       ["a", "b"])
        narrow = _stored(store, ctx, "narrow", [(i,) for i in range(6)],
                         ["a"])
        form = "repro.table/3"
        manifest, sections = storage_mod.unpack_file(wide.read_bytes(), form)
        _, narrow_sections = storage_mod.unpack_file(narrow.read_bytes(),
                                                     form)
        del manifest["section_bytes"]
        wide.write_bytes(storage_mod.pack_file(
            manifest, [sections[0], narrow_sections[1]]
        ))
        with pytest.raises(ExecutionError, match="partition 1"):
            store.read(ctx, "wide")

    def test_pickle_era_manifest_must_be_rewritten(self, store, ctx):
        directory = store.root / "x"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "columns": ["a"], "num_partitions": 1, "num_rows": 1,
        }))
        (directory / "part-00000.pkl").write_bytes(b"\x80\x05N.")
        with pytest.raises(ExecutionError, match="rewrite"):
            store.read(ctx, "x")

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=st.sampled_from([
            "format", "columns", "num_partitions", "num_rows",
            "partition_rows",
        ]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-3, 5)
            | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3), max_leaves=5,
        ),
    )
    def test_any_field_value_reads_or_is_one_error(
        self, tmp_path, field, value
    ):
        ctx = EngineContext.serial()
        store = TableStore(tmp_path / "fuzz")
        directory = _stored(store, ctx)

        def edit(manifest):
            manifest[field] = value
            return manifest

        _rewrite_manifest(directory, edit)
        try:
            rows = store.read(ctx, "x").collect()
        except ExecutionError:
            return
        assert _same_rows(rows, _ROWS)

    def test_manifest_keeps_the_keys_its_readers_use(self, store, ctx):
        _stored(store, ctx)
        manifest = store.manifest("x")
        assert manifest["format"] == "repro.table/3"
        assert manifest["columns"] == _COLUMNS
        assert manifest["num_partitions"] == 2
        assert manifest["num_rows"] == len(_ROWS)
        assert len(manifest["section_bytes"]) == 2


class TestTableNames:
    @pytest.mark.parametrize(
        "name", ["", "..", ".", ".hidden", "a/b", "../escape", "/abs"]
    )
    def test_every_method_rejects_a_name_outside_the_store(
        self, store, ctx, name
    ):
        table = ctx.table_from_rows(["a"], [(1,)])
        with pytest.raises(ExecutionError, match="invalid table name"):
            store.write(name, table)
        for method in (store.exists, store.delete):
            with pytest.raises(ExecutionError, match="invalid table name"):
                method(name)
        with pytest.raises(ExecutionError, match="invalid table name"):
            store.read(ctx, name)

    def test_write_does_not_escape_the_root(self, store, ctx):
        with pytest.raises(ExecutionError):
            store.write("../escape", ctx.table_from_rows(["a"], [(1,)]))
        assert not (store.root.parent / "escape").exists()


class TestCorruptionSweeps:
    """Every offset of the whole file: the head, the manifest and both
    partition sections."""

    def _file(self, store, ctx):
        path = _stored(store, ctx)
        assert len(store.manifest("x")["section_bytes"]) == 2
        return path, path.read_bytes()

    def test_every_truncation_is_one_execution_error(self, store, ctx):
        path, data = self._file(store, ctx)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ExecutionError):
                store.read(ctx, "x").collect()

    def test_every_byte_flip_fails_or_reads_the_same_rows(self, store, ctx):
        path, data = self._file(store, ctx)
        expected = store.read(ctx, "x").collect()
        for index in range(len(data)):
            flipped = bytearray(data)
            flipped[index] ^= 0xFF
            path.write_bytes(bytes(flipped))
            try:
                rows = store.read(ctx, "x").collect()
            except ExecutionError:
                continue
            assert _same_rows(rows, expected), index


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.just(TRUNCATED),
)


def _column():
    """Homogeneous columns (each typed layout) as well as mixed ones."""
    return st.one_of(
        st.lists(_VALUES, min_size=1, max_size=12),
        st.lists(st.floats(), min_size=1, max_size=12),
        st.lists(st.integers(-9, 9), min_size=1, max_size=12),
        st.lists(st.text(max_size=3), min_size=1, max_size=12),
        st.lists(st.binary(max_size=3), min_size=1, max_size=12),
    )


@st.composite
def _tables(draw):
    columns = draw(st.lists(_column(), min_size=1, max_size=3))
    length = min(map(len, columns))
    rows = list(zip(*(column[:length] for column in columns)))
    return rows, draw(st.integers(1, 3))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_tables())
    def test_every_value_comes_back_with_its_type(self, tmp_path, table):
        rows, partitions = table
        ctx = EngineContext.serial()
        store = TableStore(tmp_path / "prop")
        names = ["c{}".format(i) for i in range(len(rows[0]))]
        source = ctx.table_from_rows(names, rows, num_partitions=partitions)
        store.write("p", source)
        loaded = store.read(ctx, "p")
        assert _same_rows(loaded.collect(), rows)
        assert [len(p) for p in loaded.collect_partitions()] == [
            len(p) for p in source.collect_partitions()
        ]

    @pytest.mark.parametrize("bad", [(1, 2), bytearray(b"x"), 1j, [1]])
    def test_a_value_the_format_cannot_hold_fails_before_staging(
        self, store, ctx, bad
    ):
        rows = [(float(i), "s", i) for i in range(6)]
        rows[4] = (4.0, "s", bad)
        table = ctx.table_from_rows(["t", "s_id", "v"], rows,
                                    num_partitions=2)
        with pytest.raises(ExecutionError) as caught:
            store.write("bad", table)
        message = str(caught.value)
        for part in ("'bad'", "'v'", "partition 1", "row 1",
                     type(bad).__name__):
            assert part in message
        assert list(store.root.iterdir()) == []

    def test_bytes_are_a_function_of_the_table(self, store, ctx):
        rows = [(float(i), "ab"[i % 2], "sig") for i in range(8)]
        direct = ctx.table_from_rows(["t", "b_id", "s_id"], rows,
                                     num_partitions=1)
        # The same rows reached through a split carry a dictionary with
        # values the group does not hold.
        mixed = rows + [(9.0, "zz", "other")]
        via_split = ctx.table_from_rows(
            ["t", "b_id", "s_id"], mixed, num_partitions=1
        ).split_by_key("s_id")["sig"]
        store.write("direct", direct)
        store.write("split", via_split)
        assert store.path("direct").read_bytes() == \
            store.path("split").read_bytes()


class TestLazyRead:
    def test_count_decodes_no_tagged_cell(self, store, ctx, monkeypatch):
        _stored(store, ctx)
        decoded = []
        uncell = storage_mod._uncell

        def counting(raw):
            decoded.append(raw)
            return uncell(raw)

        monkeypatch.setattr(storage_mod, "_uncell", counting)
        loaded = store.read(ctx, "x")
        assert loaded.count() == len(_ROWS)
        assert decoded == []
        assert _same_rows(loaded.collect(), _ROWS)
        assert len(decoded) == len(_ROWS)
