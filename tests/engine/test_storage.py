"""TableStore persistence round-trips."""

import builtins
import json
import os

import pytest

from repro.engine import ExecutionError, TableStore, col


@pytest.fixture
def store(tmp_path):
    return TableStore(tmp_path / "db")


@pytest.fixture
def table(ctx):
    return ctx.table_from_rows(
        ["t", "v"], [(float(i), i * i) for i in range(20)], num_partitions=4
    )


class TestWriteRead:
    def test_round_trip_preserves_rows(self, store, table, ctx):
        store.write("squares", table)
        loaded = store.read(ctx, "squares")
        assert sorted(loaded.collect()) == sorted(table.collect())

    def test_round_trip_preserves_schema(self, store, table, ctx):
        store.write("squares", table)
        loaded = store.read(ctx, "squares")
        assert loaded.columns == ["t", "v"]

    def test_round_trip_preserves_partitioning(self, store, table, ctx):
        store.write("squares", table)
        loaded = store.read(ctx, "squares")
        assert len(loaded.collect_partitions()) == 4

    def test_manifest_reports_counts(self, store, table):
        manifest = store.write("squares", table)
        assert manifest["num_rows"] == 20
        assert manifest["num_partitions"] == 4

    def test_overwrite_replaces(self, store, table, ctx):
        store.write("data", table)
        smaller = table.filter(col("v") < 4)
        store.write("data", smaller)
        assert store.read(ctx, "data").count() == 2

    def test_bytes_payloads_survive(self, store, ctx):
        t = ctx.table_from_rows(["l"], [(b"\x00\xff\x10",)])
        store.write("raw", t)
        assert store.read(ctx, "raw").collect() == [(b"\x00\xff\x10",)]

    def test_writing_a_columnar_table_lands_no_rows(self, store, ctx,
                                                    monkeypatch):
        # write() used to transpose every columnar partition into rows
        # and pickle them; it now encodes the columns themselves.
        import repro.engine.columnar as columnar_mod
        import repro.engine.operations as operations_mod

        calls = []
        real = columnar_mod.columns_to_rows

        def counting(columns, length):
            calls.append(length)
            return real(columns, length)

        monkeypatch.setattr(columnar_mod, "columns_to_rows", counting)
        monkeypatch.setattr(operations_mod, "columns_to_rows", counting)
        table = ctx.table_from_columnar(
            ["t", "s"],
            [[(float(i), "ab"[i % 2]) for i in range(6)], [(9.0, "c")]],
        )
        store.write("nocopy", table)
        loaded = store.read(ctx, "nocopy")
        assert loaded.count() == 7
        assert calls == []
        assert loaded.collect()[-1] == (9.0, "c")


def _crash_before_rename(monkeypatch):
    """Make the next ``os.replace`` fail, as a kill after staging."""
    def failing_replace(*args, **kwargs):
        raise RuntimeError("killed")

    monkeypatch.setattr(os, "replace", failing_replace)


class TestAtomicWrite:
    def test_crash_mid_overwrite_keeps_old_table(
        self, store, table, ctx, monkeypatch
    ):
        # Regression: write used to delete the old part files before the
        # new manifest landed, so a crash mid-write destroyed both the
        # old and the new table. Staging + rename keeps the old table
        # fully readable when the write dies before its rename.
        store.write("data", table)
        _crash_before_rename(monkeypatch)
        with pytest.raises(RuntimeError):
            store.write("data", table.filter(col("v") < 4))
        monkeypatch.undo()
        loaded = store.read(ctx, "data")
        assert loaded.count() == 20

    def test_staging_dirs_hidden_from_listing(self, store, table):
        store.write("ok", table)
        (store.root / ".staging-ok-junk").mkdir()
        (store.root / ".staging-ok.tbl-1234").write_bytes(b"partial")
        assert store.list_tables() == ["ok"]
        with pytest.raises(ExecutionError, match="invalid table name"):
            store.exists(".staging-ok-junk")

    def test_truncated_file_raises_execution_error(
        self, store, table, ctx
    ):
        # Regression: a manifest pointing at a deleted part file used to
        # escape as a raw FileNotFoundError; a file cut inside its last
        # partitions is the same defect in one file.
        store.write("data", table)
        path = store.path("data")
        path.write_bytes(path.read_bytes()[:-60])
        with pytest.raises(ExecutionError, match="stored table 'data'"):
            store.read(ctx, "data")


class TestFileTraffic:
    """One file per table: writing a 4-partition table opens one file
    and renames it once, and reading it opens one file."""

    def test_write_and_read_touch_one_file(self, store, table, ctx,
                                           monkeypatch):
        opened, replaced = [], []
        real_open, real_replace = builtins.open, os.replace

        def counting_open(file, mode="r", *args, **kwargs):
            opened.append((os.path.basename(file), mode))
            return real_open(file, mode, *args, **kwargs)

        def counting_replace(*args, **kwargs):
            replaced.append(args)
            return real_replace(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "replace", counting_replace)
        assert store.write("squares", table)["num_partitions"] == 4
        assert [mode for _, mode in opened] == ["wb"]
        assert len(replaced) == 1
        del opened[:]
        assert store.read(ctx, "squares").count() == 20
        assert opened == [("squares.tbl", "rb")]
        assert len(replaced) == 1


class TestGc:
    def test_removes_crash_debris(self, store, table, ctx):
        # Regression: atomic writes never cleaned up the hidden staging
        # debris a crash between stage and rename leaves behind; it
        # accumulated invisibly forever. The repro.table/2 writer left
        # directories, this one leaves a file.
        store.write("keep", table)
        staging = store.root / ".staging-keep-1234"
        staging.mkdir()
        (staging / "part-00000.pkl").write_bytes(b"partial")
        retired = store.root / ".retired-keep-1234"
        retired.mkdir()
        staged = store.root / ".staging-keep.tbl-1234"
        staged.write_bytes(b"partial")
        removed = store.gc()
        assert removed == [
            ".retired-keep-1234", ".staging-keep-1234",
            ".staging-keep.tbl-1234",
        ]
        assert not staging.exists() and not retired.exists()
        assert not staged.exists()
        # The live table is untouched and still readable.
        assert store.read(ctx, "keep").count() == 20

    def test_debris_from_failed_overwrite_is_collected(
        self, store, table, ctx, monkeypatch
    ):
        store.write("data", table)
        _crash_before_rename(monkeypatch)
        with pytest.raises(RuntimeError):
            store.write("data", table)
        monkeypatch.undo()
        assert len(store.gc()) == 1
        assert store.gc() == []  # idempotent
        assert store.read(ctx, "data").count() == 20

    def test_noop_on_clean_store(self, store, table):
        store.write("data", table)
        assert store.gc() == []
        assert store.list_tables() == ["data"]

    def test_ignores_regular_files(self, store):
        (store.root / "notes.txt").write_text("not a table")
        assert store.gc() == []
        assert (store.root / "notes.txt").exists()


class TestStoreManagement:
    def test_exists(self, store, table):
        assert not store.exists("x")
        store.write("x", table)
        assert store.exists("x")

    def test_list_tables_sorted(self, store, table):
        store.write("b", table)
        store.write("a", table)
        assert store.list_tables() == ["a", "b"]

    def test_read_missing_raises(self, store, ctx):
        with pytest.raises(ExecutionError):
            store.read(ctx, "ghost")

    def test_delete(self, store, table, ctx):
        store.write("x", table)
        store.delete("x")
        assert not store.exists("x")
        with pytest.raises(ExecutionError):
            store.read(ctx, "x")

    def test_delete_unlinks_the_one_file(self, store, table):
        store.write("x", table)
        assert [p.name for p in store.root.iterdir()] == ["x.tbl"]
        store.delete("x")
        assert list(store.root.iterdir()) == []

    def test_delete_missing_is_noop(self, store):
        store.delete("never-existed")


class TestOldLayout:
    """A table of the ``repro.table/2`` layout is a directory of part
    files and a ``manifest.json``: it is not listed, cannot be read and
    is replaced by a write of its name."""

    @pytest.fixture
    def old(self, store):
        directory = store.root / "old"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "format": "repro.table/2", "columns": ["t", "v"],
            "num_partitions": 1, "num_rows": 0, "partition_rows": [0],
        }))
        (directory / "part-00000.tbl").write_bytes(b"REPROTBL")
        return directory

    def test_not_listed(self, store, table, old):
        store.write("new", table)
        assert store.list_tables() == ["new"]

    def test_read_manifest_and_exists_say_to_rewrite(self, store, ctx, old):
        for call in (lambda: store.read(ctx, "old"),
                     lambda: store.manifest("old"),
                     lambda: store.exists("old")):
            with pytest.raises(ExecutionError, match="rewrite the table"):
                call()

    def test_write_replaces_it(self, store, table, ctx, old):
        store.write("old", table)
        assert not old.exists()
        assert store.exists("old")
        assert store.list_tables() == ["old"]
        assert sorted(store.read(ctx, "old").collect()) == \
            sorted(table.collect())
