"""TableStore persistence round-trips."""

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


class TestAtomicWrite:
    def test_crash_mid_overwrite_keeps_old_table(
        self, store, table, ctx, monkeypatch
    ):
        # Regression: write used to delete the old part files before the
        # new manifest landed, so a crash mid-write destroyed both the
        # old and the new table. Staging + rename keeps the old table
        # fully readable when the manifest write blows up.
        import json as json_module

        store.write("data", table)
        boom = RuntimeError("disk full")

        def failing_dump(*args, **kwargs):
            raise boom

        monkeypatch.setattr(json_module, "dump", failing_dump)
        with pytest.raises(RuntimeError):
            store.write("data", table.filter(col("v") < 4))
        monkeypatch.undo()
        loaded = store.read(ctx, "data")
        assert loaded.count() == 20

    def test_staging_dirs_hidden_from_listing(self, store, table):
        store.write("ok", table)
        (store.root / ".staging-ok-junk").mkdir()
        assert store.list_tables() == ["ok"]
        with pytest.raises(ExecutionError, match="invalid table name"):
            store.exists(".staging-ok-junk")

    def test_missing_part_file_raises_execution_error(
        self, store, table, ctx
    ):
        # Regression: a manifest pointing at a deleted part file used to
        # escape as a raw FileNotFoundError.
        store.write("data", table)
        (store.table_dir("data") / "part-00002.tbl").unlink()
        with pytest.raises(ExecutionError, match="part-00002.tbl"):
            store.read(ctx, "data")


class TestGc:
    def test_removes_crash_debris(self, store, table, ctx):
        # Regression: atomic writes (PR 3) never cleaned up the hidden
        # staging/retired directories a crash between stage and rename
        # leaves behind; they accumulated invisibly forever.
        store.write("keep", table)
        staging = store.root / ".staging-keep-1234"
        staging.mkdir()
        (staging / "part-00000.pkl").write_bytes(b"partial")
        retired = store.root / ".retired-keep-1234"
        retired.mkdir()
        removed = store.gc()
        assert removed == [".retired-keep-1234", ".staging-keep-1234"]
        assert not staging.exists() and not retired.exists()
        # The live table is untouched and still readable.
        assert store.read(ctx, "keep").count() == 20

    def test_debris_from_failed_overwrite_is_collected(
        self, store, table, ctx, monkeypatch
    ):
        import json as json_module

        store.write("data", table)
        monkeypatch.setattr(
            json_module, "dump",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("disk full")),
        )
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

    def test_delete_missing_is_noop(self, store):
        store.delete("never-existed")
