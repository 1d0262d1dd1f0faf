"""Schema construction, lookup and derivation."""

import pytest

from repro.engine import Schema
from repro.engine.errors import SchemaError


class TestSchema:
    def test_of_builds_ordered_names(self):
        schema = Schema.of("t", "l", "b_id")
        assert schema.names == ("t", "l", "b_id")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Schema.of("t", "")

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema.of("t", "t")

    def test_index_of(self):
        schema = Schema.of("a", "b", "c")
        assert schema.index_of("b") == 1

    def test_index_of_unknown_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a").index_of("z")

    def test_contains(self):
        schema = Schema.of("a", "b")
        assert "a" in schema
        assert "z" not in schema

    def test_len(self):
        assert len(Schema.of("a", "b", "c")) == 3

    def test_select_reorders(self):
        schema = Schema.of("a", "b", "c").select(["c", "a"])
        assert schema.names == ("c", "a")

    def test_drop(self):
        schema = Schema.of("a", "b", "c").drop(["b"])
        assert schema.names == ("a", "c")

    def test_drop_unknown_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a").drop(["b"])

    def test_append(self):
        schema = Schema.of("a").append("b")
        assert schema.names == ("a", "b")

    def test_append_duplicate_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a").append("a")

    def test_concat(self):
        schema = Schema.of("a").concat(Schema.of("b"))
        assert schema.names == ("a", "b")

    def test_concat_with_duplicate_raises(self):
        with pytest.raises(SchemaError):
            Schema.of("a").concat(Schema.of("a"))

