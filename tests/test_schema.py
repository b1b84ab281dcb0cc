"""Tests for schemas and column types."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import Column, ColumnType, Schema


def test_schema_of_parses_types():
    schema = Schema.of("name text", "img url", "n integer", "score float", "ok boolean", "blob")
    assert schema.column("name").type is ColumnType.TEXT
    assert schema.column("img").type is ColumnType.URL
    assert schema.column("n").type is ColumnType.INTEGER
    assert schema.column("score").type is ColumnType.FLOAT
    assert schema.column("ok").type is ColumnType.BOOLEAN
    assert schema.column("blob").type is ColumnType.ANY


def test_schema_of_rejects_unknown_type():
    with pytest.raises(SchemaError):
        Schema.of("x varchar")


def test_schema_rejects_duplicates():
    with pytest.raises(SchemaError):
        Schema.of("a", "a")


def test_column_requires_name():
    with pytest.raises(SchemaError):
        Column("")


def test_type_acceptance():
    assert ColumnType.INTEGER.accepts(3)
    assert not ColumnType.INTEGER.accepts(True)  # bool is not an integer here
    assert not ColumnType.INTEGER.accepts("3")
    assert ColumnType.FLOAT.accepts(3)
    assert ColumnType.FLOAT.accepts(2.5)
    assert ColumnType.BOOLEAN.accepts(False)
    assert ColumnType.TEXT.accepts("hi")
    assert not ColumnType.TEXT.accepts(5)
    assert ColumnType.ANY.accepts(object())
    assert ColumnType.TEXT.accepts(None)  # NULLs allowed everywhere


def test_validate_catches_missing_extra_and_badly_typed():
    schema = Schema.of("a integer", "b text")
    schema.validate({"a": 1, "b": "x"})
    with pytest.raises(SchemaError):
        schema.validate({"a": 1})
    with pytest.raises(SchemaError):
        schema.validate({"a": 1, "b": "x", "c": 2})
    with pytest.raises(SchemaError):
        schema.validate({"a": "one", "b": "x"})


def test_project_preserves_order_and_types():
    schema = Schema.of("a integer", "b text", "c float")
    projected = schema.project(["c", "a"])
    assert projected.names == ("c", "a")
    assert projected.column("c").type is ColumnType.FLOAT


def test_prefixed():
    schema = Schema.of("name text").prefixed("c")
    assert schema.names == ("c.name",)


def test_concat_and_extended():
    left = Schema.of("a")
    right = Schema.of("b")
    combined = left.concat(right)
    assert combined.names == ("a", "b")
    extended = combined.extended(Column("c"))
    assert extended.names == ("a", "b", "c")


def test_concat_duplicate_fails():
    left = Schema.of("a", "b")
    for _ in range(2):  # a failed concatenation is not memoized
        with pytest.raises(SchemaError, match="cannot merge rows sharing columns"):
            left.concat(Schema.of("b"))


def test_index_of_and_contains():
    schema = Schema.of("a", "b")
    assert schema.index_of("b") == 1
    assert "a" in schema and "z" not in schema
    with pytest.raises(SchemaError):
        schema.index_of("z")


def test_equality_and_hash():
    assert Schema.of("a integer") == Schema.of("a integer")
    assert Schema.of("a integer") != Schema.of("a text")
    assert hash(Schema.of("a")) == hash(Schema.of("a"))


def test_names_is_cached():
    schema = Schema.of("a", "b")
    assert schema.names is schema.names


def test_derived_schemas_are_memoized():
    left = Schema.of("a text")
    right = Schema.of("b integer")
    assert left.prefixed("x") is left.prefixed("x")
    assert left.prefixed("x") is not left.prefixed("y")
    assert left.concat(right) is left.concat(right)
    # An equal but distinct schema finds the same cached concatenation.
    assert left.concat(Schema.of("b integer")) is left.concat(right)
    assert left.project(["a"]) is left.project(("a",))
    assert left.extended(Column("c")) is left.extended(Column("c"))

