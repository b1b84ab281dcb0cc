"""Tests for immutable rows."""

import pytest

from repro.errors import SchemaError
from repro.relational.rows import Row
from repro.relational.schema import Schema


@pytest.fixture
def row() -> Row:
    return Row(Schema.of("name text", "img url"), {"name": "ada", "img": "img://1"})


def test_mapping_interface(row):
    assert row["name"] == "ada"
    assert list(row) == ["name", "img"]
    assert len(row) == 2
    assert dict(row) == {"name": "ada", "img": "img://1"}


def test_get_with_default(row):
    assert row.get("missing", 42) == 42
    assert row.get("name") == "ada"


def test_validation_on_construction():
    with pytest.raises(SchemaError):
        Row(Schema.of("a integer"), {"a": "nope"})


def test_hash_and_equality(row):
    same = Row(row.schema, {"name": "ada", "img": "img://1"})
    other = Row(row.schema, {"name": "bob", "img": "img://2"})
    assert row == same
    assert hash(row) == hash(same)
    assert row != other
    assert len({row, same, other}) == 2


def test_project(row):
    projected = row.project(["img"])
    assert list(projected) == ["img"]
    assert projected["img"] == "img://1"


def test_prefixed(row):
    prefixed = row.prefixed("c")
    assert prefixed["c.name"] == "ada"
    assert "name" not in prefixed.schema


def test_merged(row):
    other = Row(Schema.of("id integer"), {"id": 7})
    merged = row.merged(other)
    assert merged["id"] == 7
    assert merged["name"] == "ada"


def test_merged_overlap_fails(row):
    for _ in range(2):  # the check is not skipped once it has run
        with pytest.raises(SchemaError, match="cannot merge rows sharing columns"):
            row.merged(Row(Schema.of("name text"), {"name": "x"}))


def test_extended(row):
    extended = row.extended("extra", [1, 2])
    assert extended["extra"] == [1, 2]
    assert len(extended) == 3


def test_as_dict_is_copy(row):
    d = row.as_dict()
    d["name"] = "changed"
    assert row["name"] == "ada"


def test_tuple_values_build_the_same_row(row):
    positional = Row(row.schema, ("ada", "img://1"))
    assert positional == row
    assert hash(positional) == hash(row)


def test_tuple_values_wrong_arity_fails(row):
    with pytest.raises(SchemaError, match="2 columns"):
        Row(row.schema, ("ada",))
    with pytest.raises(SchemaError):
        Row(row.schema, ("ada", "img://1", "extra"))


def test_tuple_values_badly_typed_fails():
    schema = Schema.of("name text", "n integer")
    with pytest.raises(SchemaError, match="expects integer"):
        Row(schema, ("ada", "seven"))
    with pytest.raises(SchemaError, match="expects text"):
        Row(schema, (7, 7))


def test_tuple_values_any_columns_accept_anything():
    schema = Schema.of("blob", "n integer")
    for value in (object(), [1, 2], None, "text", 3.5):
        assert Row(schema, (value, 1))["blob"] is value

