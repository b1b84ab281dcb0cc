"""Immutable rows bound to a schema."""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.relational.schema import Column, ColumnType, Schema


class Row(Mapping[str, object]):
    """An immutable, schema-validated tuple of named values.

    Rows behave like read-only mappings from column name to value. They are
    hashable (so operators can use them in sets/dicts for deduplication and
    caching) as long as their values are hashable.
    """

    __slots__ = ("_schema", "_values")

    def __init__(
        self, schema: Schema, values: Mapping[str, object] | tuple[object, ...]
    ) -> None:
        """Bind ``values`` to ``schema``, validating them.

        ``values`` is either a mapping from column name to value (ingest:
        checked for missing and unknown columns, then types) or a tuple in
        column order (derived rows: checked for arity, then types).
        """
        if isinstance(values, tuple):
            schema.validate_positional(values)
        else:
            schema.validate(dict(values))
            values = tuple(values[name] for name in schema.names)
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> Schema:
        """The schema this row conforms to."""
        return self._schema

    def __getitem__(self, name: str) -> object:
        return self._values[self._schema.index_of(name)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return hash((self._schema.names, self._values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return (
            self._schema.names == other._schema.names
            and self._values == other._values
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._schema.names, self._values)
        )
        return f"Row({pairs})"

    def get(self, name: str, default: object = None) -> object:
        """Value of ``name``, or ``default`` if the column does not exist."""
        if name not in self._schema:
            return default
        return self[name]

    def as_dict(self) -> dict[str, object]:
        """A plain mutable dict copy of the row."""
        return dict(zip(self._schema.names, self._values))

    def project(self, names: list[str]) -> "Row":
        """Row restricted to the given columns (new schema)."""
        index_of = self._schema.index_of
        values = tuple(self._values[index_of(name)] for name in names)
        return Row(self._schema.project(names), values)

    def prefixed(self, prefix: str) -> "Row":
        """Row with columns renamed to ``prefix.name`` (alias binding)."""
        return Row(self._schema.prefixed(prefix), self._values)

    def merged(self, other: "Row") -> "Row":
        """Row with this row's columns followed by ``other``'s (join output)."""
        return Row(self._schema.concat(other._schema), self._values + other._values)

    def extended(self, name: str, value: object) -> "Row":
        """Row with one extra ``any``-typed column appended."""
        schema = self._schema.extended(Column(name, ColumnType.ANY))
        return Row(schema, (*self._values, value))
