"""Typed schemas for in-memory tables.

A :class:`Schema` is an ordered collection of named, typed columns. Schemas
validate rows on insert (catching simulator bugs early) and support the
derivations the planner needs: projection, renaming with an alias prefix, and
concatenation for join outputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    """The column types Qurk queries manipulate.

    ``ANY`` admits any value and is used for UDF-computed columns whose type
    is not declared (e.g. generative task outputs).
    """

    TEXT = "text"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    URL = "url"
    ANY = "any"

    def accepts(self, value: object) -> bool:
        """Whether ``value`` conforms to this column type (None is allowed)."""
        return _ACCEPTS[self](value)


_ACCEPTS: dict[ColumnType, Callable[[object], bool]] = {
    ColumnType.TEXT: lambda value: value is None or isinstance(value, str),
    ColumnType.URL: lambda value: value is None or isinstance(value, str),
    ColumnType.INTEGER: lambda value: value is None
    or (isinstance(value, int) and not isinstance(value, bool)),
    ColumnType.FLOAT: lambda value: value is None
    or (isinstance(value, (int, float)) and not isinstance(value, bool)),
    ColumnType.BOOLEAN: lambda value: value is None or isinstance(value, bool),
    ColumnType.ANY: lambda value: True,
}
"""Per column type, the check :meth:`ColumnType.accepts` applies; schemas
hold their columns' checks to validate rows without the enum dispatch."""


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType = ColumnType.ANY

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def renamed(self, name: str) -> "Column":
        """A copy of this column with a different name."""
        return Column(name=name, type=self.type)


class Schema:
    """An ordered, duplicate-free collection of columns."""

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: tuple[Column, ...] = tuple(columns)
        self.names: tuple[str, ...] = tuple(column.name for column in self.columns)
        """Column names in declaration order."""
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            names = self.names
            duplicates = {name for name in names if names.count(name) > 1}
            raise SchemaError(f"duplicate column names: {sorted(duplicates)}")
        # (position, column, type check) of every column whose type
        # constrains values.
        self._typed = tuple(
            (i, column, _ACCEPTS[column.type])
            for i, column in enumerate(self.columns)
            if column.type is not ColumnType.ANY
        )
        self._hash: int | None = None
        # Derived schemas, memoized so row derivations build each one once.
        self._derived: dict[tuple, "Schema"] = {}

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Build a schema from ``"name type"`` strings, e.g. ``"img url"``.

        The type defaults to ``any`` when omitted, mirroring the paper's
        schema notation like ``celeb(name text, img url)``.
        """
        columns = []
        for spec in specs:
            parts = spec.split()
            if len(parts) == 1:
                columns.append(Column(parts[0]))
            elif len(parts) == 2:
                try:
                    column_type = ColumnType(parts[1].lower())
                except ValueError as exc:
                    raise SchemaError(f"unknown column type in {spec!r}") from exc
                columns.append(Column(parts[0], column_type))
            else:
                raise SchemaError(f"bad column spec {spec!r}; want 'name [type]'")
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        # Cached: derived schemas are memoized in dicts keyed by schema.
        if self._hash is None:
            self._hash = hash(self.columns)
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        return f"Schema({cols})"

    def column(self, name: str) -> Column:
        """The column with the given name; raises :class:`SchemaError`."""
        return self.columns[self.index_of(name)]

    def index_of(self, name: str) -> int:
        """Position of the named column; raises :class:`SchemaError`."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(
                f"no column {name!r}; have {list(self.names)}"
            ) from exc

    def _memo(self, key: tuple, build) -> "Schema":
        schema = self._derived.get(key)
        if schema is None:
            schema = self._derived[key] = build()
        return schema

    def project(self, names: Iterable[str]) -> "Schema":
        """Schema containing only the given columns, in the given order."""
        names = tuple(names)
        return self._memo(
            ("project", names), lambda: Schema([self.column(name) for name in names])
        )

    def prefixed(self, prefix: str) -> "Schema":
        """Schema with every column renamed to ``prefix.name``.

        Used when binding a table under an alias so join outputs keep both
        sides' columns addressable (``c.img``, ``p.img``).
        """
        return self._memo(
            ("prefixed", prefix),
            lambda: Schema(
                [column.renamed(f"{prefix}.{column.name}") for column in self.columns]
            ),
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema with this schema's columns followed by ``other``'s.

        Raises :class:`SchemaError` naming the shared columns if the two
        schemas overlap (a join of two sides bound under the same alias).
        """
        return self._memo(("concat", other), lambda: self._concat(other))

    def _concat(self, other: "Schema") -> "Schema":
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise SchemaError(f"cannot merge rows sharing columns {sorted(overlap)}")
        return Schema([*self.columns, *other.columns])

    def extended(self, column: Column) -> "Schema":
        """Schema with one extra column appended."""
        return self._memo(("extended", column), lambda: Schema([*self.columns, column]))

    def validate(self, values: dict[str, object]) -> None:
        """Check that ``values`` binds exactly this schema's columns with
        type-conforming values; raises :class:`SchemaError` otherwise."""
        missing = [name for name in self.names if name not in values]
        if missing:
            raise SchemaError(f"row missing columns {missing}")
        extra = [name for name in values if name not in self._index]
        if extra:
            raise SchemaError(f"row has unknown columns {sorted(extra)}")
        for _, column, accepts in self._typed:
            value = values[column.name]
            if not accepts(value):
                raise _type_error(column, value)

    def validate_positional(self, values: tuple) -> None:
        """Check that ``values`` holds one type-conforming value per column,
        in column order; raises :class:`SchemaError` otherwise."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values for {len(self.columns)} columns "
                f"{list(self.names)}"
            )
        for i, column, accepts in self._typed:
            value = values[i]
            if not accepts(value):
                raise _type_error(column, value)


def _type_error(column: Column, value: object) -> SchemaError:
    return SchemaError(
        f"column {column.name!r} expects {column.type.value}, "
        f"got {value!r} ({type(value).__name__})"
    )
