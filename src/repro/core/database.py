"""Database bundle: tables, indexes, and the timestamp oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.table import TableRuntime
from repro.errors import SchemaError
from repro.mvcc.timestamps import TimestampOracle
from repro.oltp.index import HashIndex

__all__ = ["Database"]


@dataclass
class Database:
    """All runtime state of one database instance."""

    tables: Dict[str, TableRuntime] = field(default_factory=dict)
    #: Every table's index by name, for lookups (the tables own them).
    indexes: Dict[str, HashIndex] = field(default_factory=dict)
    oracle: TimestampOracle = field(default_factory=TimestampOracle)

    def table(self, name: str) -> TableRuntime:
        """Look up a table runtime."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"database has no table {name!r}") from None

    def index(self, name: str) -> HashIndex:
        """Look up an index by name."""
        try:
            return self.indexes[name]
        except KeyError:
            raise SchemaError(f"database has no index {name!r}") from None

    def add_table(self, runtime: TableRuntime) -> None:
        """Register a table, and its index under the index's name.

        It creates no index: a table brings its own (or none).
        """
        if runtime.name in self.tables:
            raise SchemaError(f"duplicate table {runtime.name!r}")
        index = runtime.index
        if index is not None:
            if index.name in self.indexes:
                raise SchemaError(f"duplicate index {index.name!r}")
            self.indexes[index.name] = index
        self.tables[runtime.name] = runtime
