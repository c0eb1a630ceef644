"""Deterministic execution substrate for model-generated row-lookup SQL.

A table is loaded into an in-memory SQLite database as a single relation "t"
with sanitized identifiers plus a synthetic 0-based ``_row_id`` column. Only a
restricted SELECT dialect is allowed (see docs/sql_dialect.md); the engine
wraps the query so the result is always a set of row indices.
"""

from __future__ import annotations

import re
import sqlite3
import time
from dataclasses import dataclass

from .normalize import NormalizedTable

TIMEOUT_S = 5.0  # wall-clock budget of one row-lookup statement


class SqlError(Exception):
    """Base class for row-lookup SQL failures."""


class SqlSyntaxError(SqlError):
    pass


class SqlSemanticError(SqlError):
    pass


class SqlPolicyError(SqlError):
    pass


class SqlTimeout(SqlError):
    pass


class AggregateOnly(SqlError):
    """An aggregate query with no WHERE clause: it names no rows to select."""


@dataclass(frozen=True)
class SqlSchema:
    table_name: str
    columns: tuple[tuple[str, str, str], ...]  # (original header, sanitized name, kind)
    row_id_column: str

    def describe(self) -> str:
        """Human-readable schema summary used in SQL-generation prompts."""
        lines = [f'CREATE TABLE {self.table_name} (']
        for original, sanitized, kind in self.columns:
            lines.append(f'  {sanitized} {_AFFINITY.get(kind, "TEXT")},  -- "{original}"')
        lines.append(f"  {self.row_id_column} INTEGER  -- synthetic 0-based row index")
        lines.append(")")
        return "\n".join(lines)


@dataclass(frozen=True)
class RowSet:
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("row indices must be unique and sorted")


_AFFINITY = {"integer": "INTEGER", "decimal": "REAL", "date": "TEXT", "text": "TEXT", "mixed": "TEXT"}


def sanitize_identifier(header: str, taken: set[str] | None = None) -> str:
    """Lowercase, map non-alphanumerics to collapsed underscores, escape collisions."""
    name = re.sub(r"[^a-z0-9]+", "_", header.lower()).strip("_")
    if not name:
        name = "col"
    if name[0].isdigit():
        name = "c_" + name
    if taken is not None:
        base = name
        suffix = 2
        while name in taken:
            name = f"{base}_{suffix}"
            suffix += 1
        taken.add(name)
    return name


def build_schema(table: NormalizedTable) -> SqlSchema:
    taken: set[str] = set()
    columns = []
    for header, kind in zip(table.table.headers, table.column_kinds):
        columns.append((header, sanitize_identifier(header, taken), kind.kind))
    row_id = "_row_id"
    while row_id in taken:
        row_id += "_x"
    return SqlSchema(table_name="t", columns=tuple(columns), row_id_column=row_id)


_AGGREGATE_RE = re.compile(r"\b(count|sum|avg|min|max|total|group_concat)\s*\(|\bgroup\s+by\b", re.IGNORECASE)
_FORBIDDEN_RE = re.compile(
    r"\b(insert|update|delete|drop|create|alter|attach|detach|pragma|replace|vacuum|reindex)\b",
    re.IGNORECASE,
)


def is_aggregate_query(sql: str) -> bool:
    return bool(_AGGREGATE_RE.search(sql))


def check_policy(sql: str) -> str:
    """Reject anything but a single SELECT statement; returns the trimmed SQL."""
    trimmed = sql.strip().rstrip(";").strip()
    if not trimmed:
        raise SqlSyntaxError("empty SQL statement")
    if ";" in trimmed:
        raise SqlPolicyError("statement lists are not allowed")
    if not re.match(r"(?is)^(select|with)\b", trimmed):
        head = trimmed.split()[0]
        if _FORBIDDEN_RE.match(head):
            raise SqlPolicyError(f"only SELECT statements are allowed, got: {head!r}")
        raise SqlSyntaxError(f"statement does not start with SELECT: {head!r}")
    if _FORBIDDEN_RE.search(trimmed):
        raise SqlPolicyError("DDL/DML keywords are not allowed")
    return trimmed


def _authorizer(action: int, arg1, arg2, db_name, trigger) -> int:
    allowed = (
        sqlite3.SQLITE_SELECT,
        sqlite3.SQLITE_READ,
        sqlite3.SQLITE_FUNCTION,
        sqlite3.SQLITE_RECURSIVE,
    )
    return sqlite3.SQLITE_OK if action in allowed else sqlite3.SQLITE_DENY


def _numeric_value(cell: str, kind: str):
    if kind in ("integer", "decimal"):
        try:
            return int(cell) if kind == "integer" else float(cell)
        except ValueError:
            return None  # unparseable cells in a typed column bind as NULL
    return cell


def _load(table: NormalizedTable, schema: SqlSchema) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    cols = ", ".join(f'"{s}" {_AFFINITY.get(k, "TEXT")}' for _, s, k in schema.columns)
    conn.execute(f'CREATE TABLE {schema.table_name} ({cols}, "{schema.row_id_column}" INTEGER)')
    placeholders = ", ".join("?" for _ in range(len(schema.columns) + 1))
    kinds = [kind for _, _, kind in schema.columns]
    conn.executemany(
        f"INSERT INTO {schema.table_name} VALUES ({placeholders})",
        ([*map(_numeric_value, row, kinds), i] for i, row in enumerate(table.table.rows)),
    )
    conn.commit()
    return conn


_WHERE_RE = re.compile(r"(?is)\bwhere\b(.*?)(?:\bgroup\s+by\b|\border\s+by\b|\blimit\b|$)")


def extract_where_clause(sql: str) -> str | None:
    match = _WHERE_RE.search(sql)
    if match:
        clause = match.group(1).strip()
        return clause or None
    return None


def execute_row_lookup(table: NormalizedTable, sql: str, schema: SqlSchema | None = None) -> RowSet:
    """Run a restricted SELECT and return the 0-based indices of qualifying rows.

    The user query is wrapped so ``_row_id`` is recovered regardless of its
    SELECT list; queries that drop it irrecoverably (aggregates) fall back to
    re-running their WHERE clause only, and raise ``AggregateOnly`` when there
    is none.
    """
    schema = schema or build_schema(table)
    trimmed = check_policy(sql)
    m = table.table.row_count

    if is_aggregate_query(trimmed):
        where = extract_where_clause(trimmed)
        if where is None:
            raise AggregateOnly(f"aggregate query without a WHERE clause: {sql!r}")
        trimmed = f"SELECT * FROM {schema.table_name} WHERE {where}"

    conn = _load(table, schema)
    conn.set_authorizer(_authorizer)
    deadline = time.monotonic() + TIMEOUT_S
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 1000)
    wrapped = f'SELECT "{schema.row_id_column}" FROM ({trimmed})'
    try:
        indices = _run(conn, wrapped, sql)
    except SqlSemanticError:
        # SELECT list without _row_id: recover by re-running the WHERE clause only.
        where = extract_where_clause(trimmed)
        if where is None:
            raise
        fallback = f'SELECT "{schema.row_id_column}" FROM {schema.table_name} WHERE {where}'
        indices = _run(conn, fallback, sql)
    finally:
        conn.close()
    return RowSet(indices=tuple(sorted({i for i in indices if 0 <= i < m})))


def _run(conn: sqlite3.Connection, wrapped: str, original: str) -> list[int]:
    try:
        indices = []
        for row in conn.execute(wrapped):
            if row[0] is None:
                continue
            try:
                indices.append(int(row[0]))
            except (TypeError, ValueError) as exc:
                # SQLite silently treats an unknown double-quoted identifier as
                # a string literal, so a missing row-id column surfaces here.
                raise SqlSemanticError(
                    f"no usable row identifiers in: {original!r}"
                ) from exc
        return indices
    except sqlite3.OperationalError as exc:
        message = str(exc)
        if "interrupted" in message:
            raise SqlTimeout(f"statement exceeded the time budget: {original!r}") from exc
        if "syntax error" in message or "incomplete input" in message:
            raise SqlSyntaxError(f"{message} in: {original!r}") from exc
        if "no such" in message or "ambiguous" in message:
            raise SqlSemanticError(f"{message} in: {original!r}") from exc
        if "not authorized" in message or "prohibited" in message:
            raise SqlPolicyError(f"{message} in: {original!r}") from exc
        raise SqlSyntaxError(f"{message} in: {original!r}") from exc
    except sqlite3.DatabaseError as exc:
        message = str(exc)
        if "not authorized" in message or "prohibited" in message:
            raise SqlPolicyError(f"{message} in: {original!r}") from exc
        raise SqlSemanticError(f"{exc} in: {original!r}") from exc
