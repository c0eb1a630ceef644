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
from functools import cache
from itertools import chain, count, islice
from typing import Sequence

from .normalize import NormalizedTable

# The work one row lookup may do, in SQLite virtual-machine instructions,
# counted every ``_PROGRESS_STEP`` of them. Lookups on a 5,000-row table,
# subqueries and sorts included, counted up to 110,000; a cross join
# of a 1,000-row table with itself takes 3 million. ``TIMEOUT_S`` of wall
# clock stays as a backstop.
INSTRUCTION_BUDGET = 1_000_000
_PROGRESS_STEP = 1000
TIMEOUT_S = 5.0
# Values bound by one multi-row INSERT of ``_load``. In timings, batches of
# 100 to 1,000 values loaded the 5,000-row, 4-column table in about 8 ms, one
# row per statement in 14 ms and 6,000 values per statement in 11 ms.
_BATCH_PARAMETERS = 250
TABLE_NAME = "t"
# Sanitized headers never start with "_", so no data column can take this name.
ROW_ID = "_row_id"


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
    columns: tuple[tuple[str, str, str], ...]  # (original header, sanitized name, kind)

    def describe(self) -> str:
        """The schema as a valid CREATE TABLE statement, used in SQL-generation prompts."""
        lines = [f'CREATE TABLE {TABLE_NAME} (']
        for original, sanitized, kind in self.columns:
            original = original.replace("\n", " ")  # a line break would end the comment
            lines.append(f'  {_as_written(sanitized)} {_AFFINITY.get(kind, "TEXT")},  -- "{original}"')
        lines.append(f"  {ROW_ID} INTEGER  -- synthetic 0-based row index")
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


@cache
def _as_written(name: str) -> str:
    """``name`` bare where SQLite reads it bare as a column, else double-quoted:
    SQLite reads a keyword such as ``from``, ``when`` or ``true`` otherwise."""
    conn = sqlite3.connect(":memory:")
    try:
        rows = conn.execute(f"SELECT {name} FROM (SELECT 'x' AS \"{name}\") WHERE {name} = 'x'").fetchall()
    except sqlite3.Error:
        rows = []
    conn.close()
    return name if rows == [("x",)] else f'"{name}"'


def build_schema(table: NormalizedTable) -> SqlSchema:
    taken: set[str] = set()
    columns = []
    for header, kind in zip(table.table.headers, table.column_kinds):
        columns.append((header, sanitize_identifier(header, taken), kind.kind))
    return SqlSchema(columns=tuple(columns))


_AGGREGATE_RE = re.compile(r"\b(count|sum|avg|min|max|total|group_concat)\s*\(|\bgroup\s+by\b", re.IGNORECASE)
_FORBIDDEN_RE = re.compile(
    r"\b(insert|update|delete|drop|create|alter|attach|detach|pragma|replace|vacuum|reindex)\b",
    re.IGNORECASE,
)


# A ";" token, or a run that SQLite's tokenizer reads as one token or comment
# and that may hold a ";": a quoted string or identifier, a bracketed
# identifier or a comment, each closed. An unclosed one matches as its opening
# character alone, and holds every ";" after it.
_SEMICOLON_OR_QUOTED = re.compile(r"""(;)|'[^']*'|"[^"]*"|`[^`]*`|\[[^\]]*\]|--[^\n]*|/\*.*?\*/|(['"`\[]|/\*)""", re.S)
# After a ";" token that ends no statement, SQLite's tokenizer is in a trigger
# body, where only "END;" ends one: the state this text leaves it in.
_IN_TRIGGER_BODY = "CREATE TRIGGER;"
# SQLite reads SQL as NUL-terminated UTF-8.
_UNREADABLE = re.compile("[\x00\ud800-\udfff]")


def _ends_a_statement_early(sql: str) -> bool:
    """Whether ``sqlite3.complete_statement`` holds for ``sql`` up to some ";",
    read in one pass: a ";" inside a literal, an identifier or a comment ends
    nothing, so SQLite judges only each ";" token, from the one before it."""
    start, state = 0, ""
    for match in _SEMICOLON_OR_QUOTED.finditer(sql):
        if match[2]:
            return False  # unclosed, up to the end of ``sql``
        if match[1]:
            if sqlite3.complete_statement(state + sql[start : match.end()]):
                return True
            start, state = match.end(), _IN_TRIGGER_BODY
    return False


def _top_level(sql: str) -> str:
    """``sql`` with each quoted run and comment, and the inside of each
    parenthesis, blanked: the query's top level, at the offsets of ``sql``."""
    text = list(sql)
    for match in _SEMICOLON_OR_QUOTED.finditer(sql):
        if not match[1]:
            end = len(sql) if match[2] else match.end()  # an unclosed run holds the rest
            text[match.start() : end] = " " * (end - match.start())
    depth = 0
    for i, char in enumerate(text):
        if char == ")" and depth:
            depth -= 1
        if depth:
            text[i] = " "
        if char == "(":
            depth += 1
    return "".join(text)


def is_aggregate_query(sql: str) -> bool:
    return bool(_AGGREGATE_RE.search(_top_level(sql)))


def check_policy(sql: str) -> str:
    """Reject anything but a single SELECT statement; returns the trimmed SQL."""
    trimmed = sql.strip().rstrip(";").strip()
    if not trimmed:
        raise SqlSyntaxError("empty SQL statement")
    if _UNREADABLE.search(trimmed):
        raise SqlSyntaxError("the query holds a NUL character or a lone surrogate, which SQLite cannot read")
    if _ends_a_statement_early(trimmed):
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


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _numeric_value(cell: str, kind: str):
    if kind in ("integer", "decimal"):
        try:
            value = int(cell) if kind == "integer" else float(cell)
        except ValueError:
            return None  # unparseable cells in a typed column bind as NULL
        # Bound as text, an integer wider than SQLite's 64 bits takes the
        # INTEGER column's REAL fallback, as the same literal does in a query.
        return str(value) if kind == "integer" and not _INT64_MIN <= value <= _INT64_MAX else value
    return cell


def _bound(cells: Sequence[str], kind: str) -> Sequence:
    """A column's values as bound: ``_numeric_value`` of each cell, converted
    in one pass unless some cell does not parse or, in an integer column,
    does not fit in 64 bits."""
    convert = {"integer": int, "decimal": float}.get(kind)
    if convert is None:
        return cells
    try:
        values = list(map(convert, cells))
    except ValueError:
        return [_numeric_value(cell, kind) for cell in cells]
    if convert is int and values and not _INT64_MIN <= min(values) <= max(values) <= _INT64_MAX:
        return [_numeric_value(cell, kind) for cell in cells]
    return values


def _read_columns(conn: sqlite3.Connection, statements: Sequence[str], table: NormalizedTable) -> set[int] | None:
    """The data columns of the empty ``t`` that the programs of ``statements``
    read: in their ``EXPLAIN`` listings, ``p2`` of each ``Column`` on a cursor
    ``OpenRead`` opened on ``t``. None, for every column, when a statement does
    not compile, opens no ``t`` or reads a whole record, or when a column left
    out holds a cell UTF-8 cannot encode, so that the load raises its error."""
    root = conn.execute(f"SELECT rootpage FROM sqlite_master WHERE name = '{TABLE_NAME}'").fetchone()[0]
    read: set[int] = set()
    for sql in statements:
        try:
            program = conn.execute(f"EXPLAIN {sql}").fetchall()
        except (sqlite3.Error, sqlite3.Warning):
            return None
        cursors = {p1 for _, op, p1, p2, p3, *_ in program if op == "OpenRead" and (p2, p3) == (root, 0)}
        if not cursors or any(op in ("RowData", "RowCell", "Offset") for _, op, *_ in program):
            return None
        read.update(p2 for _, op, p1, p2, *_ in program if op == "Column" and p1 in cursors)
    # The cells as given, as a canonical form holds only ASCII or characters of its own cell.
    try:
        "".join(chain.from_iterable(cells for j, cells in enumerate(table.columns.cells) if j not in read)).encode()
    except UnicodeEncodeError:
        return None
    return read


def _load(table: NormalizedTable, schema: SqlSchema, statements: Sequence[str] = ()) -> sqlite3.Connection:
    """The table as relation ``t``, loaded from ``table.columns``: whole batches
    of rows by one multi-row INSERT of about ``_BATCH_PARAMETERS`` values, the
    rows left over one by one; of the data columns, those that ``statements``
    read (``_read_columns``), or else all. A table SQLite cannot hold, such as one
    of more than 1,999 columns or with a cell UTF-8 cannot encode, raises ``SqlError``."""
    conn = sqlite3.connect(":memory:")
    try:
        cols = ", ".join(f'"{s}" {_AFFINITY.get(k, "TEXT")}' for _, s, k in schema.columns)
        conn.execute(f'CREATE TABLE {TABLE_NAME} ({cols}, "{ROW_ID}" INTEGER)')
        # Under the lookup's authorizer, EXPLAIN compiles as the lookup will, and
        # builds no virtual table, such as json_each or dbstat, the lookup may not.
        conn.set_authorizer(_authorizer)
        read = _read_columns(conn, statements, table) if statements else None
        conn.set_authorizer(lambda *args: sqlite3.SQLITE_OK)  # None clears it only from Python 3.11 on
        kept = [j for j in range(len(schema.columns)) if read is None or j in read]
        width = len(kept) + 1
        per_batch = max(1, _BATCH_PARAMETERS // width)
        batched = table.table.row_count - table.table.row_count % per_batch
        names = [f'"{schema.columns[j][1]}"' for j in kept] + [f'"{ROW_ID}"']
        into = f"{TABLE_NAME} ({', '.join(names)})"
        row = f"({', '.join('?' * width)})"
        columns = [_bound(table.columns[j], schema.columns[j][2]) for j in kept]
        rows = zip(*columns, range(table.table.row_count))
        if batched:  # a speed guard: compiling the batch INSERT for no row costs ~0.1 ms per lookup
            values = chain.from_iterable(islice(rows, batched))
            conn.executemany(
                f"INSERT INTO {into} VALUES {', '.join([row] * per_batch)}",
                zip(*[values] * (per_batch * width)),
            )
        conn.executemany(f"INSERT INTO {into} VALUES {row}", rows)
        conn.commit()
    except (sqlite3.Error, UnicodeEncodeError) as exc:  # the latter from a cell with a lone surrogate
        conn.close()
        raise SqlError(f"cannot load the table: {exc}") from exc
    return conn


_WHERE_RE = re.compile(r"(?is)\bwhere\b(.*?)(?:\bgroup\s+by\b|\border\s+by\b|\blimit\b|$)")


def extract_where_clause(sql: str) -> str | None:
    """The top-level WHERE clause of ``sql``, up to its GROUP BY, ORDER BY or LIMIT."""
    match = _WHERE_RE.search(_top_level(sql))
    return (sql[match.start(1) : match.end(1)].strip() or None) if match else None


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

    where = extract_where_clause(trimmed)
    if is_aggregate_query(trimmed):
        if where is None:
            raise AggregateOnly(f"aggregate query without a WHERE clause: {sql!r}")
        trimmed = f"SELECT * FROM {TABLE_NAME} WHERE {where}"

    # The newline ends a trailing "--" comment before the closing parenthesis.
    wrapped = f'SELECT "{ROW_ID}" FROM ({trimmed}\n)'
    # A SELECT list without _row_id is recovered by re-running the WHERE clause
    # only. Both are compiled before the one load, so the re-run finds its
    # columns loaded and shares the lookup's connection, budget and deadline.
    fallback = where and f'SELECT "{ROW_ID}" FROM {TABLE_NAME} WHERE {where}'
    conn = _load(table, schema, [wrapped, fallback] if fallback else [wrapped])
    conn.set_authorizer(_authorizer)
    checks, deadline = count(1), time.monotonic() + TIMEOUT_S
    limit = INSTRUCTION_BUDGET // _PROGRESS_STEP
    conn.set_progress_handler(lambda: next(checks) > limit or time.monotonic() > deadline, _PROGRESS_STEP)
    try:
        indices = _run(conn, wrapped, sql, m)
    except SqlSemanticError:
        if not fallback:
            raise
        indices = _run(conn, fallback, sql, m)
    finally:
        conn.close()
    return RowSet(indices=tuple(sorted(indices)))


# The first of these words that an SQLite error message holds gives its class.
# A message with none is a syntax error if SQLite raised an OperationalError,
# else a semantic one.
_ERROR_WORDS = {"interrupted": SqlTimeout, "syntax error": SqlSyntaxError, "incomplete input": SqlSyntaxError,
                "no such": SqlSemanticError, "ambiguous": SqlSemanticError,
                "not authorized": SqlPolicyError, "prohibited": SqlPolicyError}


def _run(conn: sqlite3.Connection, wrapped: str, original: str, m: int) -> set[int]:
    """The distinct row ids in ``range(m)`` that the query returns; kept as
    they stream in, so a runaway query holds at most ``m`` of them."""
    try:
        indices = set()
        for row in conn.execute(wrapped):
            if row[0] is None:
                continue
            try:
                i = int(row[0])
            except (TypeError, ValueError, OverflowError) as exc:
                # SQLite silently treats an unknown double-quoted identifier as
                # a string literal, so a missing row-id column surfaces here.
                raise SqlSemanticError(
                    f"no usable row identifiers in: {original!r}"
                ) from exc
            if 0 <= i < m:
                indices.add(i)
        return indices
    except sqlite3.DatabaseError as exc:
        message = str(exc)
        default = SqlSyntaxError if isinstance(exc, sqlite3.OperationalError) else SqlSemanticError
        error = next((cls for word, cls in _ERROR_WORDS.items() if word in message), default)
        if error is SqlTimeout:
            raise SqlTimeout(f"statement exceeded its work or time budget: {original!r}") from exc
        raise error(f"{message} in: {original!r}") from exc
