"""Restricted SQL execution engine for row lookup."""

from __future__ import annotations

import itertools
import random
import re
import sqlite3
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablefocus.core import Table
from tablefocus.normalize import ColumnKind, NormalizedTable, normalize, skip_normalization
from tablefocus import sqlrows
from tablefocus.sqlrows import (
    AggregateOnly,
    RowSet,
    SqlError,
    SqlPolicyError,
    SqlSemanticError,
    SqlSyntaxError,
    SqlTimeout,
    _load,
    _numeric_value,
    build_schema,
    check_policy,
    execute_row_lookup,
    extract_where_clause,
    is_aggregate_query,
    sanitize_identifier,
)

from sql_oracle import oracle_rows, random_predicate, random_table


def _fixture_table():
    return skip_normalization(
        Table.make(
            ["Rider", "Country", "Wins"],
            [
                ["Jacky", "Belgium", "3"],
                ["Paolo", "Italy", "5"],
                ["Bram", "Belgium", "2"],
                ["Hans", "Germany", "1"],
            ],
        )
    )


class TestLoad:
    def test_rows_bind_by_kind_in_order(self):
        table = skip_normalization(
            Table.make(
                ["Rider", "Wins", "Avg"],
                [
                    ["Jacky", "3", "1.5"],
                    ["Paolo", "5", "2"],
                    ["Bram", "n/a", "0.25"],
                    ["Hans", "1", "4.0"],
                    ["Ida", "2", "3.5"],
                ],
            )
        )
        assert [k.kind for k in table.column_kinds] == ["text", "integer", "decimal"]
        conn = _load(table, build_schema(table))
        try:
            rows = conn.execute("SELECT * FROM t ORDER BY _row_id").fetchall()
        finally:
            conn.close()
        assert rows == [
            ("Jacky", 3, 1.5, 0),
            ("Paolo", 5, 2.0, 1),
            ("Bram", None, 0.25, 2),  # unparseable in an integer column binds as NULL
            ("Hans", 1, 4.0, 3),
            ("Ida", 2, 3.5, 4),
        ]

    def test_columns_bind_as_each_cell_would(self):
        cells = ["7", " 7 ", "1_000", "-3", "n/a", "inf", "nan", "1e3", "٣٤", "9" * 5000, "2.5", ""]
        parseable = {
            "integer": ["7", " 7 ", "1_000", "-3", "٣٤"],
            "decimal": ["7", "1_000", "inf", "nan", "1e3", "٣٤", "2.5"],
        }
        # Each kind over every cell, and each typed kind over cells that all convert.
        columns = [(kind, cells) for kind in ("text", "integer", "decimal")]
        columns += [(kind, list(itertools.islice(itertools.cycle(p), len(cells)))) for kind, p in parseable.items()]
        headers = [f"c{j}" for j in range(len(columns))]
        table = NormalizedTable(
            table=Table.make(headers, zip(*(column for _, column in columns))),
            column_kinds=tuple(ColumnKind(kind, 1.0) for kind, _ in columns),
            transposed=False,
            renames=tuple(() for _ in headers),
        )
        schema = build_schema(table)
        select = ", ".join(f"{name}, typeof({name})" for _, name, _ in schema.columns)
        per_cell = sqlite3.connect(":memory:")
        loaded = _load(table, schema)
        try:
            per_cell.execute(loaded.execute("SELECT sql FROM sqlite_master").fetchone()[0])
            kinds = [kind for _, _, kind in schema.columns]
            per_cell.executemany(
                f"INSERT INTO t VALUES ({', '.join('?' * (len(kinds) + 1))})",
                ([*map(_numeric_value, row, kinds), i] for i, row in enumerate(table.table.rows)),
            )
            query = f"SELECT {select}, _row_id FROM t ORDER BY _row_id"
            assert loaded.execute(query).fetchall() == per_cell.execute(query).fetchall()
        finally:
            loaded.close()
            per_cell.close()


    def test_integers_beyond_64_bits_bind_as_their_literal_in_a_query(self):
        table = normalize(
            Table.make(
                ["Id", "Name"],
                [["123456789012345678901234", "a"], ["-987654321098765432109876", "b"], ["5", "c"]],
            )
        )
        assert table.column_kinds[0].kind == "integer"
        conn = _load(table, build_schema(table))
        try:
            assert conn.execute("SELECT typeof(id) FROM t ORDER BY _row_id").fetchall() == [
                ("real",),
                ("real",),
                ("integer",),
            ]
        finally:
            conn.close()
        assert execute_row_lookup(table, "SELECT * FROM t WHERE id = 123456789012345678901234").indices == (0,)
        assert execute_row_lookup(table, "SELECT * FROM t WHERE id < 0").indices == (1,)


class TestBatchedLoad:
    """``_load`` inserts whole batches of rows per statement; each table must
    read back as one bound cell by cell with ``_numeric_value``, one row per
    INSERT, would."""

    KINDS = ("text", "integer", "decimal", "date", "mixed")
    # Unparseable, beyond 64 bits, inf/nan-like and blank cells, in every kind of column.
    CELLS = ("7", "-3", " 4 ", "n/a", "", "123456789012345678901234", "-98765432109876543210",
             "inf", "-Infinity", "nan", "NaN", "1e3", "2.5", "x", "2020-01-05")

    def _table(self, width: int, m: int) -> NormalizedTable:
        rows = [[self.CELLS[(7 * i + j) % len(self.CELLS)] for j in range(width)] for i in range(m)]
        return NormalizedTable(
            table=Table.make([f"c{j}" for j in range(width)], rows),
            column_kinds=tuple(ColumnKind(self.KINDS[j % len(self.KINDS)], 1.0) for j in range(width)),
            transposed=False,
            renames=tuple(() for _ in range(width)),
        )

    @pytest.mark.parametrize("width", [1, 4, 300, 1999])
    def test_every_batch_size_reads_back_as_bound_cell_by_cell(self, width):
        batch = max(1, sqlrows._BATCH_PARAMETERS // (width + 1))
        assert batch > 1 or width >= 300  # the widest tables go one row per statement
        for m in sorted({0, 1, batch - 1, batch, batch + 1, 2 * batch + 1}):
            table = self._table(width, m)
            schema = build_schema(table)
            loaded = _load(table, schema)
            per_cell = sqlite3.connect(":memory:")
            try:
                per_cell.execute(loaded.execute("SELECT sql FROM sqlite_master").fetchone()[0])
                kinds = [kind for _, _, kind in schema.columns]
                for i, row in enumerate(table.table.rows):
                    per_cell.execute(
                        f"INSERT INTO t VALUES ({', '.join('?' * (width + 1))})", [*map(_numeric_value, row, kinds), i]
                    )
                names = [name for _, name, _ in schema.columns]
                for at in range(0, width, 500):  # SQLite returns at most 2,000 columns
                    select = ", ".join(f"{name}, typeof({name})" for name in names[at : at + 500])
                    query = f"SELECT {select}, _row_id FROM t"
                    assert loaded.execute(query).fetchall() == per_cell.execute(query).fetchall(), (width, m)
            finally:
                loaded.close()
                per_cell.close()

    def test_table_sqlite_cannot_hold_raises_sql_error(self):
        # 2,001 data columns and _row_id pass SQLite's cap of 2,000 columns.
        table = skip_normalization(Table.make([f"c{j}" for j in range(2001)], [[str(j) for j in range(2001)]]))
        with pytest.raises(SqlError, match="too many columns on t"):
            execute_row_lookup(table, "SELECT * FROM t WHERE c1 = 1")
        widest = skip_normalization(Table.make([f"c{j}" for j in range(1999)], [[str(j) for j in range(1999)]]))
        assert execute_row_lookup(widest, "SELECT * FROM t WHERE c1 = 1").indices == (0,)


class TestSanitizeIdentifier:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Years in office", "years_in_office"),
            ("Wins", "wins"),
            ("2nd Place", "c_2nd_place"),
            ("a--b", "a_b"),
            ("__x__", "x"),
            ("!!!", "col"),
            ("é", "col"),
        ],
    )
    def test_examples(self, raw, expected):
        assert sanitize_identifier(raw) == expected

    def test_collision_escape(self):
        taken: set[str] = set()
        assert sanitize_identifier("a b", taken) == "a_b"
        assert sanitize_identifier("A B", taken) == "a_b_2"
        assert sanitize_identifier("a-b", taken) == "a_b_3"


class TestBuildSchema:
    def test_schema_shape(self):
        schema = build_schema(_fixture_table())
        assert (sqlrows.TABLE_NAME, sqlrows.ROW_ID) == ("t", "_row_id")
        assert [c[1] for c in schema.columns] == ["rider", "country", "wins"]
        assert schema.columns[2][2] == "integer"

    def test_row_id_header_becomes_a_data_column(self):
        table = skip_normalization(Table.make(["_row_id", "name"], [["9", "a"], ["7", "b"], ["5", "c"]]))
        schema = build_schema(table)
        assert [c[1] for c in schema.columns] == ["row_id", "name"]
        assert execute_row_lookup(table, "SELECT * FROM t WHERE row_id < 8", schema).indices == (1, 2)
        assert execute_row_lookup(table, "SELECT name FROM t WHERE name != 'b'", schema).indices == (0, 2)

    def test_describe_mentions_originals(self):
        text = build_schema(_fixture_table()).describe()
        assert '"Country"' in text
        assert "wins INTEGER" in text
        assert "_row_id" in text

    def test_describe_is_valid_sql_for_keyword_and_multiline_headers(self):
        headers = ["From", "To", "Order", "Group", "Index", "Set", "Case", "When", "Name\nin full"]
        table = skip_normalization(Table.make(headers, [[str(j) for j in range(len(headers))], ["x"] * len(headers)]))
        schema = build_schema(table)
        text = schema.describe()
        sqlite3.connect(":memory:").execute(text)
        assert '-- "Name in full"' in text
        assert [c[1] for c in schema.columns][:2] == ["from", "to"]  # identifiers are not renamed
        for j, (_, name, _) in enumerate(schema.columns):
            line = next(ln for ln in text.splitlines() if ln.strip().startswith((name + " ", f'"{name}" ')))
            described = line.split()[0]
            assert execute_row_lookup(table, f"SELECT * FROM t WHERE {described} = '{j}'", schema).indices == (0,)


class _RaisingConnection:
    def __init__(self, exc):
        self.exc = exc

    def execute(self, sql):
        raise self.exc


@pytest.mark.parametrize(
    "exc,expected",
    [
        (sqlite3.OperationalError("interrupted"), SqlTimeout),
        (sqlite3.OperationalError('near "x": syntax error'), SqlSyntaxError),
        (sqlite3.OperationalError("incomplete input"), SqlSyntaxError),
        (sqlite3.OperationalError("no such column: x"), SqlSemanticError),
        (sqlite3.OperationalError("ambiguous column name: x"), SqlSemanticError),
        (sqlite3.OperationalError("not authorized"), SqlPolicyError),
        (sqlite3.OperationalError("access to t.x is prohibited"), SqlPolicyError),
        (sqlite3.OperationalError("too many terms in compound SELECT"), SqlSyntaxError),
        (sqlite3.DatabaseError("not authorized"), SqlPolicyError),
        (sqlite3.DatabaseError("access to t.x is prohibited"), SqlPolicyError),
        (sqlite3.IntegrityError("datatype mismatch"), SqlSemanticError),
        (sqlite3.DataError("string or blob too big"), SqlSemanticError),
    ],
)
def test_sqlite_errors_map_to_their_class(exc, expected):
    with pytest.raises(expected) as info:
        sqlrows._run(_RaisingConnection(exc), "SELECT 1", "q", 3)
    assert type(info.value) is expected
    assert str(info.value).endswith("'q'") and info.value.__cause__ is exc


def _check_policy_reference(sql: str) -> str:
    """``check_policy`` as it was, with ``complete_statement`` run on the SQL
    up to each ";": its work grows with the square of the SQL's length."""
    trimmed = sql.strip().rstrip(";").strip()
    if not trimmed:
        raise SqlSyntaxError("empty SQL statement")
    if any(sqlite3.complete_statement(trimmed[: i + 1]) for i, ch in enumerate(trimmed) if ch == ";"):
        raise SqlPolicyError("statement lists are not allowed")
    if not re.match(r"(?is)^(select|with)\b", trimmed):
        head = trimmed.split()[0]
        if sqlrows._FORBIDDEN_RE.match(head):
            raise SqlPolicyError(f"only SELECT statements are allowed, got: {head!r}")
        raise SqlSyntaxError(f"statement does not start with SELECT: {head!r}")
    if sqlrows._FORBIDDEN_RE.search(trimmed):
        raise SqlPolicyError("DDL/DML keywords are not allowed")
    return trimmed


def _outcome(check, sql: str):
    try:
        return "returned", check(sql)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


# Quotes, brackets, backticks, comments, ";" and the words of SQLite's trigger rule.
_SQL_PIECES = ("SELECT", "x", "1", " ", "\n", "\t", "'", '"', "`", "[", "]", "--", "/*", "*/", "/", "*", "-",
               ";", "CREATE", "TEMP", "temporary", "TRIGGER", "BEGIN", "END", "end;", "EXPLAIN", "é")


class TestPolicy:
    @settings(max_examples=2000, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(_SQL_PIECES), max_size=16).map("".join))
    def test_matches_the_prefix_by_prefix_reference(self, select, sql):
        sql = "SELECT " + sql if select else sql
        assert _outcome(check_policy, sql) == _outcome(_check_policy_reference, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE a = '" + ";" * 4000 + "'",
            "SELECT * FROM t WHERE a = '" + ";" * 4000,
            'SELECT "' + ";" * 4000 + '" FROM t',
            "SELECT [" + ";" * 4000 + "] FROM t",
            "SELECT `" + ";" * 4000 + "` FROM t",
            "SELECT 1 /*" + ";" * 4000 + "*/",
            "SELECT 1 -- " + ";" * 4000,
            "CREATE TRIGGER x BEGIN " + ";" * 4000 + " END",
            "SELECT 1" + "; x" * 4000,
        ],
        ids=["string", "open-string", "quoted", "bracketed", "backticked", "comment", "line-comment", "trigger", "list"],
    )
    def test_semicolon_scan_is_linear(self, monkeypatch, sql):
        expected = _outcome(_check_policy_reference, sql)
        judged = []
        complete = sqlite3.complete_statement
        monkeypatch.setattr(sqlrows.sqlite3, "complete_statement", lambda s: judged.append(len(s)) or complete(s))
        assert _outcome(check_policy, sql) == expected
        # SQLite reads each character once, plus the 15-character trigger-body
        # prefix for each ";" token that ends no statement.
        assert sum(judged) <= 16 * len(sql)

    def test_plain_select_passes(self):
        assert check_policy("SELECT * FROM t;") == "SELECT * FROM t"

    def test_with_clause_passes(self):
        check_policy("WITH x AS (SELECT 1) SELECT * FROM x")

    def test_statement_list_rejected(self):
        with pytest.raises(SqlPolicyError):
            check_policy("SELECT 1; SELECT 2")

    def test_semicolon_in_literal_or_comment_passes(self):
        sql = "SELECT * FROM t WHERE rider = 'a;b' /* ; */"
        assert check_policy(sql) == sql
        table = skip_normalization(Table.make(["Rider"], [["a"], ["a;b"]]))
        assert execute_row_lookup(table, sql + ";").indices == (1,)
        with pytest.raises(SqlPolicyError):
            check_policy("SELECT 'a;b'; SELECT 2")

    def test_ddl_rejected_as_policy(self):
        with pytest.raises(SqlPolicyError):
            check_policy("DROP TABLE t")
        with pytest.raises(SqlPolicyError):
            check_policy("SELECT * FROM t WHERE x = 1 OR delete")

    def test_misspelled_select_is_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            check_policy("SELEC * FROM t")

    def test_empty_statement(self):
        with pytest.raises(SqlSyntaxError):
            check_policy("   ;  ")

    def test_aggregate_detection(self):
        assert is_aggregate_query("SELECT COUNT(*) FROM t")
        assert is_aggregate_query("SELECT a FROM t GROUP BY a")
        assert not is_aggregate_query("SELECT * FROM t WHERE a = 1")

    def test_extract_where_clause(self):
        assert extract_where_clause("SELECT * FROM t WHERE a = 1 ORDER BY b") == "a = 1"
        assert extract_where_clause("SELECT * FROM t") is None

    def test_quoted_runs_comments_and_parentheses_are_not_the_top_level(self):
        assert not is_aggregate_query("SELECT * FROM t WHERE a != 'count(x)' -- max(b)")
        assert not is_aggregate_query("SELECT * FROM t WHERE a > (SELECT AVG(a) FROM t)")
        assert is_aggregate_query("SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM t)")
        assert extract_where_clause("SELECT COUNT(*) FROM t WHERE a = 'limit' /* order by */ LIMIT 1") == (
            "a = 'limit' /* order by */"
        )
        assert extract_where_clause("SELECT * FROM (SELECT * FROM t WHERE a = 1) LIMIT 2") is None
        assert extract_where_clause("SELECT * FROM t WHERE b IN (SELECT b FROM t GROUP BY b) LIMIT 2") == (
            "b IN (SELECT b FROM t GROUP BY b)"
        )
        assert extract_where_clause("SELECT COUNT(*) FROM t WHERE a = 'open") == "a = 'open"


class TestExecuteRowLookup:
    def test_simple_filter(self):
        got = execute_row_lookup(_fixture_table(), "SELECT * FROM t WHERE country = 'Belgium'")
        assert got.indices == (0, 2)

    def test_no_match_reports_reason(self):
        got = execute_row_lookup(_fixture_table(), "SELECT * FROM t WHERE wins > 99")
        assert got.indices == ()

    def test_select_list_without_row_id_recovered(self):
        got = execute_row_lookup(_fixture_table(), "SELECT rider FROM t WHERE wins >= 3")
        assert got.indices == (0, 1)

    def test_a_select_list_without_row_id_and_no_where_clause_keeps_its_error(self):
        with pytest.raises(SqlSemanticError, match="no usable row identifiers in: 'SELECT rider FROM t'"):
            execute_row_lookup(_fixture_table(), "SELECT rider FROM t")

    def test_a_timeout_says_the_budget_ran_out(self, monkeypatch):
        monkeypatch.setattr(sqlrows, "INSTRUCTION_BUDGET", sqlrows._PROGRESS_STEP)
        table = skip_normalization(Table.make(["n"], [[str(i)] for i in range(100)]))
        with pytest.raises(SqlTimeout, match="^statement exceeded its work or time budget: 'SELECT a._row_id"):
            execute_row_lookup(table, "SELECT a._row_id FROM t a, t b")

    def test_null_row_ids_are_skipped(self):
        # UNION sorts the NULL first, so LIMIT 2 keeps it and row 0; re-running
        # the WHERE clause alone would give rows 0 and 2.
        sql = "SELECT NULL AS _row_id FROM t UNION SELECT _row_id FROM t WHERE country = 'Belgium' LIMIT 2"
        assert execute_row_lookup(_fixture_table(), sql).indices == (0,)
        assert execute_row_lookup(_fixture_table(), "SELECT NULL AS _row_id FROM t UNION SELECT 2").indices == (2,)

    def test_order_and_limit_respected(self):
        got = execute_row_lookup(_fixture_table(), "SELECT * FROM t ORDER BY wins DESC LIMIT 2")
        assert got.indices == (0, 1)

    def test_aggregate_with_where_uses_where(self):
        got = execute_row_lookup(
            _fixture_table(), "SELECT COUNT(*) FROM t WHERE country = 'Belgium'"
        )
        assert got.indices == (0, 2)

    def test_aggregate_without_where_selects_all(self):
        # It names no rows, so the caller selects all of them.
        with pytest.raises(AggregateOnly):
            execute_row_lookup(_fixture_table(), "SELECT COUNT(*) FROM t")
        with pytest.raises(AggregateOnly):
            execute_row_lookup(_fixture_table(), "SELECT country FROM t GROUP BY country")

    def test_unknown_column_is_semantic_error(self):
        with pytest.raises(SqlSemanticError):
            execute_row_lookup(_fixture_table(), "SELECT bogus FROM t")

    def test_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            execute_row_lookup(_fixture_table(), "SELECT * FROM WHERE")

    def test_unknown_table_is_semantic_error(self):
        with pytest.raises(SqlSemanticError):
            execute_row_lookup(_fixture_table(), "SELECT * FROM elsewhere")

    def test_case_insensitive_like(self):
        got = execute_row_lookup(_fixture_table(), "SELECT * FROM t WHERE rider LIKE 'JA%'")
        assert got.indices == (0,)

    def test_timeout(self, monkeypatch):
        monkeypatch.setattr(sqlrows, "TIMEOUT_S", 0.2)
        sql = (
            "WITH RECURSIVE c(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM c) "
            'SELECT n AS "_row_id" FROM c'
        )
        with pytest.raises(SqlTimeout):
            execute_row_lookup(_fixture_table(), sql)

    def test_runaway_lookup_holds_only_in_range_ids(self, monkeypatch):
        # Each progress check advances the clock by one tick, so the deadline
        # would pass after 2,500 checks; the instruction budget ends the query
        # first, after 1,000 (INSTRUCTION_BUDGET // _PROGRESS_STEP), about
        # 62,500 returned rows.
        ticks = itertools.count(0.0, sqlrows.TIMEOUT_S / 2500)
        monkeypatch.setattr(sqlrows.time, "monotonic", lambda: next(ticks))
        table = skip_normalization(Table.make(["n"], [[str(i)] for i in range(100)]))
        sql = "WITH RECURSIVE r(x) AS (SELECT 0 UNION ALL SELECT x + 1 FROM r) SELECT x AS _row_id FROM r"
        tracemalloc.start()
        try:
            with pytest.raises(SqlTimeout):
                execute_row_lookup(table, sql)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a._row_id FROM t a, t b",
            "WITH RECURSIVE r(x) AS (SELECT 0 UNION ALL SELECT x + 1 FROM r) SELECT x AS _row_id FROM r",
        ],
    )
    def test_runaway_lookup_ends_on_its_instruction_budget(self, monkeypatch, sql):
        monkeypatch.setattr(sqlrows.time, "monotonic", lambda: 0.0)  # the clock never runs out
        table = skip_normalization(Table.make(["n"], [[str(i)] for i in range(1000)]))
        with pytest.raises(SqlTimeout):
            execute_row_lookup(table, sql)
        if "RECURSIVE" not in sql:  # the same join of 100 rows fits in the budget
            table = skip_normalization(Table.make(["n"], [[str(i)] for i in range(100)]))
            assert execute_row_lookup(table, sql).indices == tuple(range(100))

    def test_the_instruction_budget_admits_exactly_its_progress_checks(self, monkeypatch):
        checks = 0

        def clock():  # read once for the deadline, then at each progress check within the budget
            nonlocal checks
            checks += 1
            return 0.0

        monkeypatch.setattr(sqlrows.time, "monotonic", clock)
        monkeypatch.setattr(sqlrows, "INSTRUCTION_BUDGET", 10**12)
        table = skip_normalization(Table.make(["n"], [[str(i)] for i in range(60)]))
        sql = "SELECT a._row_id FROM t a, t b"
        assert execute_row_lookup(table, sql).indices == tuple(range(60))
        needed = checks - 1
        assert needed > 1
        monkeypatch.setattr(sqlrows, "INSTRUCTION_BUDGET", needed * sqlrows._PROGRESS_STEP)
        assert execute_row_lookup(table, sql).indices == tuple(range(60))
        monkeypatch.setattr(sqlrows, "INSTRUCTION_BUDGET", (needed - 1) * sqlrows._PROGRESS_STEP)
        with pytest.raises(SqlTimeout):
            execute_row_lookup(table, sql)

    def test_wall_clock_is_the_backstop(self, monkeypatch):
        monkeypatch.setattr(sqlrows, "INSTRUCTION_BUDGET", 10**12)
        ticks = itertools.count(0.0, 1.0)  # a second per progress check
        monkeypatch.setattr(sqlrows.time, "monotonic", lambda: next(ticks))
        sql = "WITH RECURSIVE r(x) AS (SELECT 0 UNION ALL SELECT x + 1 FROM r) SELECT x AS _row_id FROM r"
        with pytest.raises(SqlTimeout):
            execute_row_lookup(_fixture_table(), sql)
        assert next(ticks) == sqlrows.TIMEOUT_S + 2  # interrupted at the first check past the deadline

    def test_trailing_line_comment(self):
        sql = "SELECT * FROM t WHERE country = 'Belgium' -- the Belgians"
        assert execute_row_lookup(_fixture_table(), sql).indices == (0, 2)
        sql = "SELECT COUNT(*) FROM t WHERE country = 'Belgium' -- how many"
        assert execute_row_lookup(_fixture_table(), sql).indices == (0, 2)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE wins = 1 \x00; SELECT 2",
            "SELECT * FROM t WHERE country = '\ud800'",
            "SELECT * FROM t WHERE country = 'a\x00'",
        ],
        ids=["nul-before-semicolon", "lone-surrogate", "nul-in-literal"],
    )
    def test_sql_sqlite_cannot_read_is_sql_error(self, sql):
        with pytest.raises(SqlError):
            execute_row_lookup(_fixture_table(), sql)

    def test_a_cell_with_a_lone_surrogate_is_a_load_error(self):
        table = normalize(Table.make(["name", "wins"], [["a", "1"], ["x\ud800", "2"]]))
        with pytest.raises(SqlError, match="cannot load the table"):
            execute_row_lookup(table, "SELECT * FROM t WHERE wins > 1")

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT * FROM t WHERE units > (SELECT AVG(units) FROM t) ORDER BY units DESC LIMIT 1", (1,)),
            ("SELECT * FROM t WHERE chain IN (SELECT chain FROM t GROUP BY chain HAVING COUNT(*) > 1)", (0, 1, 2, 3)),
            ("SELECT COUNT(*) FROM t WHERE chain = 'limit'", (4,)),
            ("SELECT * FROM t WHERE chain != 'count(x)' ORDER BY units DESC LIMIT 2", (1, 2)),
        ],
        ids=["aggregate-subquery", "grouped-subquery", "keyword-literal", "aggregate-literal"],
    )
    def test_only_the_top_level_makes_an_aggregate_or_ends_the_where_clause(self, sql, expected):
        rows = [["a", "5"], ["a", "9"], ["b", "7"], ["b", "1"], ["limit", "3"]]
        assert execute_row_lookup(normalize(Table.make(["chain", "units"], rows)), sql).indices == expected

    def test_non_finite_row_id_is_semantic_error(self):
        with pytest.raises(SqlSemanticError):
            execute_row_lookup(_fixture_table(), "SELECT 1e999 AS _row_id FROM t")

    def test_rowset_validation(self):
        with pytest.raises(ValueError):
            RowSet(indices=(2, 1))
        with pytest.raises(ValueError):
            RowSet(indices=(1, 1))


# Lookups over the oracle's tables (columns name, category, value, score and
# "when") that cover the SQL forms whose compiled programs read columns in
# different ways. {p} and {q} stand for random predicates, {a} and {b} for
# column names, {k} for a small number.
_DIFFERENTIAL_SQL = (
    "SELECT * FROM t WHERE {p}",
    "SELECT DISTINCT * FROM t WHERE {p}",
    "SELECT * FROM (SELECT * FROM t WHERE {p}) WHERE {q}",
    "SELECT * FROM t WHERE {a} IN (SELECT {a} FROM t WHERE {p})",
    "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM t AS u WHERE u.{b} = t.{b} AND u._row_id != t._row_id)",
    "WITH s AS (SELECT * FROM t WHERE {p}) SELECT * FROM s WHERE {q}",
    "WITH RECURSIVE r(n) AS (SELECT {k} UNION ALL SELECT n + 2 FROM r WHERE n < 9) "
    "SELECT t.* FROM t JOIN r ON t._row_id = r.n WHERE {p}",
    "SELECT a.* FROM t AS a, t AS b WHERE a.{a} = b.{a} AND b._row_id = {k}",
    "SELECT * FROM t WHERE {a} IN (SELECT {a} FROM t GROUP BY {a} HAVING count(*) > 1)",
    "SELECT {a}, count(*) FROM t WHERE {p} GROUP BY {a} HAVING count(*) > 0",
    "SELECT * FROM t WHERE {p} ORDER BY {a} DESC, {b} LIMIT {k} OFFSET 1",
    "SELECT * FROM t ORDER BY {a} LIMIT {k}",
    "SELECT _row_id FROM (SELECT _row_id, row_number() OVER (PARTITION BY {a} ORDER BY {b}) AS n FROM t) WHERE n = 1",
    "SELECT * FROM (SELECT *, lag({b}) OVER (ORDER BY {a}) AS prev FROM t WHERE {p}) WHERE prev IS NOT NULL",
    "SELECT _row_id FROM t WHERE {p} UNION SELECT _row_id FROM t WHERE {q}",
    "SELECT * FROM t WHERE {p} EXCEPT SELECT * FROM t WHERE {q}",
    "SELECT typeof({a}) AS ty, length({b}) AS _row_id FROM t WHERE {p}",
    "SELECT * FROM t WHERE typeof({a}) = 'integer' OR length({b}) > 5",
    "SELECT {a} FROM t WHERE {p}",
    "SELECT {a} AS _row_id FROM t WHERE {p}",
    "SELECT count(*) FROM t WHERE {p}",
    "SELECT * FROM (SELECT {a} AS {b} FROM t) WHERE {b} IS NOT NULL",
    "SELECT * FROM t WHERE {a} IN (SELECT value FROM json_each('[1, 2.5, \"alder\", \"alpha\"]')) AND {p}",
    "SELECT * FROM t WHERE _row_id < (SELECT count(*) FROM dbstat) AND {p}",
    "SELECT * FROM t WHERE _row_id < (SELECT count(*) FROM sqlite_stmt) AND {p}",
    "SELECT bogus FROM t WHERE {p}",
    "SELECT * FROM t WHERE bogus = {k}",
)
_WIDE = "123456789012345678901234"


class TestPrunedLoad:
    """A lookup loads only ``_row_id`` and the columns its compiled statements
    read; the other columns hold NULL."""

    def _loaded(self, monkeypatch, table, sql):
        """The count of non-NULL values in each column of ``t`` as the lookup
        loaded it, ``_row_id`` last, and the lookup's row ids."""
        counts, load = [], sqlrows._load

        def spy(*args):
            conn = load(*args)
            names = [name for _, name, _ in args[1].columns] + ["_row_id"]
            counts.append(conn.execute(f"SELECT {', '.join(f'count({n})' for n in names)} FROM t").fetchone())
            assert [i for i, in conn.execute("SELECT _row_id FROM t")] == list(range(table.table.row_count))
            return conn

        monkeypatch.setattr(sqlrows, "_load", spy)
        rows = execute_row_lookup(table, sql)
        return counts[0], rows

    def _stores(self):
        rows = [["Maple 1", "5", "2.5", "2020-01-05"], ["Cedar 2", "7", "1.5", "2021-03-01"], ["Maple 3", "1", "4", "2022-07-04"]]
        return normalize(Table.make(["Store", "Units", "Revenue", "Opened"], rows))

    def test_select_star_loads_the_filtered_column_and_the_row_ids(self, monkeypatch):
        counts, rows = self._loaded(monkeypatch, self._stores(), "SELECT * FROM t WHERE store = 'Cedar 2'")
        assert counts == (3, 0, 0, 0, 3) and rows.indices == (1,)

    def test_select_distinct_star_loads_every_column(self, monkeypatch):
        counts, rows = self._loaded(monkeypatch, self._stores(), "SELECT DISTINCT * FROM t WHERE store = 'Cedar 2'")
        assert counts == (3, 3, 3, 3, 3) and rows.indices == (1,)

    def test_sql_explain_rejects_loads_every_column(self, monkeypatch):
        # The wrapped query does not compile, so every column is loaded; the
        # re-run of the WHERE clause then finds the rows.
        counts, rows = self._loaded(monkeypatch, self._stores(), "SELECT bogus FROM t WHERE units > 4")
        assert counts == (3, 3, 3, 3, 3) and rows.indices == (0, 1)

    def test_a_select_list_the_wrapped_query_never_reads_is_not_loaded(self, monkeypatch):
        # Flattened, the wrapper reads the dropped "_row_id" as a string literal
        # and no column of the SELECT list; the WHERE clause's re-run, which
        # reads units and _row_id, yields the rows.
        counts, rows = self._loaded(monkeypatch, self._stores(), "SELECT store FROM t WHERE units > 4")
        assert counts == (0, 3, 0, 0, 3) and rows.indices == (0, 1)

    @pytest.mark.parametrize("source", ["json_each('[\"Cedar 2\"]')", "dbstat", "sqlite_stmt"])
    def test_explain_builds_no_virtual_table_the_lookup_may_not(self, source):
        # Built by an EXPLAIN, the table would stay on the connection for the lookup to read.
        with pytest.raises(SqlSyntaxError, match="vtable constructor failed"):
            execute_row_lookup(self._stores(), f"SELECT * FROM t WHERE store IN (SELECT * FROM {source})")

    def test_the_where_clause_re_run_reads_its_own_columns(self, monkeypatch):
        # The query's "units" is the subquery's store; the re-run's is t.units.
        sql = "SELECT * FROM (SELECT store AS units FROM t) WHERE units IS NOT NULL"
        counts, rows = self._loaded(monkeypatch, self._stores(), sql)
        assert counts == (3, 3, 0, 0, 3) and rows.indices == (0, 1, 2)

    @settings(max_examples=600, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(_DIFFERENTIAL_SQL),
        st.sampled_from([None, "x\ud800", _WIDE]),
        st.integers(0, 4),
    )
    def test_a_pruned_load_looks_up_as_a_load_of_every_column(self, seed, template, cell, column):
        rng = random.Random(seed)
        base = random_table(rng)
        rows = [list(row) for row in base.table.rows]
        if cell is not None:  # kinds stay as inferred, so a typed column binds the odd cell as NULL or its text
            rows[rng.randrange(len(rows))][2 if cell == _WIDE else column] = cell
        table = NormalizedTable(
            table=Table.make(base.table.headers, rows), column_kinds=base.column_kinds, transposed=False,
            renames=base.renames,
        )
        names = ["name", "category", "value", "score", '"when"']
        sql = template.format(
            p=random_predicate(rng).sql(), q=random_predicate(rng).sql(), a=rng.choice(names), b=rng.choice(names),
            k=rng.randrange(4),
        )
        pruned = _outcome(lambda query: execute_row_lookup(table, query), sql)
        with mock.patch.object(sqlrows, "_read_columns", return_value=None):
            full = _outcome(lambda query: execute_row_lookup(table, query), sql)
        assert pruned == full, sql


class TestOracleSample:
    """Small spot-check; the 500+ pair battery lives in the acceptance suite."""

    def test_fifty_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(50):
            table = random_table(rng)
            predicate = random_predicate(rng)
            sql = f"SELECT * FROM t WHERE {predicate.sql()}"
            got = execute_row_lookup(table, sql)
            assert got.indices == oracle_rows(table, predicate), sql
