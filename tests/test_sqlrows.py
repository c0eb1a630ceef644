"""Restricted SQL execution engine for row lookup."""

from __future__ import annotations

import random

import pytest

from tablefocus.core import Table
from tablefocus.normalize import skip_normalization
from tablefocus import sqlrows
from tablefocus.sqlrows import (
    AggregateOnly,
    RowSet,
    SqlPolicyError,
    SqlSemanticError,
    SqlSyntaxError,
    SqlTimeout,
    _load,
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
        assert schema.table_name == "t"
        assert schema.row_id_column == "_row_id"
        assert [c[1] for c in schema.columns] == ["rider", "country", "wins"]
        assert schema.columns[2][2] == "integer"

    def test_describe_mentions_originals(self):
        text = build_schema(_fixture_table()).describe()
        assert '"Country"' in text
        assert "wins INTEGER" in text
        assert "_row_id" in text


class TestPolicy:
    def test_plain_select_passes(self):
        assert check_policy("SELECT * FROM t;") == "SELECT * FROM t"

    def test_with_clause_passes(self):
        check_policy("WITH x AS (SELECT 1) SELECT * FROM x")

    def test_statement_list_rejected(self):
        with pytest.raises(SqlPolicyError):
            check_policy("SELECT 1; SELECT 2")

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

    def test_rowset_validation(self):
        with pytest.raises(ValueError):
            RowSet(indices=(2, 1))
        with pytest.raises(ValueError):
            RowSet(indices=(1, 1))


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
