"""Structure understanding stages driven by scripted model replies."""

from __future__ import annotations

import pytest

from tablefocus.core import Table, render_markdown
from tablefocus.normalize import skip_normalization
from tablefocus.sqlrows import RowSet, build_schema
from tablefocus.structure import (
    column_lookup,
    construct_focus,
    extract_structure,
    peek_markdown,
    rank_columns,
    row_lookup,
)
from tablefocus.trace import ReasoningTrace

from conftest import RIDERS_TABLE, make_gateway

NORM = skip_normalization(RIDERS_TABLE)
PEEK = peek_markdown(NORM, 25)
SCHEMA = build_schema(NORM)


class TestExtractStructure:
    def test_key_column_parsed(self):
        lm = make_gateway({"structure_extraction": ["key column: Wins"]})
        assert extract_structure(NORM, PEEK, lm, ReasoningTrace()) == "Wins"

    def test_case_insensitive_match(self):
        lm = make_gateway({"structure_extraction": ["Key Column - wins"]})
        assert extract_structure(NORM, PEEK, lm, ReasoningTrace()) == "Wins"

    def test_substring_repair(self):
        lm = make_gateway({"structure_extraction": ["key column: the Country field"]})
        assert extract_structure(NORM, PEEK, lm, ReasoningTrace()) == "Country"

    def test_invalid_reply_repaired_to_first_header(self):
        lm = make_gateway({"structure_extraction": ["key column: Nonsense"]})
        trace = ReasoningTrace()
        assert extract_structure(NORM, PEEK, lm, trace=trace) == "Rider"
        assert any("repaired" in w for w in trace.warnings)

    def test_peek_size_validation(self):
        with pytest.raises(ValueError):
            peek_markdown(NORM, 0)

    def test_peek_markdown_shows_first_k_rows(self):
        lines = peek_markdown(NORM, 2).splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "Paolo Conti" in lines[-1]


class TestRankColumns:
    def test_valid_permutation(self):
        lm = make_gateway({"column_ranking": ["Wins, Country, Rider"]})
        got = rank_columns(NORM, "q", PEEK, lm, ReasoningTrace())
        assert got == ("Wins", "Country", "Rider")

    def test_repairs_missing_and_unknown(self):
        lm = make_gateway({"column_ranking": ["Wins, Bogus, Wins"]})
        trace = ReasoningTrace()
        got = rank_columns(NORM, "q", PEEK, lm, trace=trace)
        assert got == ("Wins", "Rider", "Country")
        assert any("dropped" in w for w in trace.warnings)

    def test_unparseable_falls_back_to_original_order(self):
        lm = make_gateway({"column_ranking": ["  \n "]})
        trace = ReasoningTrace()
        got = rank_columns(NORM, "q", PEEK, lm, trace=trace)
        assert got == ("Rider", "Country", "Wins")
        assert trace.warnings


class TestColumnLookup:
    RANKED = ("Wins", "Country", "Rider")

    def test_selection_with_key_appended(self):
        lm = make_gateway({"column_lookup": ["Country, Wins"]})
        got = column_lookup(self.RANKED, "q", 6, lm, PEEK, ReasoningTrace(), "Rider")
        assert got == ("Country", "Wins", "Rider")

    def test_key_not_duplicated(self):
        lm = make_gateway({"column_lookup": ["Rider, Wins"]})
        got = column_lookup(self.RANKED, "q", 6, lm, PEEK, ReasoningTrace(), "Rider")
        assert got == ("Rider", "Wins")

    def test_b_max_cap(self):
        lm = make_gateway({"column_lookup": ["Wins, Country, Rider"]})
        got = column_lookup(self.RANKED, "q", 2, lm, PEEK, ReasoningTrace(), "Wins")
        assert got == ("Wins", "Country")

    def test_unparseable_falls_back_to_top_ranked(self):
        lm = make_gateway({"column_lookup": ["none of these"]})
        trace = ReasoningTrace()
        got = column_lookup(self.RANKED, "q", 6, lm, PEEK, trace, "Wins")
        assert got == ("Wins",)
        assert trace.warnings

    def test_b_max_validation(self):
        lm = make_gateway({"column_lookup": ["Wins"]})
        with pytest.raises(ValueError):
            column_lookup(self.RANKED, "q", 0, lm, PEEK, ReasoningTrace(), "Wins")


class TestRowLookup:
    def test_valid_sql_filters_rows(self):
        lm = make_gateway({"row_lookup_sql": ["```sql\nSELECT * FROM t WHERE country = 'Belgium'\n```"]})
        got = row_lookup(NORM, "q", lm, PEEK, SCHEMA, ReasoningTrace())
        assert got.indices == (0, 2, 4)

    def test_invalid_sql_degrades_to_all_rows(self):
        lm = make_gateway({"row_lookup_sql": ["SELEC * FORM t"]})
        trace = ReasoningTrace()
        got = row_lookup(NORM, "q", lm, PEEK, SCHEMA, trace=trace)
        assert got.indices == tuple(range(6))
        assert any("failed" in w and "selected all rows" in w for w in trace.warnings)

    def test_aggregate_only_selects_all_rows(self):
        lm = make_gateway({"row_lookup_sql": ["SELECT COUNT(*) FROM t"]})
        trace = ReasoningTrace()
        got = row_lookup(NORM, "q", lm, PEEK, SCHEMA, trace=trace)
        assert got.indices == tuple(range(6))
        assert trace.warnings == ["row lookup SQL is aggregate-only; selected all rows"]

    def test_executes_against_full_table_despite_peek(self):
        # The prompt renders a 2-row peek, but matching happens over all rows.
        lm = make_gateway({"row_lookup_sql": ["SELECT * FROM t WHERE country = 'France'"]})
        got = row_lookup(NORM, "q", lm, peek_markdown(NORM, 2), SCHEMA, ReasoningTrace())
        assert got.indices == (5,)


class TestConstructFocus:
    ROWS = RowSet(indices=(0, 2, 4))

    def test_projection_in_original_column_order(self):
        focus = construct_focus(NORM, self.ROWS, ["Wins", "Rider"])
        assert focus.table.headers == ("Rider", "Wins")
        assert focus.table.rows == (("Jacky Martin", "3"), ("Bram Peeters", "2"), ("Luc Van Damme", "2"))

    def test_unknown_column_raises_index_error(self):
        with pytest.raises(IndexError):
            construct_focus(NORM, self.ROWS, ["Rider", "Bogus"])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            construct_focus(NORM, self.ROWS, [])

    def test_condensation_ratio(self):
        focus = construct_focus(NORM, self.ROWS, ["Rider", "Wins"])
        assert focus.condensation_ratio == pytest.approx((3 * 2) / (6 * 3))

    def test_markdown_renders_the_focus(self):
        focus = construct_focus(NORM, self.ROWS, ["Rider", "Wins"])
        assert focus.markdown == render_markdown(focus.table)

    def test_repeated_headers_stay_distinct(self):
        norm = skip_normalization(Table.make(["Year", "Year", "Team"], [["1990", "1991", "Ajax"]]))
        focus = construct_focus(norm, RowSet(indices=(0,)), ["Year", "Team"])
        assert focus.table.rows == (("1990", "Ajax"),)

    def test_reconstruction_count_carried(self):
        focus = construct_focus(NORM, self.ROWS, ["Rider"], reconstruction_count=2)
        assert focus.reconstruction_count == 2
