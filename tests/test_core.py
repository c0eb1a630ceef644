"""Table data model and structural operators."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablefocus.core import (
    CellSelection,
    ParseError,
    SizeMetrics,
    Table,
    TransposeError,
    heuristic_token_count,
    measure,
    parse_table,
    peek,
    project,
    render_markdown,
    transpose,
)

# Cells safe for a markdown round-trip: no backslashes or newlines, and
# already stripped (the parser strips surrounding whitespace).
_CELL_ALPHABET = "abcdefghij XYZ0123456789.,:;!?()%$#'-_=+/<>[]{}|"
_safe_cell = (
    st.text(alphabet=_CELL_ALPHABET, min_size=0, max_size=12).map(str.strip)
)
_nonempty_cell = _safe_cell.filter(bool)
# Cells that escaping lengthens or rewrites: pipes, newlines, backslashes,
# empty and non-ASCII text.
_wild_cell = st.text(alphabet=st.sampled_from(list("a |\n\\-") + ["é", "表", "\u00a0"]), max_size=6)


@st.composite
def tables(draw, min_rows=0, max_rows=6, min_cols=1, max_cols=5):
    n = draw(st.integers(min_cols, max_cols))
    m = draw(st.integers(min_rows, max_rows))
    headers = [draw(_nonempty_cell) for _ in range(n)]
    rows = [[draw(_safe_cell) for _ in range(n)] for _ in range(m)]
    return Table.make(headers, rows)


class TestTableModel:
    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError):
            Table.make(["a", "b"], [["1"]])

    def test_ragged_table_names_its_first_bad_row(self):
        with pytest.raises(ValueError, match=r"^row 1 has 1 cells, expected 2$"):
            Table.make(["a", "b"], [["1", "2"], ["3"], ["4", "5", "6"]])
        with pytest.raises(ValueError, match=r"^row 2 has 3 cells, expected 2$"):
            Table(("a", "b"), (("1", "2"), ("3", "4"), ("5", "6", "7"), ("8",)))

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            Table(headers=(), rows=())

    def test_make_coerces_to_strings(self):
        t = Table.make(["a"], [[1], [2.5]])
        assert t.rows == (("1",), ("2.5",))

    def test_counts_and_column(self):
        t = Table.make(["a", "b"], [["1", "2"], ["3", "4"]])
        assert (t.row_count, t.column_count) == (2, 2)
        assert t.column(1) == ["2", "4"]

    def test_immutability(self):
        t = Table.make(["a"], [["1"]])
        with pytest.raises(AttributeError):
            t.headers = ("b",)


class TestParse:
    def test_markdown_with_separator(self):
        text = "| a | b |\n| --- | --- |\n| 1 | 2 |"
        t = parse_table(text, format="markdown")
        assert t.headers == ("a", "b")
        assert t.rows == (("1", "2"),)

    def test_markdown_without_separator(self):
        t = parse_table("| a | b |\n| 1 | 2 |", format="markdown")
        assert t.rows == (("1", "2"),)

    def test_markdown_escaped_pipe(self):
        t = parse_table("| a |\n| --- |\n| x \\| y |", format="markdown")
        assert t.rows == (("x | y",),)

    def test_markdown_cell_ending_in_a_lone_backslash_keeps_it(self):
        t = parse_table("| a | b |\n| --- | --- |\n| 1 | 2\\", format="markdown")
        assert t.rows == (("1", "2\\"),)

    def test_csv(self):
        t = parse_table("a,b\n1,2\n3,4", format="csv")
        assert t.headers == ("a", "b")
        assert t.row_count == 2

    def test_tsv(self):
        t = parse_table("a\tb\n1\t2", format="tsv")
        assert t.rows == (("1", "2"),)

    @pytest.mark.parametrize("fmt,text", [("csv", "a,b\r1,2"), ("tsv", "a\tb\r1\t2")])
    def test_delimited_text_the_csv_reader_refuses_is_a_parse_error(self, fmt, text):
        with pytest.raises(ParseError, match="new-line character"):
            parse_table(text, format=fmt)

    def test_jsonl_table(self):
        t = parse_table('{"header": ["a", "b"], "rows": [["1", "2"]]}', format="jsonl-table")
        assert t.headers == ("a", "b")

    def test_jsonl_table_bad_json(self):
        with pytest.raises(ParseError):
            parse_table("{not json", format="jsonl-table")

    def test_jsonl_table_missing_keys(self):
        with pytest.raises(ParseError):
            parse_table('{"header": ["a"]}', format="jsonl-table")

    @pytest.mark.parametrize(
        "text",
        ['{"header": "ab", "rows": [["1", "2"]]}', '{"header": ["a", "b"], "rows": 5}',
         '{"header": ["a", "b"], "rows": ["12"]}', '{"header": {"a": 1}, "rows": []}'],
    )
    def test_jsonl_table_wrong_shape(self, text):
        with pytest.raises(ParseError, match='"header" list and a "rows" list of lists'):
            parse_table(text, format="jsonl-table")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_table("   \n  ")

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            parse_table("a,b", format="xml")

    def test_markdown_requires_pipes(self):
        with pytest.raises(ParseError):
            parse_table("just words", format="markdown")

    def test_all_empty_headers_rejected(self):
        with pytest.raises(ParseError):
            parse_table(",,\n1,2,3", format="csv")

    def test_lenient_pads_short_rows(self):
        t = parse_table("a,b,c\n1,2", format="csv")
        assert t.rows == (("1", "2", ""),)

    def test_lenient_truncates_long_rows(self):
        t = parse_table("a,b\n1,2,3", format="csv")
        assert t.rows == (("1", "2"),)

    def test_strict_rejects_ragged(self):
        with pytest.raises(ParseError):
            parse_table("a,b\n1", format="csv", strict=True)


class TestRender:
    def test_canonical_form(self):
        t = Table.make(["a", "b"], [["1", "2"]])
        assert render_markdown(t) == "| a | b |\n| --- | --- |\n| 1 | 2 |"

    def test_pipe_escaping_and_newline_flattening(self):
        t = Table.make(["a"], [["x|y"], ["p\nq"]])
        out = render_markdown(t)
        assert "x\\|y" in out
        assert "p q" in out

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_round_trip(self, t):
        assert parse_table(render_markdown(t), format="markdown") == t


class TestTranspose:
    def test_corner_cell_preserved(self):
        t = Table.make(["Field", "Alice"], [["Age", "34"], ["City", "Paris"]])
        tt = transpose(t)
        assert tt.headers == ("Field", "Age", "City")
        assert tt.rows == (("Alice", "34", "Paris"),)

    def test_zero_rows_raises(self):
        with pytest.raises(TransposeError):
            transpose(Table.make(["a", "b"], []))

    @settings(max_examples=200, deadline=None)
    @given(tables(min_rows=1, min_cols=2))
    def test_involution(self, t):
        assert transpose(transpose(t)) == t

    def test_single_column_transpose_is_not_invertible(self):
        once = transpose(Table.make(["a"], [["1"]]))
        assert once.row_count == 0
        with pytest.raises(TransposeError):
            transpose(once)


class TestPeek:
    def test_truncates(self):
        t = Table.make(["a"], [["1"], ["2"], ["3"]])
        assert peek(t, 2).rows == (("1",), ("2",))

    def test_header_not_counted(self):
        t = Table.make(["a"], [["1"], ["2"]])
        assert peek(t, 2) == t

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            peek(Table.make(["a"], []), -1)

    @settings(max_examples=200, deadline=None)
    @given(tables(), st.integers(0, 10))
    def test_identity_and_idempotence(self, t, k):
        p = peek(t, k)
        assert p.row_count == min(k, t.row_count)
        assert peek(p, k) == p
        if k >= t.row_count:
            assert p == t


class TestProject:
    def test_selection_validation(self):
        with pytest.raises(ValueError):
            CellSelection(row_indices=(1, 0), column_indices=())
        with pytest.raises(ValueError):
            CellSelection(row_indices=(0, 0), column_indices=())
        with pytest.raises(ValueError):
            CellSelection(row_indices=(-1,), column_indices=())

    def test_projection_preserves_order(self):
        t = Table.make(["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]])
        sub = project(t, CellSelection(row_indices=(0, 2), column_indices=(0, 2)))
        assert sub.headers == ("a", "c")
        assert sub.rows == (("1", "3"), ("7", "9"))

    def test_out_of_bounds(self):
        t = Table.make(["a"], [["1"]])
        with pytest.raises(IndexError):
            project(t, CellSelection(row_indices=(1,), column_indices=(0,)))
        with pytest.raises(IndexError):
            project(t, CellSelection(row_indices=(0,), column_indices=(1,)))


class TestMeasure:
    def test_token_estimate_is_ceil_quarter_chars(self):
        t = Table.make(["a", "b"], [["1", "2"]])
        rendered = render_markdown(t)
        got = measure(t)
        assert got.token_estimate == math.ceil(len(rendered) / 4)
        assert got.area == got.row_count * got.column_count

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(_wild_cell, min_size=n, max_size=n),
                st.lists(st.lists(_wild_cell, min_size=n, max_size=n), max_size=6),
            )
        )
    )
    def test_token_estimate_matches_rendering(self, shape):
        t = Table.make(*shape)
        assert measure(t).token_estimate == heuristic_token_count(render_markdown(t))

    def test_heuristic_token_count(self):
        assert heuristic_token_count("") == 0
        assert heuristic_token_count("abcd") == 1
        assert heuristic_token_count("abcde") == 2

    def test_size_metrics_validation(self):
        with pytest.raises(ValueError):
            SizeMetrics(row_count=2, column_count=2, area=5, token_estimate=1)
        with pytest.raises(ValueError):
            SizeMetrics(row_count=-1, column_count=1, area=-1, token_estimate=0)

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_area_invariant(self, t):
        m = measure(t)
        assert m.area == t.row_count * t.column_count
