"""Orientation detection, column kind inference, and canonicalization."""

from __future__ import annotations

import calendar
import importlib
import random
import re
from datetime import datetime

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tablefocus.core import Table, transpose
from tablefocus.normalize import (
    ColumnKind,
    Orientation,
    detect_orientation,
    infer_column_kind,
    normalize,
    parse_date,
    parse_decimal,
    parse_integer,
    skip_normalization,
)

normalize_module = importlib.import_module("tablefocus.normalize")


# Reference for parse_date: strptime with every format in turn, no shape check.
_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%m/%d/%Y",
    "%m/%d/%y",
    "%m-%d-%Y",
    "%b %d, %Y",
    "%B %d, %Y",
    "%b %d %Y",
    "%B %d %Y",
    "%d %b %Y",
    "%d %B %Y",
)


def _reference_parse_date(cell: str) -> str | None:
    """ISO-8601 form of a date cell, or None."""
    s = cell.strip()
    if not s or not any(ch.isdigit() for ch in s):
        return None
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(s, fmt).date().isoformat()
        except ValueError:
            continue
    return None


# Reference for the integer and decimal forms: the separate parsers that the
# one-pass classifier replaced, copied verbatim.
_CURRENCY = "$€£¥"
_INT_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})*$|^[+-]?\d+$")
_DEC_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})*\.\d+$|^[+-]?\d+\.\d+$|^[+-]?\.\d+$")


def _reference_strip_numeric(cell: str) -> str:
    cell = cell.strip()
    while cell and cell[0] in _CURRENCY:
        cell = cell[1:].strip()
    return cell


def _reference_parse_integer(cell: str) -> str | None:
    """Canonical integer form of a cell, or None if it is not an integer."""
    s = _reference_strip_numeric(cell)
    if not s or not _INT_RE.match(s):
        return None
    return str(int(s.replace(",", "")))


def _reference_parse_decimal(cell: str) -> str | None:
    s = _reference_strip_numeric(cell)
    if not s:
        return None
    if _INT_RE.match(s):
        return str(int(s.replace(",", "")))
    if _DEC_RE.match(s):
        return s.replace(",", "")
    return None


_MONTH_NAMES = calendar.month_abbr[1:] + calendar.month_name[1:]


@st.composite
def _mixed_case(draw, word):
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.swapcase() if flip else ch for ch, flip in zip(word, flips))


_NUMBER = st.integers(0, 99_999).map(str)  # 1 to 5 digits


def _padded(lo: int, hi: int):
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from([str(n), f"{n:02d}"]))


_MONTH = st.sampled_from(_MONTH_NAMES).flatmap(_mixed_case)
_WORD = st.sampled_from(["Sept", "Marc", "Mayday", "Cedar", "n/a", "x"])
_DATE_SEPARATOR = st.sampled_from(["-", "/", ", ", " ", "  ", "\t", "\u00a0"])
_DIRECTIVE_PIECES = {
    "%Y": st.integers(1, 9999).map("{:04d}".format) | _NUMBER,
    "%y": st.integers(0, 99).map("{:02d}".format) | _NUMBER,
    "%m": _padded(0, 13),
    "%d": _padded(0, 32),
    "%b": _MONTH | _WORD,
    "%B": _MONTH | _WORD,
}


@st.composite
def _date_like(draw):
    """Numbers, month names and other words joined by separators. Half follow
    a format of _DATE_FORMATS, swapping each of its separators one time in
    four; half take up to four pieces in any order. Some are padded or trailed."""
    if draw(st.booleans()):
        template = re.split(r"(%[a-zA-Z])", draw(st.sampled_from(_DATE_FORMATS)))
        pieces = [
            draw(_DIRECTIVE_PIECES[t]) if t.startswith("%") else t if draw(st.integers(0, 3)) else draw(_DATE_SEPARATOR)
            for t in template
        ]
    else:
        pieces = []
        for i, kind in enumerate(draw(st.lists(st.sampled_from([_NUMBER, _MONTH, _WORD]), min_size=1, max_size=4))):
            pieces += [draw(_DATE_SEPARATOR), draw(kind)] if i else [draw(kind)]
    return draw(st.sampled_from(["", " ", "\u00a0"])) + "".join(pieces) + draw(st.sampled_from(["", " ", ","]))


_PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"])
_UNICODE_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def _number_like(draw):
    """Numbers with commas, decimals, leading dots, signs, currency prefixes,
    padding and Unicode digits; half are random strings over those characters."""
    if draw(st.booleans()):
        alphabet = st.sampled_from(list("0123456789,.+-$€£¥ ") + ["\u00a0", "٣", "७", "x"])
        return "".join(draw(st.lists(alphabet, max_size=12)))
    value = draw(st.integers(0, 10**9))
    body = draw(st.sampled_from([f"{value:,}", str(value), f".{value}", f"{value:,}.{value % 1000}"]))
    body = draw(st.sampled_from(["", "+", "-"])) + body
    body = draw(st.sampled_from(["", "$", "€ ", "£\u00a0", "$$", "¥-"])) + body
    if draw(st.integers(0, 9)) == 0:
        body = body.translate(_UNICODE_DIGITS)
    return draw(_PADDING) + body + draw(_PADDING)


class TestPrimitiveParsers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("42", "42"),
            ("+7", "7"),
            ("-3", "-3"),
            ("1,234", "1234"),
            ("12,345,678", "12345678"),
            ("$5", "5"),
            ("€ 1,000", "1000"),
            ("007", "7"),
        ],
    )
    def test_integer_accepts(self, raw, expected):
        assert parse_integer(raw) == expected

    @pytest.mark.parametrize("raw", ["", "abc", "12,34", "1.5", "1 2", "4-5", "12%"])
    def test_integer_rejects(self, raw):
        assert parse_integer(raw) is None

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("3.50", "3.50"),
            ("-0.5", "-0.5"),
            (".25", ".25"),
            ("1,234.5", "1234.5"),
            ("$9.99", "9.99"),
            ("7", "7"),  # integers are decimals too
        ],
    )
    def test_decimal_accepts(self, raw, expected):
        assert parse_decimal(raw) == expected

    @pytest.mark.parametrize("raw", ["", "abc", "1.2.3", "3,5"])
    def test_decimal_rejects(self, raw):
        assert parse_decimal(raw) is None

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1999-03-05", "1999-03-05"),
            ("1999/03/05", "1999-03-05"),
            ("3/4/2000", "2000-03-04"),  # month-first for ambiguous numeric dates
            ("03-04-2000", "2000-03-04"),
            ("March 5, 1999", "1999-03-05"),
            ("Mar 5 1999", "1999-03-05"),
            ("5 March 1999", "1999-03-05"),
        ],
    )
    def test_date_accepts(self, raw, expected):
        assert parse_date(raw) == expected

    @pytest.mark.parametrize("raw", ["", "yesterday", "13/13/2000", "March", "2000"])
    def test_date_rejects(self, raw):
        assert parse_date(raw) is None

    @settings(max_examples=1000, deadline=None)
    @given(_date_like())
    def test_date_matches_reference(self, raw):
        assert parse_date(raw) == _reference_parse_date(raw)

    @settings(max_examples=1000, deadline=None)
    @given(_number_like())
    def test_number_forms_match_reference(self, raw):
        integer, decimal, parsed_date = normalize_module._Parses()[raw]
        assert (integer, decimal) == (_reference_parse_integer(raw), _reference_parse_decimal(raw))
        assert parsed_date == _reference_parse_date(raw)

    @pytest.mark.parametrize(
        "raw", ["42", "-3", "3.50", ".25", "1999-03-05"]
    )
    def test_canonical_forms_are_fixed_points(self, raw):
        for parser in (parse_integer, parse_decimal, parse_date):
            out = parser(raw)
            if out is not None:
                assert parser(out) == out


class TestInferColumnKind:
    def test_pure_integer(self):
        assert infer_column_kind(["1", "2", "3"]) == ColumnKind("integer", 1.0)

    def test_threshold_exactly_met(self):
        got = infer_column_kind(["1", "2", "3", "4", "x"])
        assert got == ColumnKind("integer", 0.8)

    def test_mixed_band(self):
        got = infer_column_kind(["1", "2", "3", "x", "y"])
        assert got == ColumnKind("mixed", 0.6)

    def test_text_band(self):
        got = infer_column_kind(["1", "x", "y", "z", "w"])
        assert got == ColumnKind("text", 0.2)

    def test_decimal_wins_over_integer_on_higher_ratio(self):
        got = infer_column_kind(["1.5", "2.5", "3", "4"])
        assert got.kind == "decimal"
        assert got.parse_ratio == 1.0

    def test_integer_breaks_ties_with_decimal(self):
        # Every integer also parses as a decimal; the tie goes to the more
        # specific primitive.
        assert infer_column_kind(["1", "2"]).kind == "integer"

    def test_date_column(self):
        assert infer_column_kind(["1999-03-05", "2000-01-01"]).kind == "date"

    def test_empty_column_raises(self):
        with pytest.raises(ValueError):
            infer_column_kind([])

    def test_parse_ratio_bounds(self):
        with pytest.raises(ValueError):
            ColumnKind("integer", 1.5)


ROW_MAJOR = Table.make(
    ["Name", "Age", "City"],
    [["Alice", "34", "Paris"], ["Bob", "28", "Rome"], ["Cara", "45", "Oslo"]],
)
# Attribute-per-row layout: each data column mixes types.
COLUMN_MAJOR = Table.make(
    ["Field", "Alice", "Bob"],
    [["Age", "34", "28"], ["City", "Paris", "Rome"]],
)


class TestDetectOrientation:
    def test_row_major_table(self):
        got = detect_orientation(ROW_MAJOR)
        assert got.value == "row_major"
        assert got.confidence > 0.5

    def test_column_major_table(self):
        got = detect_orientation(COLUMN_MAJOR)
        assert got.value == "column_major"
        assert got.confidence > 0.75

    def test_tie_defaults_to_row_major_with_half_confidence(self):
        t = Table.make(["a", "b"], [["x", "y"]])
        got = detect_orientation(t)
        assert got == Orientation("row_major", 0.5)

    def test_degenerate_tables_default_row_major(self):
        assert detect_orientation(Table.make(["a"], [["1"]])).value == "row_major"
        assert detect_orientation(Table.make(["a", "b"], [])).value == "row_major"

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Orientation("row_major", 1.2)

    def test_verdict_flips_under_transpose_when_confident(self):
        for t in (ROW_MAJOR, COLUMN_MAJOR):
            d, dt = detect_orientation(t), detect_orientation(transpose(t))
            assert d.confidence >= 0.75 and dt.confidence >= 0.75
            assert d.value != dt.value


_CELL_POOL = st.sampled_from(
    ["12", "-4", "3.5", "1,234", "$9", "1999-03-05", "March 5, 1999",
     "abc", "x y", "", "n/a", "7%", "Alice", "0.25"]
)


@st.composite
def wild_tables(draw, min_rows=0):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(min_rows, 5))
    headers = [f"h{j}" for j in range(n)]
    rows = [[draw(_CELL_POOL) for _ in range(n)] for _ in range(m)]
    return Table.make(headers, rows)


class TestNormalize:
    def test_canonicalizes_typed_columns(self):
        t = Table.make(["Name", "Total"], [["A", "1,234"], ["B", "$56"]])
        out = normalize(t)
        assert out.table.column(1) == ["1234", "56"]
        assert out.column_kinds[1].kind == "integer"
        assert any("->" in note for note in out.provenance[1])

    def test_unparseable_cell_kept_verbatim_and_flagged(self):
        t = Table.make(["v"], [["1"], ["2"], ["3"], ["4"], ["oops"]])
        out = normalize(t)
        assert out.column_kinds[0].kind == "integer"
        assert out.table.column(0) == ["1", "2", "3", "4", "oops"]
        assert any("verbatim" in note for note in out.provenance[0])

    def test_text_column_untouched_with_empty_provenance(self):
        t = Table.make(["Name"], [["Alice"], ["Bob"]])
        out = normalize(t)
        assert out.table == t
        assert out.provenance == ((),)

    def test_column_major_input_is_transposed(self):
        out = normalize(COLUMN_MAJOR)
        assert out.transposed
        assert out.table.headers == ("Field", "Age", "City")
        assert out.table.row_count == 2

    def test_tie_below_full_homogeneity_stays_row_major(self):
        # Rows and transpose both score 2/3: the tie must not transpose.
        t = Table.make(["a", "b", "c"], [["1", "1", "1"], ["1", "1", "x"]])
        assert detect_orientation(t) == Orientation("row_major", 0.5)
        assert not normalize(t).transposed

    def test_zero_row_table(self):
        t = Table.make(["a", "b"], [])
        out = normalize(t)
        assert out.table == t
        assert all(k.kind == "text" for k in out.column_kinds)

    def test_kind_count_invariant(self):
        with pytest.raises(ValueError):
            from tablefocus.normalize import NormalizedTable

            NormalizedTable(
                table=Table.make(["a", "b"], []),
                column_kinds=(ColumnKind("text", 0.0),),
                transposed=False,
                provenance=((), ()),
            )

    def test_each_distinct_cell_is_classified_once_and_month_words_reach_strptime_once(self, monkeypatch):
        rng = random.Random(4)
        months = calendar.month_abbr[1:]
        rows = [
            [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor'])} {rng.randint(100, 99_999)}",
                f"{rng.randint(1, 99_999):,}",
                f"${rng.randint(1, 99_999):,}.{rng.randint(0, 99):02d}",
                f"{rng.choice(months)} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
                # Outside the ASCII fast path: strptime reads the no-break space.
                f"{rng.choice(months)}\u00a0{rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
            ]
            for _ in range(200)
        ]
        table = Table.make(["Store", "Units", "Revenue", "Opened", "Closed"], rows)
        classified: list[str] = []
        parsed: list[str] = []
        missing = normalize_module._Parses.__missing__

        def counting_missing(parses, cell):
            classified.append(cell)
            return missing(parses, cell)

        class CountingDatetime(datetime):
            @classmethod
            def strptime(cls, date_string, fmt):
                parsed.append(date_string)
                return super().strptime(date_string, fmt)

        monkeypatch.setattr(normalize_module._Parses, "__missing__", counting_missing)
        monkeypatch.setattr(normalize_module, "datetime", CountingDatetime)
        out = normalize(table)
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date", "date"]
        # Every column is homogeneous, so the transpose, and its header cells, is never classified.
        assert sorted(classified) == sorted({cell for row in rows for cell in row})
        month_words = {row[3].split()[0] for row in rows}
        assert sorted(parsed) == sorted(month_words | {row[4] for row in rows})

    def test_each_column_is_tallied_once(self, monkeypatch):
        rng = random.Random(9)
        rows = [
            [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor'])} {rng.randint(100, 99_999)}",
                f"{rng.randint(1, 99_999):,}",
                f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}",
                f"{rng.randint(1950, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            ]
            for _ in range(200)
        ]
        lookups = 0

        class CountingParses(normalize_module._Parses):
            def __getitem__(self, cell):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(cell)

        monkeypatch.setattr(normalize_module, "_Parses", CountingParses)
        out = normalize(Table.make(["Store", "Units", "Price", "Opened"], rows))
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date"]
        assert not out.transposed
        # One lookup per data cell for the tally, one per typed cell to canonicalize it.
        assert lookups == 4 * 200 + 3 * 200

    @settings(max_examples=300, deadline=None)
    @given(wild_tables())
    def test_orientation_and_kinds_agree_with_public_functions(self, t):
        out = normalize(t)
        assert out.transposed == (detect_orientation(t).value == "column_major")
        if t.row_count:
            source = transpose(t) if out.transposed else t
            assert out.column_kinds == tuple(infer_column_kind(source.column(j)) for j in range(source.column_count))

    @settings(max_examples=300, deadline=None)
    @given(wild_tables())
    def test_idempotence(self, t):
        once = normalize(t)
        twice = normalize(once.table)
        assert twice.table == once.table
        assert not twice.transposed
        assert twice.column_kinds == once.column_kinds

    @settings(max_examples=200, deadline=None)
    @given(wild_tables())
    def test_shape_preserved_up_to_transpose(self, t):
        out = normalize(t)
        if out.transposed:
            assert out.table.column_count == t.row_count + 1
        else:
            assert (out.table.row_count, out.table.column_count) == (t.row_count, t.column_count)


class TestSkipNormalization:
    def test_wraps_verbatim(self):
        t = Table.make(["Name", "Total"], [["A", "1,234"]])
        out = skip_normalization(t)
        assert out.table is t
        assert not out.transposed
        assert out.column_kinds[1].kind == "integer"

    def test_zero_rows(self):
        out = skip_normalization(Table.make(["a"], []))
        assert out.column_kinds == (ColumnKind("text", 0.0),)


class TestRepeatedHeaders:
    def test_repeats_renamed_with_provenance(self):
        out = normalize(Table.make(["Year", "Year", "Team", "year"], [["1990", "1991", "A", "1992"]]))
        assert out.table.headers == ("Year", "Year (2)", "Team", "year (3)")
        assert out.table.column(1) == ["1991"]
        assert out.provenance[0] == ()
        assert out.provenance[1] == ("header 'Year' repeated; renamed to 'Year (2)'",)

    def test_new_name_never_takes_one_in_use(self):
        out = skip_normalization(Table.make(["a", "A", "a (2)"], [["1", "2", "3"]]))
        assert out.table.headers == ("a", "A (3)", "a (2)")
        assert out.provenance == ((), ("header 'A' repeated; renamed to 'A (3)'",), ())

    def test_repeats_from_transpose_renamed(self):
        t = Table.make(["Field", "Alice", "Bob"], [["Age", "34", "28"], ["Age", "35", "29"], ["City", "Paris", "Rome"]])
        out = normalize(t)
        assert out.transposed
        assert out.table.headers == ("Field", "Age", "Age (2)", "City")
        assert out.table.column(2) == ["35", "29"]
