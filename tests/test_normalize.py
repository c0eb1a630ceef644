"""Orientation detection, column kind inference, and canonicalization."""

from __future__ import annotations

import calendar
import importlib
import locale
import random
import re
import sys
import tracemalloc
from datetime import datetime
from itertools import chain, repeat, takewhile
from operator import methodcaller, not_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tablefocus.core import CellSelection, Table, peek, project, render_markdown, transpose
from tablefocus.normalize import (
    ColumnKind,
    NormalizedTable,
    Orientation,
    detect_orientation,
    infer_column_kind,
    normalize,
    skip_normalization,
)
from tablefocus.sqlrows import RowSet
from tablefocus.structure import construct_focus, peek_markdown

normalize_module = importlib.import_module("tablefocus.normalize")


# The forms of one cell by kind, as the per-cell classifier gives them.
def parse_integer(cell: str) -> str | None:
    return normalize_module._Parses()[cell][0]


def parse_decimal(cell: str) -> str | None:
    return normalize_module._Parses()[cell][1]


def parse_date(cell: str) -> str | None:
    return normalize_module._Parses()[cell][2]


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
# The date prefilter the scan replaced, and characters that test it: its marks,
# ASCII and Unicode spaces, a newline (which "." does not match) and others.
_OLD_DATE_PREFILTER = re.compile(r"[-/,]|\s.*\s").search
_PREFILTER_ALPHABET = st.sampled_from(list("a1.+$-/, \t\n\r\x1c\x85") + ["\u00a0", "\u2003", "\u200b", "\u3000", "€"])
# Whether a stripped cell may be a number or a date: a number without the
# marks of a date is its currency signs and spaces, then "+" or not, then
# digits with at most one ".". The chain runs read a no-form run with it.
_MAY_HAVE_FORM = re.compile(
    rf"{normalize_module._DATE_MARK}|[{normalize_module._CURRENCY}\s]*\+?\d*\.?\d+\Z"
).match
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


_SHAPE_SEPARATOR = st.sampled_from(list("-/,. \t\n\x1f") + ["\u00a0", "\u2003", "\u3000"])


@st.composite
def _shape_like(draw):
    """A format of _DATE_FORMATS with its directives filled by numbers, month
    names or other words, and each separator kept or swapped for a run of
    "-/,.", ASCII and Unicode spaces, "\\x1f" and newlines."""
    template = re.split(r"(%[a-zA-Z])", draw(st.sampled_from(_DATE_FORMATS)))
    return "".join(
        draw(_NUMBER | _MONTH | _WORD)
        if t.startswith("%")
        else t if draw(st.booleans()) else "".join(draw(st.lists(_SHAPE_SEPARATOR, max_size=3)))
        for t in template
    )


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

    @settings(max_examples=2000, deadline=None)
    @given(_shape_like())
    def test_date_prefilter_passes_every_shape_match(self, raw):
        if normalize_module._ANY_DATE_SHAPE.fullmatch(raw):
            assert normalize_module._MAY_BE_DATE(raw)

    @settings(max_examples=2000, deadline=None)
    @given(_shape_like() | _date_like() | st.text(_PREFILTER_ALPHABET) | st.text())
    def test_date_prefilter_is_the_search_it_replaced(self, raw):
        assert bool(normalize_module._MAY_BE_DATE(raw)) == bool(_OLD_DATE_PREFILTER(raw))

    @settings(max_examples=2000, deadline=None)
    @given(_number_like() | _date_like() | st.text(_PREFILTER_ALPHABET))
    def test_form_prefilter_is_number_or_date_prefilter(self, raw):
        s = raw.strip()
        expected = _reference_parse_decimal(s) is not None or bool(_OLD_DATE_PREFILTER(s))
        assert bool(_MAY_HAVE_FORM(s)) == expected

    @pytest.mark.parametrize(
        "raw", ["42", "-3", "3.50", ".25", "1999-03-05"]
    )
    def test_canonical_forms_are_fixed_points(self, raw):
        for parser in (parse_integer, parse_decimal, parse_date):
            out = parser(raw)
            if out is not None:
                assert parser(out) == out


_RARELY = st.sampled_from([False] * 19 + [True])
_CURRENCY_RUN = st.sampled_from(["", "$", "€ ", "$$", "£\u00a0¥ ", "¥-"])


@st.composite
def _number_cell(draw, decimal):
    """An integer or, with ``decimal``, a decimal cell: commas or not, a sign,
    a currency run, padding and now and then Unicode digits."""
    value = draw(st.integers(0, 10**25))
    if decimal:
        fraction = draw(st.integers(0, 999))
        body = draw(st.sampled_from([f"{value:,}.{fraction}", f"{value}.{fraction}", f".{fraction}"]))
    else:
        body = draw(st.sampled_from([f"{value:,}", str(value)]))
    body = draw(_CURRENCY_RUN) + draw(st.sampled_from(["", "+", "-"])) + body
    if draw(_RARELY):
        body = body.translate(_UNICODE_DIGITS)
    return draw(_PADDING) + body + draw(_PADDING)


@st.composite
def _date_cell(draw, fmt):
    """A cell in ``fmt``: mostly a real date; now and then an impossible day
    or month, a word that names no month, a padded day or another separator.
    Two-digit years fall either side of strptime's %y pivot."""
    month = draw(st.sampled_from(list(range(1, 13)) * 6 + [0, 13]))
    day = draw(st.sampled_from(list(range(1, 29)) * 4 + [29, 30, 31, 0, 32]))
    word = calendar.month_name[month] if 1 <= month <= 12 else "Foo"
    if draw(_RARELY):
        word = draw(_WORD)
    fields = {
        "%Y": f"{draw(st.integers(1, 9999)):04d}",
        "%y": f"{draw(st.integers(0, 99)):02d}",
        "%m": draw(st.sampled_from([str(month), f"{month:02d}"])),
        "%d": draw(st.sampled_from([str(day), f"{day:02d}"] * 4 + [f" {day}"])),
        "%b": draw(_mixed_case(word[:3] if word in calendar.month_name else word)),
        "%B": draw(_mixed_case(word)),
    }
    return "".join(
        fields[piece] if piece.startswith("%") else draw(_DATE_SEPARATOR) if piece and draw(_RARELY) else piece
        for piece in re.split(r"(%[a-zA-Z])", fmt)
    )


_TEXT_CELL = st.text(st.sampled_from(list("abXY .\x00") + ["\u00a0", "é"]), max_size=8)


@st.composite
def _columns(draw):
    """A column whose cells share one form, with repeats, and in about half
    of them one or two cells of any other form at any place."""
    family = draw(st.sampled_from(["integer", "decimal", "date", "text"]))
    if family == "date":
        cell = _date_cell(draw(st.sampled_from(_DATE_FORMATS)))
    elif family == "text":
        cell = _TEXT_CELL
    else:
        cell = _number_cell(family == "decimal")
    cells = draw(st.lists(cell, min_size=1, max_size=10))
    cells += draw(st.lists(st.sampled_from(cells), max_size=3))
    others = _number_like() | _date_like() | _number_cell(family != "decimal") | _TEXT_CELL
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cells.insert(draw(st.integers(0, len(cells))), draw(others))
    return cells


@st.composite
def _ascii_dates(draw):
    """A date format's group name in ``_ANY_DATE_SHAPE`` and a cell its ASCII
    pattern fullmatches."""
    group = draw(st.sampled_from(sorted(normalize_module._ASCII_DATES)))
    return group, draw(st.from_regex(normalize_module._ASCII_DATES[group][1], fullmatch=True))


class _ChainParses(normalize_module._Parses):
    """The column pass before it searched the joined column: each run read
    with C-level ``map`` chains over the cells, kept as it was but for the
    fields ``_built`` now takes and its None for a date that names none, at
    which a run ends: a second reference for the forms of long columns."""

    def column(self, cells):
        forms = ([], [], [])
        start = runs = 0
        while len(cells) - start >= 8 and (runs < 3 or start >= 8 * runs):
            parsed = self[cells[start]]
            run = self._run(parsed, cells[start], map(cells.__getitem__, range(start + 1, len(cells))))
            for out, first, rest in zip(forms, parsed, run):
                out.append(first)
                out.extend(rest)
            start += 1 + len(run[0])
            runs += 1
        for out, rest in zip(forms, zip(*map(self.__getitem__, cells[start:]))):
            out.extend(rest)
        return [len(cells) - out.count(None) for out in forms], forms

    def _run(self, parsed, cell, cells):
        integer, decimal, dated = parsed
        stripped = map(str.strip, cells)
        if dated is not None:
            _, ascii_date, layout = normalize_module._ASCII_DATES[
                normalize_module._ANY_DATE_SHAPE.fullmatch(cell.strip()).lastgroup
            ]
            matches = takewhile(bool, map(ascii_date.fullmatch, stripped))
            dates = self._built(list(chain.from_iterable(map(methodcaller("groups"), matches))), layout)
            dates = list(takewhile(bool, dates))
            return [None] * len(dates), [None] * len(dates), dates
        if decimal is None:
            none = [None] * len(list(takewhile(not_, map(_MAY_HAVE_FORM, stripped))))
            return none, none, none
        numbers = map(str.lstrip, stripped, repeat(normalize_module._NUMBER_LEAD))
        if integer is not None:
            digits = map(str.replace, takewhile(normalize_module._IS_INT, numbers), repeat(","), repeat(""))
            integers = list(map(str, map(int, digits)))
            return integers, integers, [None] * len(integers)
        decimals = list(map(str.replace, takewhile(normalize_module._IS_DEC, numbers), repeat(","), repeat("")))
        return [None] * len(decimals), decimals, [None] * len(decimals)


# Cells that hold control characters, among them NULs, which send the
# column cell by cell.
_SEPARATOR_CELL = st.sampled_from(["\x00", "a\x00b", "1\x00", "\x01", "\x07 5", "\x1b", "\x7f", "\x00\x01\x7f"])
_ODD_INTEGER = st.sampled_from(
    ["0", "-0", "+0", "007", "-007", "+5", "-0,001", "0,123", "٠", "1,23", "12,3456", "1,,234", "1,234,"]
)
_ODD_DECIMAL = st.sampled_from(["0.0", "-0.50", "+.5", "00.1", "1,23.5", "1,234.", "1.2.3", "$ -1,234.5 ", "٣.٥"])
# Text of one or two words, then cells that a space, a mark or a number
# gives a form: the no-form run's edge.
_ODD_TEXT = st.sampled_from(
    ["a b", " a b ", "Cedar 12", "12 ab", "5 $", "+", "..", "a\tb", "a \x1c", "\u3000"]
) | st.sampled_from(["a  b", "a b c", "1  2", "x \u00a0y", "a\u3000 b", "x-y", "n/a", "a,", " 12 ", "$.5"])
# Dates of one shape whose month word or day may name no date, which cuts a run.
_MONTH_DAY = st.sampled_from(calendar.month_name[1:] + calendar.month_abbr[1:] + ["Sept", "Foo"]).flatmap(
    lambda month: st.sampled_from([f"{month} {day}, 2001" for day in (1, 28, 29, 30, 31)] + [f"{month} 29, 2000"])
)


def _padded_cells(cells):
    return st.tuples(_PADDING, cells, _PADDING).map("".join)


_FAMILIES = {
    "integer": _number_cell(False) | _ODD_INTEGER,
    "decimal": _number_cell(True) | _ODD_DECIMAL,
    "date": st.sampled_from(_DATE_FORMATS).flatmap(_date_cell),
    "month day": _padded_cells(_MONTH_DAY),
    "text": _TEXT_CELL | _ODD_TEXT | _SEPARATOR_CELL,
}


@st.composite
def _long_columns(draw):
    """A column of 8 to 300 cells in blocks of any length, so that runs break
    at every position. A block repeats the few cells drawn for one family:
    integers, decimals, dates in one format, dates in any, month days or
    text. Now and then a cell of any kind lands anywhere."""
    pools = {family: draw(st.lists(cells, min_size=1, max_size=4)) for family, cells in _FAMILIES.items()}
    one_format = _padded_cells(_date_cell(draw(st.sampled_from(_DATE_FORMATS))))
    pools["one format"] = draw(st.lists(one_format, min_size=1, max_size=4))
    size, rng = draw(st.integers(8, 300)), draw(st.randoms(use_true_random=False))
    cells: list[str] = []
    while len(cells) < size:
        cells += rng.choices(pools[rng.choice(sorted(pools))], k=rng.choice([1, 2, 3, 7, 8, 9, 20, 60, 150]))
    for cell in draw(st.lists(st.one_of(*_FAMILIES.values(), _number_like(), _date_like()), max_size=3)):
        cells.insert(rng.randint(0, len(cells)), cell)
    return cells[:size]


class TestColumnPass:
    @settings(max_examples=1000, deadline=None)
    @given(_columns(), st.data())
    def test_matches_the_per_cell_memo(self, cells, data):
        reference = normalize_module._Parses()
        expected = {cell: reference[cell] for cell in cells}
        parses = normalize_module._Parses()
        for cell in data.draw(st.lists(st.sampled_from(cells), max_size=2)):
            parses[cell]  # settled before the pass, one by one
        counts, forms = parses.column(cells)
        assert list(zip(*forms)) == [expected[cell] for cell in cells]
        assert dict(parses).items() <= expected.items()
        assert counts == [sum(expected[cell][k] is not None for cell in cells) for k in range(3)]

    @settings(max_examples=300, deadline=None)
    @given(_long_columns())
    def test_long_columns_match_the_per_cell_memo_and_the_chain_runs(self, cells):
        reference = normalize_module._Parses()
        expected = [reference[cell] for cell in cells]
        chains = _ChainParses()
        parses = normalize_module._Parses()
        counts, forms = parses.column(cells)
        assert list(zip(*forms)) == expected
        assert counts == [sum(parsed[k] is not None for parsed in expected) for k in range(3)]
        assert (counts, forms) == chains.column(cells)
        # The memo holds only correct entries.
        assert dict(parses).items() <= dict(zip(cells, expected)).items()

    @pytest.mark.parametrize(
        "cells,settled",
        [
            (["1,234", " $5 ", "-7", "1,234", "٣٤"], 4),
            (["1", "2", "2.5", "3"], 2),  # integers, then a decimal
            (["3.50", "$1,234.5", ".25"], 3),
            (["Cedar 12", "Alice", "", "\x01"], 4),
            (["Alice", "Bob", "n/a", "Carol"], 2),  # text, then a cell that may be a date
            (["Alice", "Bob", "12", "Carol"], 2),  # text, then a number
            (["n/a", "x"], 2),
            (["Mar 5, 1999", "dec 31, 2001", "Mar 5, 1999"], 2),
            (["03/04/99", "12/31/68"], 2),
            (["1999-03-05", "Mar 5, 1999"], 1),  # two date formats
            (["Mar 5, 1999", "Feb 30, 1999", "Mar 6, 1999"], 1),  # an impossible date
            (["Mar 5, 1999", "Sept 5, 1999"], 1),  # a word that names no month
            (["Mar 5, 1999", "Mar\u00a06, 1999"], 1),  # outside the ASCII form
            (["Mar\u00a05, 1999", "Mar 6, 1999"], 2),  # the first cell goes through strptime
        ],
    )
    def test_settles_the_cells_before_the_first_of_another_form(self, cells, settled):
        # Eight cells of another form after them give the column two classes
        # of shapes at least, so each class is converted into the memo, and
        # every cell enters it with its own forms. The run pass kept here as a
        # reference (``_ChainParses``) reads the cells up to the first of
        # another form, which starts its next run; ``settled`` counts the
        # distinct cells of its first run, whose dates ``_built`` reads.
        column = cells + ["x" if any(normalize_module._Parses()[cells[0]]) else "0"] * 8
        parses = normalize_module._Parses()
        _, forms = parses.column(column)
        assert list(zip(*forms)) == [normalize_module._Parses()[cell] for cell in column]
        assert dict(parses) == {cell: normalize_module._Parses()[cell] for cell in column}
        chains = _ChainParses()
        chains.column(column)
        starts = list(chains)
        assert len(set(column[: column.index(starts[1])])) == settled

    def test_a_column_with_a_nul_goes_cell_by_cell(self):
        # A NUL would split a cell's shape, so a column in which some cell
        # holds one takes each cell's forms from the memo.
        column = ["7", "7", "x\x00y", "7", *map(str, range(8, 16)), "\x00"]
        parses = normalize_module._Parses()
        counts, forms = parses.column(column)
        assert list(zip(*forms)) == [normalize_module._Parses()[cell] for cell in column]
        assert counts == [11, 11, 0]
        assert list(parses) == list(dict.fromkeys(column))

    def test_settles_only_cells_new_to_the_memo(self):
        # A cell in the memo is read, not classified again; the cells of a
        # class are converted at once, never one by one.
        classified: list[str] = []

        class CountingParses(normalize_module._Parses):
            def __missing__(self, cell):
                classified.append(cell)
                return super().__missing__(cell)

        parses = CountingParses()
        assert parses["7"] == ("7", "7", None)
        column = ["7", "x", *map(str, range(8, 16))]
        integers = ["7", None, *column[2:]]
        assert parses.column(column) == ([9, 9, 0], (integers, integers, [None] * 10))
        assert classified == ["7"]
        assert dict(parses) == {cell: normalize_module._Parses()[cell] for cell in column}
        parses.column(column)
        assert classified == ["7"]
        # A date outside the ASCII forms goes one by one, each distinct cell once.
        odd = ["Mar\u00a05, 1999", "Mar\u00a06, 1999"]
        parses.column([odd[0], *column, odd[1], odd[0]])
        assert classified == ["7", *odd]

    @settings(max_examples=300, deadline=None)
    @given(_ascii_dates())
    def test_an_ascii_date_fits_no_earlier_format(self, drawn):
        # The column pass reads every cell in the first cell's format; the
        # per-cell path reads each in the first format whose shape fits.
        group, cell = drawn
        _, pattern, _ = normalize_module._ASCII_DATES[group]
        cell = cell.strip()
        assume(pattern.fullmatch(cell))
        first = normalize_module._ANY_DATE_SHAPE.fullmatch(cell).lastgroup
        assert normalize_module._ASCII_DATES[first][1].pattern == pattern.pattern

    def test_two_digit_years_pivot_as_strptime_does(self):
        cells = [f"{m}/28/{yy:02d}" for yy in range(100) for m in (1, 12)]
        parses = normalize_module._Parses()
        _, forms = parses.column(cells)
        assert not parses  # one class, converted at once
        assert forms[2] == [datetime.strptime(cell, "%m/%d/%y").date().isoformat() for cell in cells]

    def test_spaces_are_every_character_strip_removes(self):
        spaces = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
        assert normalize_module._SPACES == spaces

    def test_each_distinct_shape_is_classified_at_most_once_per_call(self, monkeypatch):
        # Two integer columns of the same shapes, a column of two classes, and
        # headers that the transpose's score reads as a column.
        rng = random.Random(36)
        rows = [
            [f"{rng.randint(1, 99_999):,}", str(rng.randint(1, 99_999)), rng.choice(["7", "n/a", "12", "x y"])]
            for _ in range(300)
        ]
        classified: list[str] = []

        def counting(shape):
            classified.append(shape)
            return shape_class(shape)

        shape_class = normalize_module._shape_class
        monkeypatch.setattr(normalize_module, "_shape_class", counting)
        for table in (Table.make(["a", "1", "2,000"], rows), Table.make(["1", "22", "333"], rows)):
            classified.clear()
            normalize(table)
            assert classified and len(classified) == len(set(classified))

    def test_a_column_of_a_shape_per_cell_matches_the_per_cell_memo(self):
        # 300 distinct three-word titles, one shape each: words, numbers and
        # month names of any length, so that some read as dates, some as
        # dates whose words or days name none, and some as no form.
        rng = random.Random(36)
        words = ["a", "Go", "May", "Live", "March", "12", "5", "1999", "30", "Sept", "n/a", "Über"]
        titles: dict[str, str] = {}
        while len(titles) < 300:
            title = " ".join(rng.choice(words) + "x" * rng.randint(0, 3) * (rng.random() < 0.3) for _ in range(3))
            titles.setdefault(title.translate(normalize_module._SHAPE), title)
        cells = list(titles.values())
        reference = normalize_module._Parses()
        counts, forms = normalize_module._Parses().column(cells)
        assert list(zip(*forms)) == [reference[cell] for cell in cells]
        assert counts == [sum(reference[cell][k] is not None for cell in cells) for k in range(3)]
        classes = [normalize_module._shape_class(shape) for shape in titles]
        assert {"none", "f7", "f9"} <= set(classes) and counts[2] > 0

    def test_month_words_are_kept_across_calls_per_locale(self, monkeypatch):
        parsed: list[str] = []

        class CountingDatetime(datetime):
            @classmethod
            def strptime(cls, date_string, fmt):
                parsed.append(date_string)
                return super().strptime(date_string, fmt)

        normalize_module._month_in.cache_clear()
        monkeypatch.setattr(normalize_module, "datetime", CountingDatetime)
        cells = ["Mar 5, 1999", "apr 6, 2001"] * 5
        for expected in (["Mar", "apr"], ["Mar", "apr"]):
            assert normalize_module._Parses().column(cells)[1][2] == ["1999-03-05", "2001-04-06"] * 5
            assert sorted(parsed) == expected
        # ``_strptime`` keys its own cache by this locale, and so does the month memo.
        lang = locale.getlocale(locale.LC_TIME)
        monkeypatch.setattr(locale, "getlocale", lambda category=locale.LC_CTYPE: (f"x{lang[0]}", lang[1]))
        assert normalize_module._Parses().column(cells)[1][2] == ["1999-03-05", "2001-04-06"] * 5
        assert sorted(parsed) == ["Mar", "Mar", "apr", "apr"]

    def test_normalize_peak_memory_on_a_5000_row_table(self):
        # The table of uniform columns, and the same table with a blank first
        # cell in Units and a Notes column of mixed forms.
        rng = random.Random(3)

        def store_row():
            units, cents = rng.randint(1, 99_999), rng.randint(100, 9_999_999)
            return [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor', 'Summit'])} {rng.randint(100, 100_099)}",
                f"{units:,}" if rng.random() < 0.5 else str(units),
                f"${cents // 100:,}.{cents % 100:02d}",
                f"{rng.choice(calendar.month_abbr[1:])} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
            ]

        def note():
            return rng.choice(
                [
                    str(rng.randint(1, 999)),
                    f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}",
                    f"{rng.randint(1950, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    f"{rng.choice(calendar.month_abbr[1:])} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
                    rng.choice(["n/a", "closed", "see note"]),
                    "",
                ]
            )

        rows = [store_row() for _ in range(5000)]
        uniform = Table.make(["Store", "Units", "Revenue", "Opened"], rows)
        mixed = Table.make(
            ["Store", "Units", "Revenue", "Opened", "Notes"],
            [[row[0], "" if i == 0 else row[1], *row[2:], note()] for i, row in enumerate(rows)],
        )
        kinds = ["text", "integer", "decimal", "date"]
        for table, kinds in ((uniform, kinds), (mixed, [*kinds, "text"])):
            normalize(table)  # the first call imports and caches strptime's locale data
            tracemalloc.start()
            try:
                out = normalize(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [kind.kind for kind in out.column_kinds] == kinds
            # A regex that repeats once per cell over the joined column keeps a
            # backtracking frame per repetition and peaks above 5 MB here.
            assert peak < 4 * 2**20


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


@st.composite
def _month_ends(draw):
    """Dates in one format on days 27 to 31, many of which name no date, in
    years that include year 0 and both sides of the %y pivot."""
    template = re.split(r"(%[a-zA-Z])", draw(st.sampled_from(_DATE_FORMATS)))
    cells = []
    for _ in range(draw(st.integers(1, 10))):
        month, day = draw(st.integers(1, 12)), draw(st.integers(27, 31))
        fields = {
            "%Y": draw(st.sampled_from(["0000", "1900", "1999", "2000"])),
            "%y": draw(st.sampled_from(["00", "68", "69", "99"])),
            "%m": str(month),
            "%d": str(day),
            "%b": calendar.month_abbr[month],
            "%B": calendar.month_name[month],
        }
        cells.append("".join(fields.get(piece, piece) for piece in template))
    return cells


@st.composite
def _lines(draw):
    """Cells that share one form, with odd cells anywhere (the first place
    too) and repeats, dates in two formats, or dates near the end of a
    month; now and then padded with ASCII or Unicode spaces."""
    shape = draw(st.integers(0, 4))
    if shape > 1:
        cells = draw(_columns())
    elif shape:
        cells = draw(_month_ends())
    else:
        formats = st.sampled_from(_DATE_FORMATS)
        cells = draw(st.lists(st.one_of(_date_cell(draw(formats)), _date_cell(draw(formats))), min_size=1, max_size=12))
    return [draw(_PADDING) + cell + draw(_PADDING) if draw(_RARELY) else cell for cell in cells]


@st.composite
def _form_tables(draw):
    """Tables whose columns, or in about a third of them whose rows, are
    ``_lines``; laid out by rows, the transpose mostly wins."""
    lines = draw(st.lists(_lines(), min_size=1, max_size=5))
    length = min(map(len, lines))
    lines = [line[:length] for line in lines]
    by_rows = draw(st.integers(0, 2)) == 0
    width = length if by_rows else len(lines)
    headers = draw(st.lists(st.sampled_from(["h", "Year", "1999", "2,000", "Mar 5, 1999", "n/a", ""]), min_size=width, max_size=width))
    return Table.make(headers, lines if by_rows else list(zip(*lines)))


def _reference_normalize(table: Table) -> tuple:
    """``normalize`` and ``detect_orientation`` from the per-cell classifier
    alone: every cell's forms from ``__missing__``, and the transpose built
    and tallied cell by cell. Returns the table, the kinds, whether it was
    transposed, the provenance and the orientation."""
    parses = normalize_module._Parses()

    def tallies(t: Table) -> list[list[int]]:
        return [[sum(parses[cell][k] is not None for cell in t.column(j)) for k in range(3)] for j in range(t.column_count)]

    def score(t: Table, counts: list[list[int]]) -> float:
        return sum(max(c) in (0, t.row_count) for c in counts) / t.column_count if t.row_count else 0.0

    work, counts, transposed = table, tallies(table), False
    orientation = Orientation("row_major", 0.5)
    if table.row_count >= 1 and table.column_count >= 2:
        flipped = transpose(table)
        flipped_counts = tallies(flipped)
        score_row, score_col = score(table, counts), score(flipped, flipped_counts)
        transposed = score_col > score_row
        orientation = Orientation("column_major" if transposed else "row_major", 0.5 + abs(score_row - score_col) / 2.0)
        if transposed:
            work, counts = flipped, flipped_counts
    work, renames = normalize_module._unique_headers(work)
    kinds = tuple(normalize_module._kind(c, work.row_count) for c in counts)
    columns, provenance = [], []
    for j, (kind, notes) in enumerate(zip(kinds, renames)):
        cells, notes = work.column(j), list(notes)
        if kind.kind in ("integer", "decimal", "date"):
            k = ("integer", "decimal", "date").index(kind.kind)
            for i, cell in enumerate(cells):
                parsed = parses[cell][k]
                if parsed is None:
                    notes.append(f"row {i + 1}: kept verbatim (not parseable as {kind.kind})")
                elif parsed != cell:
                    notes.append(f"row {i + 1}: {cell!r} -> {parsed!r}")
                    cells[i] = parsed
        columns.append(cells)
        provenance.append(tuple(notes))
    return Table(work.headers, tuple(zip(*columns))), kinds, transposed, tuple(provenance), orientation


class TestNormalize:
    @settings(max_examples=600, deadline=None)
    @given(_form_tables())
    def test_matches_the_per_cell_reference(self, table):
        table_, kinds, transposed, provenance, orientation = _reference_normalize(table)
        out = normalize(table)
        assert (out.table, out.column_kinds, out.transposed, out.provenance) == (table_, kinds, transposed, provenance)
        assert detect_orientation(table) == orientation

    @settings(max_examples=300, deadline=None)
    @given(_form_tables())
    def test_columns_are_the_tables_columns(self, table):
        # The row-lookup table is loaded from ``columns``, whichever way the table was built.
        direct = normalize(table)
        direct = NormalizedTable(direct.table, direct.column_kinds, direct.transposed, direct.renames, direct.source)
        for out in (normalize(table), skip_normalization(table), direct):
            assert list(map(list, out.columns)) == [out.table.column(j) for j in range(out.table.column_count)]
        assert normalize(table) == direct

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

    def test_provenance_is_built_when_first_read(self):
        out = normalize(Table.make(["v"], [["1,234"], ["$56"], ["3"], ["4"], ["oops"]]))
        assert "provenance" not in vars(out)
        assert out.provenance == (
            ("row 1: '1,234' -> '1234'", "row 2: '$56' -> '56'", "row 5: kept verbatim (not parseable as integer)"),
        )

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
            NormalizedTable(
                table=Table.make(["a", "b"], []),
                column_kinds=(ColumnKind("text", 0.0),),
                transposed=False,
                renames=((), ()),
            )

    def test_each_distinct_cell_is_classified_once_and_month_words_reach_strptime_once(self, monkeypatch):
        normalize_module._month_in.cache_clear()  # month words are kept across calls
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
        one_by_one: list[str] = []
        parsed: list[str] = []

        class CountingParses(normalize_module._Parses):
            def __missing__(self, cell):
                one_by_one.append(cell)
                return super().__missing__(cell)

        class CountingDatetime(datetime):
            @classmethod
            def strptime(cls, date_string, fmt):
                parsed.append(date_string)
                return super().strptime(date_string, fmt)

        monkeypatch.setattr(normalize_module, "_Parses", CountingParses)
        monkeypatch.setattr(normalize_module, "datetime", CountingDatetime)
        out = normalize(table)
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date", "date"]
        # Every column is homogeneous, so the transpose, and its header cells,
        # is never classified. A column whose shapes share one class is
        # converted at once; the column outside the ASCII date forms goes one
        # cell at a time, each distinct cell once.
        assert sorted(one_by_one) == sorted({row[4] for row in rows})
        month_words = {row[3].split()[0] for row in rows}
        assert sorted(parsed) == sorted(month_words | {row[4] for row in rows})

    def test_a_5000_row_number_column_with_an_odd_cell_every_ninth_matches_the_reference(self):
        # A blank, "n/a" or "-" in every ninth cell of the integer column.
        rng = random.Random(36)
        rows = [
            [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor'])} {rng.randint(100, 99_999)}",
                ["", "n/a", "-"][i // 9 % 3] if i % 9 == 8 else f"{rng.randint(1, 99_999):,}",
                f"${rng.randint(1, 99_999):,}.{rng.randint(0, 99):02d}",
                f"{rng.choice(calendar.month_abbr[1:])} {rng.randint(1, 31)}, {rng.randint(1950, 2020)}",
            ]
            for i in range(5000)
        ]
        table = Table.make(["Store", "Units", "Revenue", "Opened"], rows)
        table_, kinds, transposed, provenance, _ = _reference_normalize(table)
        out = normalize(table)
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date"]
        assert (out.table, out.column_kinds, out.transposed, out.provenance) == (table_, kinds, transposed, provenance)

    def test_each_column_is_tallied_once(self, monkeypatch):
        rng = random.Random(9)
        rows = [
            [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor'])} {rng.randint(100, 99_999)}",
                f"{rng.randint(1, 99_999):,}",
                f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}",
                # Two date formats, so this column's cells do not share one form.
                f"{rng.randint(1950, 2020)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
                if i % 2 == 0
                else f"{rng.choice(calendar.month_abbr[1:])} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
            ]
            for i in range(200)
        ]
        passed: list[list[str]] = []
        lookups = 0

        class CountingParses(normalize_module._Parses):
            def __getitem__(self, cell):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(cell)

            def tally(self, cells):
                passed.append(list(cells))
                return super().tally(cells)

        monkeypatch.setattr(normalize_module, "_Parses", CountingParses)
        out = normalize(Table.make(["Store", "Units", "Price", "Opened"], rows))
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date"]
        assert not out.transposed
        assert passed == [list(column) for column in zip(*rows)]
        # Each column's cells pass through the shape pass once. A column whose
        # shapes share one class is never looked up. The other column's two
        # classes are converted into the memo, from which each of its cells
        # is read once.
        assert lookups == 200

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


def _eager(out: NormalizedTable, reference: Table) -> None:
    """Checks ``out``, read late, against ``reference``, the same table built
    at once: views of some rows before and after whole columns are read."""
    m, n = reference.row_count, reference.column_count
    rng = random.Random(m * 31 + n)
    for _ in range(3):
        rows = sorted(rng.sample(range(m), rng.randint(0, m)))
        columns = sorted(rng.sample(range(n), rng.randint(1, n)))
        assert out.view(rows, columns) == project(reference, CellSelection(tuple(rows), tuple(columns)))
    for j in rng.sample(range(n), n):
        assert list(out.columns[j]) == reference.column(j)
    rows = sorted(rng.sample(range(m), m // 2))
    assert out.view(rows, range(n)) == project(reference, CellSelection(tuple(rows), tuple(range(n))))
    assert out.table == reference and reference == out.table and repr(out.table) == repr(reference)


class TestLateCells:
    """``normalize`` converts a cell only when a stage reads it: these compare
    what it reads, row subsets first, with the per-cell reference built at once."""

    @settings(max_examples=300, deadline=None)
    @given(wild_tables() | _form_tables())
    def test_views_and_columns_match_the_table_built_at_once(self, t):
        table_, kinds, transposed, _, orientation = _reference_normalize(t)
        out = normalize(t)
        assert (out.column_kinds, out.transposed) == (kinds, transposed)
        assert detect_orientation(t) == orientation
        _eager(out, table_)

    @pytest.mark.parametrize(
        "cells",
        [
            ["Feb 29, 2001", "Feb 28, 2001", "Mar 31, 1999", "Apr 31, 1999", "Jan 30, 2000", "Jan 5, 2000"],
            ["0000-01-05", "1999-01-05", "0001-02-03", "2020-12-28"],
            ["Mar 5, 1999", "Foo 5, 1999", "Sept 6, 2001", "dec 7, 2001"],
            ["13/05/1999", "12/05/1999", "00/05/1999", "1/5/1999"],
            ["03/04/99", "12/28/68", "1/1/69", "02/29/00", "02/29/01"],
            ["Mar 5, 1999", "Apr 6, 2001", "May 7, 2003", "Jun 8, 2005"],
        ],
        ids=["days-29-to-31", "year-0000", "month-words", "month-13", "two-digit-years", "all-exist"],
    )
    def test_dates_that_may_name_no_date_match_the_reference(self, cells):
        t = Table.make(["Name", "When", "Units"], [[f"n{i}", cell, str(i)] for i, cell in enumerate(cells)])
        table_, kinds, transposed, provenance, _ = _reference_normalize(t)
        out = normalize(t)
        assert (out.column_kinds, out.transposed, out.provenance) == (kinds, transposed, provenance)
        _eager(out, table_)

    def test_a_transposed_table_reads_as_the_reference(self):
        t = Table.make(["Field", "Alice", "Bob"], [["Age", "34", "1,028"], ["Born", "Mar 5, 1990", "Feb 30, 1991"]])
        table_, kinds, transposed, _, _ = _reference_normalize(t)
        out = normalize(t)
        assert out.transposed and transposed and out.column_kinds == kinds
        _eager(out, table_)

    @pytest.mark.parametrize("m", [25, 26, 50, 51])
    def test_a_peek_of_most_rows_converts_and_keeps_whole_columns(self, m):
        t = Table.make(["Name", "Units", "When"], [[f"n{i}", f"{i:,}", f"Mar {i % 28 + 1}, 1999"] for i in range(m)])
        table_, *_ = _reference_normalize(t)
        out = normalize(t)
        assert peek_markdown(out, 25) == render_markdown(peek(table_, 25))
        # More than half the rows read convert each column whole, once.
        kept = [column is not None for column in out.columns.kept]
        assert kept == [2 * 25 > m] * 3
        _eager(out, table_)

    def test_a_peek_and_a_one_row_focus_build_the_dates_of_those_rows_only(self, monkeypatch):
        rng = random.Random(37)
        rows = [
            [
                f"{rng.choice(['Cedar', 'Maple', 'Harbor'])} {rng.randint(100, 99_999)}",
                f"{rng.randint(1, 99_999):,}",
                f"${rng.randint(1, 99_999):,}.{rng.randint(0, 99):02d}",
                f"{rng.choice(calendar.month_abbr[1:])} {rng.randint(1, 28)}, {rng.randint(1950, 2020)}",
            ]
            for _ in range(5000)
        ]
        t = Table.make(["Store", "Units", "Revenue", "Opened"], rows)
        converted: list[tuple[str, int]] = []
        built: list[int] = []
        forms, built_dates = normalize_module._Parses._forms, normalize_module._Parses._built

        def counting_forms(self, group, cells, *args):
            converted.append((group, len(cells)))
            return forms(self, group, cells, *args)

        def counting_built(self, fields, layout):
            built.append(len(fields) // 3)
            return built_dates(self, fields, layout)

        monkeypatch.setattr(normalize_module._Parses, "_forms", counting_forms)
        monkeypatch.setattr(normalize_module._Parses, "_built", counting_built)
        out = normalize(t)
        assert [kind.kind for kind in out.column_kinds] == ["text", "integer", "decimal", "date"]
        assert converted == [] and built == []
        peek_markdown(out, 25)
        focus = construct_focus(out, RowSet(indices=(4000,)), ["Store", "Opened"])
        assert built == [25, 1]
        assert sorted(size for _, size in converted) == [1, 25, 25, 25]
        table_, *_ = _reference_normalize(Table.make(t.headers, t.rows[4000:4001]))
        assert focus.table.rows == ((table_.rows[0][0], table_.rows[0][3]),)

    def test_headers_and_size_build_no_row(self, monkeypatch):
        t = Table.make(["Name", "Units", "When"], [[f"n{i}", f"{i:,}", f"Mar {i % 28 + 1}, 1999"] for i in range(40)])

        def refuse(*args):
            raise AssertionError("a cell was converted")

        monkeypatch.setattr(normalize_module._Parses, "_forms", refuse)
        out = normalize(t)
        assert (out.table.headers, out.table.row_count, out.table.column_count) == (t.headers, 40, 3)
        assert "built" not in vars(out.table.rows) and out.columns.kept == [None] * 3


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
