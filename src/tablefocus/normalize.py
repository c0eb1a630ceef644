"""Turn a wild table into a normalized one: orientation detection, column kind
inference, and canonicalization of numeric/date columns.

All functions are pure and best-effort: unparseable cells in a typed column are
left verbatim and flagged in provenance instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import cache, cached_property
from operator import itemgetter, not_
from typing import Sequence

from .core import Table, transpose

KIND_THRESHOLD = 0.8
MIXED_THRESHOLD = 0.5

_CURRENCY = "$€£¥"
# Every character str.strip() removes: those for which str.isspace() is true.
_SPACES = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# A stripped cell's number is the cell without its leading currency signs and
# the spaces after each: its lstrip of these characters.
_NUMBER_LEAD = _CURRENCY + _SPACES
_INT = r"[+-]?(?:\d+|\d{1,3}(?:,\d{3})*)"
_DEC = r"[+-]?(?:\d{1,3}(?:,\d{3})*\.\d+|\d+\.\d+|\.\d+)"
_IS_INT = re.compile(_INT).fullmatch
_IS_DEC = re.compile(_DEC).fullmatch

# Ambiguous numeric day/month forms are read month-first.
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

# Per format, a looser regex that every string strptime accepts with that format
# also fullmatches: strptime reads format whitespace as \s+, %d may be
# space-padded, and month names depend on the locale. So skipping strptime where
# the shape fails changes no result, and most cells fail the union of all
# shapes at once. The union, with one named group per format, also names the
# first format whose shape fits, which is the first one strptime would accept.
_DIRECTIVE_SHAPES = {"%Y": r"\d{4}", "%y": r"\d{2}", "%m": r"\d{1,2}", "%d": r"\s?\d{1,2}", "%b": ".+?", "%B": ".+?"}
# strptime's own regexes for these directives, cut to ASCII digits and letters.
# A string in this language that forms a real date is one strptime reads the
# same way, so its date is built directly; the month name is looked up once
# per distinct word with strptime itself, which keeps the locale's names.
_ASCII_DIRECTIVES = {
    "%Y": r"(?P<Y>[0-9]{4})",
    "%y": r"(?P<y>[0-9]{2})",
    "%m": r"(?P<m>1[0-2]|0[1-9]|[1-9])",
    "%d": r"(?P<d>3[01]|[12][0-9]|0[1-9]|[1-9]| [1-9])",
    "%b": r"(?P<b>[A-Za-z]+)",
    "%B": r"(?P<b>[A-Za-z]+)",
}


def _date_pattern(fmt: str, directives: dict[str, str], space: str) -> str:
    pieces = re.split(r"(%.|\s+)", fmt)
    return "".join(directives[p] if p.startswith("%") else space if p.isspace() else re.escape(p) for p in pieces)


_DATE_SHAPES = tuple((fmt, re.compile(_date_pattern(fmt, _DIRECTIVE_SHAPES, r"\s+"))) for fmt in _DATE_FORMATS)
_ANY_DATE_SHAPE = re.compile("|".join(f"(?P<f{i}>{shape.pattern})" for i, (_, shape) in enumerate(_DATE_SHAPES)))
# Every shape holds a "-", "/" or "," or two whitespace characters, so a cell
# without them skips the shape union, which is slow to reject a plain word. The
# test scans from the left up to the first of those characters or the second
# whitespace character. ``(?=([^-/,\s]*))\1`` takes a run of other characters
# whole and never backtracks into it, like the possessive ``*+`` that ``re``
# accepts only from Python 3.11 on, which halves the cost of a failed scan.
_DATE_MARK = r"(?=([^-/,\s]*))\1(?:[-/,]|\s(?=([^-/,\s]*))\2[-/,\s])"
_MAY_BE_DATE = re.compile(_DATE_MARK).match


def _ascii_date(i: int, fmt: str) -> tuple[int, re.Pattern, tuple]:
    """Format ``i``, its ASCII pattern and the places of the year, the month
    and the day among the pattern's groups. No string this pattern fullmatches
    fits an earlier format's shape, so ``_ANY_DATE_SHAPE`` names format ``i``,
    or a twin with the same shape and pattern, first for each of them."""
    pattern = re.compile(_date_pattern(fmt, _ASCII_DIRECTIVES, r"[ \t\n\r\f\v]+"))
    at = {name: number - 1 for name, number in pattern.groupindex.items()}
    return i, pattern, (at.get("Y", at.get("y")), at.get("m", at.get("b")), at["d"], "y" in at, "b" in at)


_ASCII_DATES = {f"f{i}": _ascii_date(i, fmt) for i, fmt in enumerate(_DATE_FORMATS)}
# Each %y year as strptime reads it: 00-68 in 2000-2068, 69-99 in 1969-1999.
_PIVOT = {f"{y:02d}": str(y + 2000 if y <= 68 else y + 1900) for y in range(100)}
# Each day or month field the ASCII patterns allow, as two digits.
_TWO_DIGITS = {field: f"{n:02d}" for n in range(1, 32) for field in (str(n), f"{n:02d}", f" {n}")}

# A column pass joins the column's cells into one text, each followed by a
# NUL, unless a cell holds one. A NUL is no space, digit, letter or mark of a
# number or a date, so no cell pattern below reads across one. A run ends at
# the first NUL not followed by a cell of its form: a search with a lookahead
# over one cell, since a pattern that repeats over the cells keeps a
# backtracking frame per cell, megabytes on a long column. ``_compiled``
# compiles each of these checks on first use. ``_SPACE`` is ``\s`` as a set
# of characters, which ``re`` tests about twice as fast as the category.
_SPACE = f"[{_SPACES}]"
# As ``_IS_INT``/``_IS_DEC`` read ``cell.strip().lstrip(_NUMBER_LEAD)``.
_INT_RUN = rf"\x00(?![{_NUMBER_LEAD}]*{_INT}{_SPACE}*\x00)"
_DEC_RUN = rf"\x00(?![{_NUMBER_LEAD}]*{_DEC}{_SPACE}*\x00)"
# A stripped cell has no form when it is no number, which would be its
# currency signs and spaces, then "+" or not, then digits with at most one
# ".", and it fails ``_DATE_MARK``: it holds no "-", "/" or "," and at most
# one space, so it is at most two words with one space between.
_WORD = rf"[^-/,\x00{_SPACES}]+"
_NO_FORM_RUN = (
    rf"\x00(?:(?=[{_NUMBER_LEAD}]*\+?\d*\.?\d+{_SPACE}*\x00)"
    rf"|(?!{_SPACE}*(?:{_WORD}(?:{_SPACE}{_WORD})?)?{_SPACE}*\x00))"
)
# An integer's form differs from its text when it holds a non-ASCII digit, a
# "+", a leading zero or "-0"; this finds the last two.
_NOT_CANONICAL = r"\x00(?:-0|0[0-9])"
_NUMBER_MARKS = str.maketrans("", "", _NUMBER_LEAD + ",")  # what a number's form drops
# Per date format, the search that ends a run of its ASCII dates, as
# ``ascii_date.fullmatch(cell.strip())`` reads them. Such a cell is three
# fields of digits or letters with spaces, "-", "/" or "," between and
# around them, so with those marks and the NULs made spaces, ``split``
# gives each cell's fields in format order.
_DATE_RUNS = {
    group: rf"\x00(?!{_SPACE}*(?:{ascii_date.pattern}){_SPACE}*\x00)"
    for group, (_, ascii_date, _) in _ASCII_DATES.items()
}
_DATE_MARKS = str.maketrans(dict.fromkeys("-/,\x00", " "))
_compiled = cache(re.compile)


@dataclass(frozen=True)
class ColumnKind:
    kind: str  # integer | decimal | date | text | mixed
    parse_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.parse_ratio <= 1.0:
            raise ValueError("parse_ratio must be in [0, 1]")


@dataclass(frozen=True)
class Orientation:
    value: str  # row_major | column_major
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


@dataclass(frozen=True, repr=False)
class NormalizedTable:
    table: Table
    column_kinds: tuple[ColumnKind, ...]
    transposed: bool
    renames: tuple[tuple[str, ...], ...]  # per-column header-rename notes
    # The cells before canonicalization, from which ``provenance`` is rebuilt;
    # None when nothing was canonicalized (``skip_normalization``).
    source: Table | None = None
    # The data cells of ``table`` column by column, which the row-lookup table
    # is loaded from: the columns ``normalize`` built its rows from, or else
    # read from ``table``.
    columns: tuple[Sequence[str], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.column_kinds) != self.table.column_count:
            raise ValueError("one ColumnKind per column required")
        if not self.columns:
            object.__setattr__(self, "columns", tuple(map(self.table.column, range(self.table.column_count))))

    @cached_property
    def provenance(self) -> tuple[tuple[str, ...], ...]:
        """Per-column notes: the header rename, then each typed cell that was
        canonicalized or kept verbatim. Built on first read, since only
        ``tablefocus normalize`` prints them."""
        if self.source is None:
            return self.renames
        parses = _Parses()
        provenance = []
        for j, (kind, renames) in enumerate(zip(self.column_kinds, self.renames)):
            notes = list(renames)
            if kind.kind in _KINDS:
                _, forms = parses.column(cells := self.source.column(j))
                for i, (cell, parsed) in enumerate(zip(cells, forms[_KINDS.index(kind.kind)])):
                    if parsed is None:
                        notes.append(f"row {i + 1}: kept verbatim (not parseable as {kind.kind})")
                    elif parsed != cell:
                        notes.append(f"row {i + 1}: {cell!r} -> {parsed!r}")
            provenance.append(tuple(notes))
        return tuple(provenance)

    def __repr__(self) -> str:
        return (
            f"NormalizedTable(table={self.table!r}, column_kinds={self.column_kinds!r}, "
            f"transposed={self.transposed!r}, provenance={self.provenance!r})"
        )


# The order of the parsed forms; on a tie the earlier, more specific kind wins
# (integers also parse as decimals).
_KINDS = ("integer", "decimal", "date")


class _Parses(dict):
    """Memo for one call: cell -> its (integer, decimal, date) canonical forms,
    None where the cell does not parse as that kind. ``months`` maps each
    month word seen to its month as two digits, or None when it names none.

    ``__missing__`` classifies one cell and is the reference; ``column``
    classifies a column's cells run by run, or cell by cell where some cell
    holds a NUL, and only the first cell of each run enters the memo."""

    def __init__(self) -> None:
        super().__init__()
        self.months: dict[str, str | None] = {}

    def __missing__(self, cell: str) -> tuple[str | None, str | None, str | None]:
        s = cell.strip()
        number = s.lstrip(_NUMBER_LEAD)
        # No date shape fits a number, currency sign or not, so numbers skip the date parse.
        if _IS_INT(number):
            integer = str(int(number.replace(",", "")))
            parsed = (integer, integer, None)
        elif _IS_DEC(number):
            parsed = (None, number.replace(",", ""), None)
        else:
            parsed = (None, None, self._date(s))
        self[cell] = parsed
        return parsed

    def column(self, cells: Sequence[str]) -> tuple[list[int], tuple[list, list, list]]:
        """A column's tally, how many of its cells parse as each kind of
        ``_KINDS``, and the forms of each kind of its cells, in cell order.

        The cells go in runs, over the column joined once into one text, each
        cell followed by a NUL. A run's first cell is read from the memo; one
        search from its end then finds the first cell after it of another
        form, which starts the next run, and the forms of the cells between
        are taken from that slice of the text at once. The forms: integers,
        decimals, no form (no number, and nothing every date shape holds), or
        dates in the first cell's format in ASCII form. A column whose cells
        share one form is one run. The cells go on one by one, through the
        memo, from where fewer than eight are left or, after three runs, from
        where the runs average fewer than eight. In timings, four in place of
        eight slowed a table of four-cell columns by a third, no average rule
        a column of six forms in random order by half, and no three-run grace
        a blank first cell by a tenth; 16, 2 and 5 timed the same. A column
        in which some cell holds a NUL goes one by one from the start."""
        forms: tuple[list, list, list] = ([], [], [])
        text = "\x00".join(cells) + "\x00" if len(cells) >= 8 else ""
        nul_free = text.count("\x00") == len(cells)
        start = runs = 0
        end = -1  # the NUL before cell ``start``
        while nul_free and len(cells) - start >= 8 and (runs < 3 or start >= 8 * runs):
            cell = cells[start]
            parsed = self[cell]
            run, end = self._run(parsed, cell, text, end + 1 + len(cell))
            for out, first, rest in zip(forms, parsed, run):
                out.append(first)
                out.extend(rest)
            start += 1 + len(run[0])
            runs += 1
        for out, rest in zip(forms, zip(*map(self.__getitem__, cells[start:]))):
            out.extend(rest)
        return [len(cells) - out.count(None) for out in forms], forms

    def _run(self, parsed: tuple, cell: str, text: str, at: int) -> tuple[tuple[list, list, list], int]:
        """The forms of each kind of the cells after ``cell`` that share the
        form of ``cell``, whose forms are ``parsed``, up to the first that does
        not, and the offset of the NUL after the last of them. ``text`` is the
        column, each cell followed by a NUL, and ``cell`` ends at offset ``at``."""
        integer, decimal, dated = parsed
        if dated is not None:
            # None of them is a number: every format puts a "-", "/" or letters between two fields.
            group = _ANY_DATE_SHAPE.fullmatch(cell.strip()).lastgroup
            end = _compiled(_DATE_RUNS[group]).search(text, at).start()
            fields = text[at:end].translate(_DATE_MARKS).split()
            dates = self._built(fields, _ASCII_DATES[group][2])
            if 3 * len(dates) < len(fields):  # cut at a word that names no month or a date that does not exist
                end = at + len(dates) + sum(map(len, text[at + 1 : end].split("\x00", len(dates))[: len(dates)]))
            none = [None] * len(dates)
            return (none, none, dates), end
        if decimal is None:
            end = _compiled(_NO_FORM_RUN).search(text, at).start()
            none = [None] * text.count("\x00", at, end)
            return (none, none, none), end
        end = _compiled(_INT_RUN if integer is not None else _DEC_RUN).search(text, at).start()
        numbers = text[at:end].translate(_NUMBER_MARKS)  # a NUL before each cell
        run = numbers.split("\x00")[1:]
        none = [None] * len(run)
        if integer is None:
            return (none, run, none), end
        if not numbers.isascii() or "+" in numbers or _compiled(_NOT_CANONICAL).search(numbers):
            run = list(map(str, map(int, run)))
        return (run, run, none), end

    def _built(self, fields: list[str], layout: tuple) -> list[str]:
        """The ISO dates that ASCII dates name, from their ``fields``, three
        a date in format order, up to the first whose word names no month or
        whose date does not exist."""
        year_at, month_at, day_at, two_digit, word = layout
        years = fields[year_at::3]
        if two_digit:
            years = list(map(_PIVOT.__getitem__, years))
        months = fields[month_at::3]
        if word:
            for name in set(months).difference(self.months):
                self.months[name] = _month_number(name)
            months = map(self.months.__getitem__, months)
        else:
            months = map(_TWO_DIGITS.__getitem__, months)
        days = list(map(_TWO_DIGITS.__getitem__, fields[day_at::3]))
        built: list[str] = []
        try:  # extend keeps what the map gave before it raised, here at a month of None
            built.extend(map("-".join, zip(years, months, days)))
        except TypeError:
            pass
        if "0000" in years or max(days, default="") > "28":  # then some may name no date
            real: list[date] = []
            try:
                real.extend(map(date.fromisoformat, built))
            except ValueError:
                del built[len(real) :]
        return built

    def _date(self, s: str) -> str | None:
        shape = _ANY_DATE_SHAPE.fullmatch(s) if _MAY_BE_DATE(s) else None
        if shape is None:
            return None
        first, ascii_date, (year_at, month_at, day_at, two_digit, word) = _ASCII_DATES[shape.lastgroup]
        fields = ascii_date.fullmatch(s)
        if fields is not None:  # one date, built without the maps of ``_built``
            year, month, day = itemgetter(year_at, month_at, day_at)(fields.groups())
            if word and month not in self.months:
                self.months[month] = _month_number(month)
            try:  # int(None), for a word that names no month, raises TypeError
                month = self.months[month] if word else month
                return date(int(_PIVOT[year] if two_digit else year), int(month), int(day)).isoformat()
            except (TypeError, ValueError):
                pass
        # No earlier format's shape fits, so strptime starts at the first that does.
        for fmt, shape in _DATE_SHAPES[first:]:
            if not shape.fullmatch(s):
                continue
            try:
                return datetime.strptime(s, fmt).date().isoformat()
            except ValueError:
                continue
        return None


def _month_number(word: str) -> str | None:
    """The month ``word`` names as strptime reads it, as two digits: each %B
    format follows its %b twin, whose shape is the same, so strptime also
    tries the abbreviation first."""
    for directive in ("%b", "%B"):
        try:
            return f"{datetime.strptime(word, directive).month:02d}"
        except ValueError:
            continue
    return None


def _kind(counts: list[int], n: int) -> ColumnKind:
    """The kind of a column of ``n`` cells with tally ``counts``; one without cells is text."""
    best_count = max(counts)
    best = best_count / n if n else 0.0
    if best >= KIND_THRESHOLD:
        return ColumnKind(kind=_KINDS[counts.index(best_count)], parse_ratio=best)
    if best >= MIXED_THRESHOLD:
        return ColumnKind(kind="mixed", parse_ratio=best)
    return ColumnKind(kind="text", parse_ratio=best)


def infer_column_kind(cells: list[str]) -> ColumnKind:
    """Pick the primitive kind whose parse ratio clears the 0.8 threshold.

    A best ratio in [0.5, 0.8) yields ``mixed``; anything lower is ``text``.
    The inference is invariant under canonicalization: canonical forms parse
    back to the same kind, which keeps normalization idempotent.
    """
    if not cells:
        raise ValueError("cannot infer kind of an empty column")
    return _kind(_Parses().column(cells)[0], len(cells))


def _score(columns: list[tuple[list[int], tuple]], rows: int) -> float:
    """The homogeneity of a table of ``rows`` rows with ``columns``: the
    fraction of columns whose data cells all parse as one primitive (ratio
    1.0) or none parses as any (pure text, ratio 0.0)."""
    if rows == 0:
        return 0.0
    return sum(max(counts) in (0, rows) for counts, _ in columns) / len(columns)


def _flipped_score(table: Table, columns: list[tuple[list[int], tuple]], parses: _Parses) -> tuple[float, tuple]:
    """``_score`` of ``transpose(table)``, without building it, from the
    ``columns`` of ``table``, and the transpose's first column: the headers
    after the first. Its column i + 1 is row i after the first cell, which is
    homogeneous when those cells are all numbers (they have a decimal form),
    all dates or all of no form. A kind some column lacks is not read, which
    saves about 2 ms on a 5,000-row table of four columns."""
    headers, tallies = parses.column(table.headers[1:]), [counts for counts, _ in columns[1:]]
    numbers, dates = [forms[1] for _, forms in columns[1:]], [forms[2] for _, forms in columns[1:]]
    rows = sum(map(all, zip(*numbers))) if all(counts[1] for counts in tallies) else 0
    rows += sum(map(all, zip(*dates))) if all(counts[2] for counts in tallies) else 0
    if all(counts[1] + counts[2] < table.row_count for counts in tallies):
        rows += sum(map(not_, map(any, zip(*numbers, *dates))))
    return ((max(headers[0]) in (0, table.column_count - 1)) + rows) / (table.row_count + 1), headers


def _too_small(table: Table) -> bool:
    """Whether the table is too small to judge its orientation; it then reads row_major."""
    return table.row_count < 1 or table.column_count < 2


def detect_orientation(table: Table) -> Orientation:
    """Compare column-type homogeneity of the table against its transpose.

    Ties (and tables too small to judge) default to row_major. Confidence is
    0.5 plus half the score margin, so a tie reads as maximal uncertainty.
    """
    if _too_small(table):
        return Orientation(value="row_major", confidence=0.5)
    parses = _Parses()
    columns = [parses.column(table.column(j)) for j in range(table.column_count)]
    score_row, (score_col, _) = _score(columns, table.row_count), _flipped_score(table, columns, parses)
    value = "row_major" if score_row >= score_col else "column_major"
    return Orientation(value=value, confidence=0.5 + abs(score_row - score_col) / 2.0)


def _unique_headers(table: Table) -> tuple[Table, tuple[tuple[str, ...], ...]]:
    """Rename repeated headers to ``name (2)``, ``name (3)``, ... and note each rename.

    Names compare case-insensitively, as the model-reply parsers match them,
    and a new name never takes one already in use. Returns the input table
    itself, with empty notes, when every header is distinct.
    """
    taken = {h.lower() for h in table.headers}
    if len(taken) == len(table.headers):
        return table, tuple(() for _ in table.headers)
    seen: set[str] = set()
    headers: list[str] = []
    notes: list[tuple[str, ...]] = []
    for header in table.headers:
        name, n = header, 2
        if header.lower() in seen:
            while f"{header} ({n})".lower() in taken:
                n += 1
            name = f"{header} ({n})"
            taken.add(name.lower())
        seen.add(name.lower())
        headers.append(name)
        notes.append(() if name == header else (f"header {header!r} repeated; renamed to {name!r}",))
    return Table.make(headers, table.rows), tuple(notes)


def normalize(table: Table) -> NormalizedTable:
    """Produce the normalized table: orientation fixed, typed columns canonicalized.

    Total and idempotent; unparseable cells in a typed column stay verbatim and
    are flagged in the per-column provenance, which is built only when read.
    One pass per column gives its tally and its cells' forms, from which the
    canonical cells are taken; the transpose is scored from those forms and
    built only when it wins.
    """
    parses = _Parses()
    work, transposed = table, False
    columns = [parses.column(table.column(j)) for j in range(table.column_count)]
    score_row = _score(columns, table.row_count)
    # As in ``detect_orientation``; a row score of 1.0 skips the transpose,
    # which can at best tie, and ties read row_major.
    flipped = _flipped_score(table, columns, parses) if score_row < 1.0 and not _too_small(table) else (0.0, None)
    if flipped[0] > score_row:
        work, transposed = transpose(table), True
        # Its columns: the headers after the first, then each row after its first cell.
        rows = [list(zip(*(forms[k] for _, forms in columns[1:]))) for k in range(3)]
        columns = [flipped[1], *(([len(f) - f.count(None) for f in forms], forms) for forms in zip(*rows))]
    # Renaming headers leaves the data cells, and so the columns' forms, as they are.
    work, renames = _unique_headers(work)

    kinds: list[ColumnKind] = []
    cells: list[list[str]] = []
    for j, (counts, forms) in enumerate(columns):
        kinds.append(kind := _kind(counts, work.row_count))
        if kind.kind not in _KINDS:
            cells.append(work.column(j))
        elif counts[k := _KINDS.index(kind.kind)] == work.row_count:
            cells.append(forms[k])
        else:  # a cell without the column's form stays as it is
            cells.append([cell if parsed is None else parsed for cell, parsed in zip(work.column(j), forms[k])])

    return NormalizedTable(
        table=Table(work.headers, tuple(zip(*cells))),
        column_kinds=tuple(kinds),
        transposed=transposed,
        renames=renames,
        source=work,
        columns=tuple(cells),
    )


def skip_normalization(table: Table) -> NormalizedTable:
    """Wrap a table without touching it, apart from renaming repeated headers:
    the ``normalization=False`` ablation (``--no-normalize``)."""
    table, renames = _unique_headers(table)
    parses = _Parses()
    columns = tuple(map(table.column, range(table.column_count)))
    kinds = tuple(_kind(parses.column(cells)[0], table.row_count) for cells in columns)
    return NormalizedTable(table=table, column_kinds=kinds, transposed=False, renames=renames, columns=columns)
