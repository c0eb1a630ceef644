"""Turn a wild table into a normalized one: orientation detection, column kind
inference, and canonicalization of numeric/date columns.

All functions are pure and best-effort: unparseable cells in a typed column are
left verbatim and flagged in provenance instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from itertools import islice, repeat, takewhile
from operator import not_
from typing import Callable, Iterable

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
_INT = r"[+-]?(?:\d{1,3}(?:,\d{3})*|\d+)"
_DEC = r"[+-]?(?:\d{1,3}(?:,\d{3})*\.\d+|\d+\.\d+|\.\d+)"
_IS_INT = re.compile(_INT).fullmatch
_IS_DEC = re.compile(_DEC).fullmatch
_IS_NUMBER = re.compile(f"{_INT}|{_DEC}").fullmatch

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
# Every shape holds a "-", "/" or "," or two whitespace runs, so a cell without
# them skips the shape union, which is slow to reject a plain word.
_MAY_BE_DATE = re.compile(r"[-/,]|\s.*\s").search


def _ascii_date(i: int, fmt: str) -> tuple[int, re.Pattern, tuple]:
    """Format ``i``, its ASCII pattern and where the pattern's groups() hold
    the year, the month and the day. No string this pattern fullmatches fits
    an earlier format's shape, so ``_ANY_DATE_SHAPE`` names format ``i``, or
    a twin with the same shape and pattern, first for each of them."""
    pattern = re.compile(_date_pattern(fmt, _ASCII_DIRECTIVES, r"[ \t\n\r\f\v]+"))
    at = {name: number - 1 for name, number in pattern.groupindex.items()}
    return i, pattern, (at.get("Y", at.get("y")), at.get("m", at.get("b")), at["d"], "y" in at, "b" in at)


_ASCII_DATES = {f"f{i}": _ascii_date(i, fmt) for i, fmt in enumerate(_DATE_FORMATS)}


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

    def __post_init__(self) -> None:
        if len(self.column_kinds) != self.table.column_count:
            raise ValueError("one ColumnKind per column required")

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
                k = _KINDS.index(kind.kind)
                for i, cell in enumerate(self.source.column(j)):
                    parsed = parses[cell][k]
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


def parse_integer(cell: str) -> str | None:
    """Canonical integer form of a cell, or None if it is not an integer."""
    return _Parses()[cell][0]


def parse_decimal(cell: str) -> str | None:
    return _Parses()[cell][1]


def parse_date(cell: str) -> str | None:
    """ISO-8601 form of a date cell, or None."""
    return _Parses()[cell][2]


# The order of the parsed forms; on a tie the earlier, more specific kind wins
# (integers also parse as decimals).
_KINDS = ("integer", "decimal", "date")


def _misses(hits: Iterable[object]) -> int:
    """How many items of ``hits`` are falsy before the first truthy one."""
    return len(list(takewhile(not_, hits)))


class _Parses(dict):
    """Memo for one call: cell -> its (integer, decimal, date) canonical forms,
    None where the cell does not parse as that kind. ``months`` maps each
    month word seen to its month number, or None when it names no month.

    ``__missing__`` classifies one cell and is the reference; ``classify``
    settles a column's cells in one pass where they share one form."""

    def __init__(self) -> None:
        super().__init__()
        self.months: dict[str, int | None] = {}

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

    def classify(self, cells: list[str]) -> bool:
        """Settle the distinct cells of a column that are new to the memo. The
        first goes through ``__missing__``; one check for its form then settles
        the cells after it in bulk, up to the first of another form, which is
        left to ``__missing__`` with the cells after it. The forms: integers,
        decimals, no form (no number, and nothing every date shape holds), or
        dates in the first cell's format in ASCII form.

        Returns whether every distinct cell was new and now shares the first
        cell's form."""
        distinct = dict.fromkeys(cells)
        new = [cell for cell in distinct if cell not in self]
        if not new:
            return False
        integer, decimal, dated = self.__missing__(new[0])
        rest = new[1:]
        if dated is not None:
            settled = self._dates(rest, new[0].strip())
        elif decimal is None:
            # The number test is the cheaper, so it runs first and bounds the date test.
            stripped = list(map(str.strip, rest))
            settled = _misses(map(_IS_NUMBER, map(str.lstrip, stripped, repeat(_NUMBER_LEAD))))
            settled = _misses(map(_MAY_BE_DATE, islice(stripped, settled)))
            self.update(zip(rest, repeat((None, None, None), settled)))
        elif integer is not None:
            numbers = takewhile(_IS_INT, map(str.lstrip, map(str.strip, rest), repeat(_NUMBER_LEAD)))
            integers = [str(int(number.replace(",", ""))) for number in numbers]
            settled = len(integers)
            self.update(zip(rest, zip(integers, integers, repeat(None))))
        else:
            numbers = takewhile(_IS_DEC, map(str.lstrip, map(str.strip, rest), repeat(_NUMBER_LEAD)))
            decimals = [number.replace(",", "") for number in numbers]
            settled = len(decimals)
            self.update(zip(rest, zip(repeat(None), decimals, repeat(None))))
        return settled == len(rest) and len(new) == len(distinct)

    def _dates(self, rest: list[str], first: str) -> int:
        """Settle the cells of ``rest`` that fullmatch the format of the date
        ``first`` in ASCII form and name a real date, up to the first that
        does not, and return how many were settled. None of them is a
        number: every format puts a "-", "/" or letters between two fields."""
        _, ascii_date, layout = _ASCII_DATES[_ANY_DATE_SHAPE.fullmatch(first).lastgroup]
        dates = []
        for fields in map(ascii_date.fullmatch, map(str.strip, rest)):
            built = None if fields is None else self._built(fields.groups(), layout)
            if built is None:
                break
            dates.append(built)
        self.update(zip(rest, zip(repeat(None), repeat(None), dates)))
        return len(dates)

    def _built(self, fields: tuple[str, ...], layout: tuple) -> str | None:
        """The ISO date that an ASCII date match's ``fields`` name, or None when
        its word names no month or the date does not exist."""
        year_at, month_at, day_at, two_digit, word = layout
        year = int(fields[year_at])
        if two_digit:
            year += 2000 if year <= 68 else 1900  # strptime's %y pivot
        if word:
            name = fields[month_at]
            if name not in self.months:
                self.months[name] = _month_number(name)
            month = self.months[name]
            if month is None:
                return None
        else:
            month = int(fields[month_at])
        try:
            return date(year, month, int(fields[day_at])).isoformat()
        except ValueError:
            return None

    def _date(self, s: str) -> str | None:
        shape = _ANY_DATE_SHAPE.fullmatch(s) if _MAY_BE_DATE(s) else None
        if shape is None:
            return None
        first, ascii_date, layout = _ASCII_DATES[shape.lastgroup]
        fields = ascii_date.fullmatch(s)
        if fields is not None and (built := self._built(fields.groups(), layout)) is not None:
            return built
        # No earlier format's shape fits, so strptime starts at the first that does.
        for fmt, shape in _DATE_SHAPES[first:]:
            if not shape.fullmatch(s):
                continue
            try:
                return datetime.strptime(s, fmt).date().isoformat()
            except ValueError:
                continue
        return None


def _month_number(word: str) -> int | None:
    """The month ``word`` names as strptime reads it: abbreviated, else in full.

    Each %B format follows its %b twin, whose shape is the same, so strptime
    also tries the abbreviation first."""
    for directive in ("%b", "%B"):
        try:
            return datetime.strptime(word, directive).month
        except ValueError:
            continue
    return None


def _tally(cells: list[str], parses: _Parses) -> list[int]:
    """A column's tally: how many of its cells parse as each kind of ``_KINDS``."""
    forms = zip(*[parses[cell] for cell in cells])
    return [len(cells) - form.count(None) for form in forms] if cells else [0] * len(_KINDS)


def _counts(cells: list[str], parses: _Parses) -> list[int]:
    """``_tally`` of a column that ``parses.classify`` settles first; a
    column whose cells it finds all of one form is tallied from its first."""
    if parses.classify(cells):
        return [len(cells) * (form is not None) for form in parses[cells[0]]]
    return _tally(cells, parses)


def _kind(counts: list[int], n: int) -> ColumnKind:
    """The kind of a column of ``n`` cells with tally ``counts``; a column
    without cells is text."""
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
    return _kind(_counts(cells, _Parses()), len(cells))


def _scored(
    table: Table, parses: _Parses, count: Callable[[list[str], _Parses], list[int]]
) -> tuple[float, list[list[int]]]:
    """The table's homogeneity, and the tally of each of its columns by
    ``count``. A transpose is scored by ``_tally``: its columns are short and
    hold cells already settled, so a column pass costs more than it saves.

    Homogeneity is the fraction of columns whose data cells share one inferred
    primitive type: every cell parses as the same primitive (ratio 1.0) or no
    cell parses as any primitive (pure text, ratio 0.0).
    """
    tallies = [count(table.column(j), parses) for j in range(table.column_count)]
    if table.row_count == 0:
        return 0.0, tallies
    homogeneous = sum(1 for counts in tallies if max(counts) in (0, table.row_count))
    return homogeneous / table.column_count, tallies


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
    score_row, _ = _scored(table, parses, _counts)
    score_col, _ = _scored(transpose(table), parses, _tally)
    confidence = 0.5 + abs(score_row - score_col) / 2.0
    value = "row_major" if score_row >= score_col else "column_major"
    return Orientation(value=value, confidence=confidence)


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
    Each distinct cell is parsed once, and each column of each orientation
    scored is tallied once.
    """
    parses = _Parses()
    work, transposed = table, False
    score_row, tallies = _scored(table, parses, _counts)
    # As in ``detect_orientation``; a row score of 1.0 skips the transpose,
    # which can at best tie, and ties read row_major.
    if score_row < 1.0 and not _too_small(table):
        flipped = transpose(table)
        score_col, flipped_tallies = _scored(flipped, parses, _tally)
        if score_col > score_row:
            work, tallies, transposed = flipped, flipped_tallies, True
    # Renaming headers leaves the data cells, and so the tallies, as they are.
    work, renames = _unique_headers(work)

    kinds: list[ColumnKind] = []
    columns: list[list[str]] = []
    for j, counts in enumerate(tallies):
        cells = work.column(j)
        kind = _kind(counts, work.row_count)
        kinds.append(kind)
        if kind.kind in _KINDS:
            k = _KINDS.index(kind.kind)
            cells = [cell if (parsed := parses[cell][k]) is None else parsed for cell in cells]
        columns.append(cells)

    return NormalizedTable(
        table=Table(work.headers, tuple(zip(*columns))),
        column_kinds=tuple(kinds),
        transposed=transposed,
        renames=renames,
        source=work,
    )


def skip_normalization(table: Table) -> NormalizedTable:
    """Wrap a table without touching it, apart from renaming repeated headers:
    the ``normalization=False`` ablation (``--no-normalize``)."""
    table, renames = _unique_headers(table)
    parses = _Parses()
    kinds = tuple(_kind(_counts(table.column(j), parses), table.row_count) for j in range(table.column_count))
    return NormalizedTable(
        table=table,
        column_kinds=kinds,
        transposed=False,
        renames=renames,
    )
