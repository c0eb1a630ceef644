"""Turn a wild table into a normalized one: orientation detection, column kind
inference, and canonicalization of numeric/date columns.

All functions are pure and best-effort: unparseable cells in a typed column are
left verbatim and flagged in provenance instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import cached_property, lru_cache, partial
from itertools import compress
from operator import itemgetter, not_
from typing import Callable, Sequence

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

# A cell's shape: its ASCII letters made "a" and its ASCII digits "0". The
# checks of ``__missing__`` before a date's values (``_IS_INT``, ``_IS_DEC``,
# ``_MAY_BE_DATE``, ``_ANY_DATE_SHAPE``) read where a cell's digits, letters,
# marks and spaces are, never which they are, so they answer alike per shape.
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_SHAPE = str.maketrans(_LETTERS + _LETTERS.upper() + "123456789", "a" * 52 + "0" * 9)
# Per format, the shapes of the cells its ASCII pattern fullmatches: each
# class of digits made "0", of letters "a". A cell of such a shape is in that
# ASCII form when ``_built`` finds its month and day in range.
_SHAPE_DIRECTIVES = {"%Y": "0000", "%y": "00", "%m": "00?", "%d": "(?:00?| 0)", "%b": "a+", "%B": "a+"}
_ASCII_SHAPES = {
    group: re.compile(_date_pattern(fmt, _SHAPE_DIRECTIVES, r"[ \t\n\r\f\v]+")).fullmatch
    for group, fmt in zip(_ASCII_DATES, _DATE_FORMATS)
}
# Each day or month field of an ASCII date in range, as two digits.
_DAYS = {field: f"{n:02d}" for n in range(1, 32) for field in (str(n), f"{n:02d}")}
_MONTHS = {field: two for field, two in _DAYS.items() if two <= "12"}
_EVERY_MONTH_DAYS = {field for field, two in _DAYS.items() if two <= "28"}
_CLASS_TALLIES = {"integer": (1, 1, 0), "decimal": (0, 1, 0), "none": (0, 0, 0)}  # per cell of a column of one class
# A column pass joins its cells with NULs, which no number or date holds, and
# reads their forms from one ``translate`` and ``split`` of that text.
_NUMBER_MARKS = str.maketrans("", "", _NUMBER_LEAD + ",")  # what a number's form drops
_DATE_MARKS = str.maketrans(dict.fromkeys("-/,\x00", " "))
# An integer's form differs from its text when it holds a non-ASCII digit, a
# "+", a leading zero or "-0"; this finds the last two.
_NOT_CANONICAL = re.compile(r"\x00(?:-0|0[0-9])").search


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
    """A normalized table, whose canonical cells are converted as stages read them (``columns``)."""

    table: Table
    column_kinds: tuple[ColumnKind, ...]
    transposed: bool
    renames: tuple[tuple[str, ...], ...]  # per-column header-rename notes
    # The cells before canonicalization, from which ``provenance`` is rebuilt;
    # None when nothing was canonicalized (``skip_normalization``).
    source: Table | None = None
    # The data cells column by column, which the row-lookup table, ``table`` and
    # ``view`` read: converted as read (``normalize``), or else from ``table``.
    columns: _Columns | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.column_kinds) != self.table.column_count:
            raise ValueError("one ColumnKind per column required")
        if self.columns is None:
            object.__setattr__(self, "columns", _Columns(self.table))

    def view(self, rows: Sequence[int], columns: Sequence[int]) -> Table:
        """``core.project`` of ``table`` onto ascending ``rows`` and ``columns``, read by ``columns.some``."""
        headers = tuple(map(self.table.headers.__getitem__, columns))
        return Table(headers, tuple(zip(*(self.columns.some(j, rows) for j in columns))))

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
    """Memo for one table: cell -> its (integer, decimal, date) canonical forms,
    None where the cell does not parse as that kind. ``shapes`` maps each
    shape seen to its class (``_shape_class``), and ``months`` each month word
    seen to its month as two digits, or None when it names none.

    ``__missing__`` classifies one cell and is the reference. ``tally``
    classifies each distinct shape once and converts each class's cells in
    bulk, into the memo where a column's shapes are of several classes."""

    def __init__(self) -> None:
        super().__init__()
        self.shapes: dict[str, str] = {}
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
        """``tally``, with the forms built."""
        counts, forms = self.tally(cells)
        return counts, forms()

    def tally(self, cells: Sequence[str]) -> tuple[list[int], Callable[[], tuple[list, list, list]]]:
        """A column's tally, how many of its cells parse as each kind of
        ``_KINDS``, and a call giving each kind's forms of its cells in order.

        The column is joined once, the cells apart by NULs, and one
        ``translate`` and ``split`` give each cell's shape. A column of one
        class (a date class if every date exists) is tallied by it and
        converted at once on the first call. Any other is converted now: each
        class at once into the memo, and the rest (dates outside the ASCII
        forms) one by one, as is a column in which some cell holds a NUL."""
        text = "\x00".join(cells)
        shapes = text.translate(_SHAPE).split("\x00")
        if len(shapes) == len(cells):  # no cell holds a NUL
            distinct = set(shapes)
            for shape in distinct.difference(self.shapes):
                self.shapes[shape] = _shape_class(shape)
            classes = set(map(self.shapes.__getitem__, distinct))
            if len(classes) == 1 and "cell" not in classes:
                group = classes.pop()
                fields = text.translate(_DATE_MARKS).split() if group in _ASCII_DATES else None
                if fields is None or self._exist(fields, _ASCII_DATES[group][2]):
                    forms = partial(self._forms, group, cells, text, fields)
                    return [len(cells) * one for one in _CLASS_TALLIES.get(group, (0, 0, 1))], forms
                forms = self._forms(group, cells, text, fields)
                return [len(cells) - out.count(None) for out in forms], lambda: forms
            of = list(map(self.shapes.__getitem__, shapes))
            for group in classes.difference(("cell",)):
                some = list(compress(cells, map(group.__eq__, of)))
                self.update(zip(some, zip(*self._forms(group, some, "\x00".join(some)))))
        forms = ([], [], [])
        for out, rest in zip(forms, zip(*map(self.__getitem__, cells))):
            out.extend(rest)
        return [len(cells) - out.count(None) for out in forms], lambda: forms

    def _forms(self, group: str, cells: list[str], text: str, fields: list | None = None) -> tuple[list, list, list]:
        """The forms of each kind of ``cells``, all of class ``group``, which
        ``text`` joins with NULs (and, for dates, ``fields`` splits)."""
        none = [None] * len(cells)
        if group == "none":
            return none, none, none
        if group in _ASCII_DATES:
            dates = self._built(fields or text.translate(_DATE_MARKS).split(), _ASCII_DATES[group][2])
            if None in dates:  # a cell whose fields name no date goes through the memo
                dates = [iso or self[cell][2] for cell, iso in zip(cells, dates)]
            return none, none, dates
        numbers = text.translate(_NUMBER_MARKS)
        run = numbers.split("\x00")
        if group == "decimal":
            return none, run, none
        if not numbers.isascii() or "+" in numbers or _NOT_CANONICAL("\x00" + numbers):
            run = list(map(str, map(int, run)))
        return run, run, none

    def _exist(self, fields: list[str], layout: tuple) -> bool:
        """Whether every date ``fields`` name (``_built``) exists: so if no
        day is past the 28th, no %Y year is 0000 and every month is named."""
        year_at, month_at, day_at, two_digit, word = layout
        months = set(fields[month_at::3])
        for name in months.difference(self.months) if word else ():
            self.months[name] = _month_number(name)
        named = self.months if word else _MONTHS
        days, years = fields[day_at::3], () if two_digit else fields[year_at::3]
        return all(map(named.get, months)) and _EVERY_MONTH_DAYS.issuperset(days) and "0000" not in years

    def _built(self, fields: list[str], layout: tuple) -> list[str | None]:
        """The ISO date each date names, from its ``fields`` in an ASCII
        format's shape, three a date in format order, or None where its month
        or day is out of range, its word names no month or its date does not
        exist."""
        year_at, month_at, day_at, two_digit, word = layout
        exist = self._exist(fields, layout)
        years, months, days = fields[year_at::3], fields[month_at::3], fields[day_at::3]
        numbers = self.months if word else _MONTHS
        pivoted = map(_PIVOT.__getitem__, years) if two_digit else years
        built = _each("-".join, zip(pivoted, map(numbers.get, months), map(_DAYS.get, days)))
        return built if exist else _each(date.isoformat, _each(date.fromisoformat, built))  # some may name no date

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


def _each(function, iterable) -> list:
    """``list(map(function, iterable))``, with None where ``function`` raises
    TypeError or ValueError: ``map`` and ``zip`` go on after a call raises."""
    out, results = [], map(function, iterable)
    while True:
        try:
            out.extend(results)  # keeps what came before the raise
            return out
        except (TypeError, ValueError):
            out.append(None)


def _shape_class(shape: str) -> str:
    """The class of the cells of ``shape``, read as ``__missing__`` reads a
    cell: "integer", "decimal", "none" (no form), the group in
    ``_ANY_DATE_SHAPE`` of the date format whose ASCII form it fits, or
    "cell" for a date outside the ASCII forms, which goes cell by cell."""
    s = shape.strip()
    number = s.lstrip(_NUMBER_LEAD)
    if _IS_INT(number):
        return "integer"
    if _IS_DEC(number):
        return "decimal"
    fit = _ANY_DATE_SHAPE.fullmatch(s) if _MAY_BE_DATE(s) else None
    if fit is None:
        return "none"
    return fit.lastgroup if _ASCII_SHAPES[fit.lastgroup](s) else "cell"


def _month_number(word: str) -> str | None:
    """The month ``word`` names as strptime reads it in the LC_TIME locale,
    as two digits."""
    import locale  # loaded on the first month word, as strptime loads it
    try:  # strptime raises ValueError too on a locale name getlocale cannot read
        return _month_in(word, locale.getlocale(locale.LC_TIME))
    except ValueError:
        return None


@lru_cache(maxsize=1024)
def _month_in(word: str, lang: tuple) -> str | None:
    """``_month_number`` in the LC_TIME locale ``lang``: each %B format
    follows its %b twin, whose shape is the same, so strptime also tries the
    abbreviation first. Kept across calls, since the answer depends only on
    the word and the locale, which ``_strptime`` checks for its own cache."""
    for directive in ("%b", "%B"):
        try:
            return f"{datetime.strptime(word, directive).month:02d}"
        except ValueError:
            continue
    return None


class _Columns(Sequence):
    """A table's canonical columns: ``columns[j]`` is converted on its first
    read and kept; ``some`` converts only the cells it reads, if no more than
    half. One table is read by one run, so its memo and columns take no lock."""

    def __init__(self, source: Table, cells: list | None = None, typed: list | None = None, parses=None) -> None:
        self.row_count, self.parses = source.row_count, _Parses() if parses is None else parses
        self.cells = cells or list(map(source.column, range(source.column_count)))  # as given
        self.typed = typed or [None] * len(self.cells)  # per typed column: its kind's index, tally and forms
        self.kept: list[Sequence[str] | None] = [None] * len(self.cells)

    def __len__(self) -> int:
        return len(self.kept)

    def __getitem__(self, j: int) -> Sequence[str]:
        if self.kept[j] is None:
            self.kept[j] = self._canonical(self.cells[j], self.typed[j])
        return self.kept[j]

    def some(self, j: int, rows: Sequence[int]) -> Sequence[str]:
        """The canonical cells of column ``j`` in ``rows``, ascending and in bounds."""
        if self.kept[j] is not None or 2 * len(rows) > self.row_count:  # most rows: convert the column once
            column = self[j]
            return column if len(rows) == len(column) else list(map(column.__getitem__, rows))
        cells, typed = list(map(self.cells[j].__getitem__, rows)), self.typed[j]
        return self._canonical(cells, typed and (typed[0], *self.parses.tally(cells)))

    @staticmethod
    def _canonical(cells: Sequence[str], typed: tuple | None) -> Sequence[str]:
        """``cells`` with each form of the kind that ``typed`` names made that form."""
        if not typed:
            return cells
        k, counts, forms = typed
        parsed = forms()[k]
        return parsed if counts[k] == len(cells) else [cell if p is None else p for cell, p in zip(cells, parsed)]


class _Rows(Sequence):
    """A table's rows, counted at once and zipped from its columns when first
    read; equal to, hashed and written as the tuple of them."""

    def __init__(self, columns: _Columns) -> None:
        self.columns = columns

    @cached_property
    def built(self) -> tuple[tuple[str, ...], ...]:
        return tuple(zip(*self.columns))

    def __len__(self) -> int:
        return self.columns.row_count

    def __getitem__(self, i):
        return self.built[i]

    def __iter__(self):
        return iter(self.built)

    def __eq__(self, other: object) -> bool:
        return self.built == other

    def __hash__(self) -> int:
        return hash(self.built)

    def __repr__(self) -> str:
        return repr(self.built)


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
    return _kind(_Parses().tally(cells)[0], len(cells))


def _score(columns: list[tuple[list[int], Callable]], rows: int) -> float:
    """The homogeneity of a table of ``rows`` rows with ``columns``: the
    fraction of columns whose data cells all parse as one primitive (ratio
    1.0) or none parses as any (pure text, ratio 0.0)."""
    if rows == 0:
        return 0.0
    return sum(max(counts) in (0, rows) for counts, _ in columns) / len(columns)


def _flipped_score(table: Table, columns: list[tuple[list[int], Callable]], parses: _Parses) -> float:
    """``_score`` of ``transpose(table)``, without building it, from the
    ``columns`` of ``table``. The transpose's first column is the headers
    after the first, and its column i + 1 is row i after the first cell, which is
    homogeneous when those cells are all numbers (they have a decimal form),
    all dates or all of no form. A kind some column lacks is not read."""
    headers, tallies = parses.tally(table.headers[1:])[0], [counts for counts, _ in columns[1:]]
    _, numbers, dates = zip(*(forms() for _, forms in columns[1:]))
    rows = sum(map(all, zip(*numbers))) if all(counts[1] for counts in tallies) else 0
    rows += sum(map(all, zip(*dates))) if all(counts[2] for counts in tallies) else 0
    if all(counts[1] + counts[2] < table.row_count for counts in tallies):
        rows += sum(map(not_, map(any, zip(*numbers, *dates))))
    return ((max(headers) in (0, table.column_count - 1)) + rows) / (table.row_count + 1)


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
    columns = [parses.tally(table.column(j)) for j in range(table.column_count)]
    score_row, score_col = _score(columns, table.row_count), _flipped_score(table, columns, parses)
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
    One pass per column classifies each distinct cell shape once and gives
    the tally the kind and orientation are read from; the transpose is scored
    from the columns' forms and built only when it wins. Canonical cells are
    converted only as a stage reads them (``NormalizedTable.columns``).
    """
    parses = _Parses()
    work, transposed = table, False
    cells = list(map(table.column, range(table.column_count)))
    columns = list(map(parses.tally, cells))
    score_row = _score(columns, table.row_count)
    # As in ``detect_orientation``; a row score of 1.0 skips the transpose,
    # which can at best tie, and ties read row_major. Its score reads each column's forms: build them once.
    if score_row < 1.0 and not _too_small(table):
        columns = [(counts, lambda forms=forms(): forms) for counts, forms in columns]
        if _flipped_score(table, columns, parses) > score_row:
            work, transposed = transpose(table), True
            cells = list(map(work.column, range(work.column_count)))
            columns = list(map(parses.tally, cells))
    # Renaming headers leaves the data cells, and so the columns' forms, as they are.
    work, renames = _unique_headers(work)
    kinds = tuple(_kind(counts, work.row_count) for counts, _ in columns)
    typed = [(_KINDS.index(kind.kind), *pass_) if kind.kind in _KINDS else None for kind, pass_ in zip(kinds, columns)]
    store = _Columns(work, cells, typed, parses)
    return NormalizedTable(Table(work.headers, _Rows(store)), kinds, transposed, renames, work, store)


def skip_normalization(table: Table) -> NormalizedTable:
    """Wrap a table without touching it, apart from renaming repeated headers:
    the ``normalization=False`` ablation (``--no-normalize``)."""
    table, renames = _unique_headers(table)
    store = _Columns(table)
    kinds = tuple(_kind(store.parses.tally(column)[0], table.row_count) for column in store.cells)
    return NormalizedTable(table, kinds, transposed=False, renames=renames, columns=store)
