"""Turn a wild table into a normalized one: orientation detection, column kind
inference, and canonicalization of numeric/date columns.

All functions are pure and best-effort: unparseable cells in a typed column are
left verbatim and flagged in provenance instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime

from .core import Table, transpose

KIND_THRESHOLD = 0.8
MIXED_THRESHOLD = 0.5

_CURRENCY = "$€£¥"
_INT_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})*$|^[+-]?\d+$")
_DEC_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})*\.\d+$|^[+-]?\d+\.\d+$|^[+-]?\.\d+$")

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
_ASCII_DATES = {
    f"f{i}": (i, re.compile(_date_pattern(fmt, _ASCII_DIRECTIVES, r"[ \t\n\r\f\v]+")))
    for i, fmt in enumerate(_DATE_FORMATS)
}


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


@dataclass(frozen=True)
class NormalizedTable:
    table: Table
    column_kinds: tuple[ColumnKind, ...]
    transposed: bool
    provenance: tuple[tuple[str, ...], ...]  # per-column notes

    def __post_init__(self) -> None:
        if len(self.column_kinds) != self.table.column_count:
            raise ValueError("one ColumnKind per column required")


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


class _Parses(dict):
    """Memo for one call: cell -> its (integer, decimal, date) canonical forms,
    None where the cell does not parse as that kind. ``months`` maps each
    month word seen to its month number, or None when it names no month."""

    def __init__(self) -> None:
        super().__init__()
        self.months: dict[str, int | None] = {}

    def __missing__(self, cell: str) -> tuple[str | None, str | None, str | None]:
        s = cell.strip()
        number = s
        while number and number[0] in _CURRENCY:
            number = number[1:].strip()
        # No date shape fits a number, currency sign or not, so numbers skip the date parse.
        if number and _INT_RE.match(number):
            integer = str(int(number.replace(",", "")))
            parsed = (integer, integer, None)
        elif number and _DEC_RE.match(number):
            parsed = (None, number.replace(",", ""), None)
        else:
            parsed = (None, None, self._date(s))
        self[cell] = parsed
        return parsed

    def _date(self, s: str) -> str | None:
        shape = _ANY_DATE_SHAPE.fullmatch(s)
        if shape is None:
            return None
        first, ascii_date = _ASCII_DATES[shape.lastgroup]
        fields = ascii_date.fullmatch(s)
        if fields is not None:
            parts = fields.groupdict()
            word = parts.get("b")
            if word is None:
                month = int(parts["m"])
            elif word in self.months:
                month = self.months[word]
            else:
                month = self.months[word] = _month_number(word)
            if "Y" in parts:
                year = int(parts["Y"])
            else:
                year = int(parts["y"])
                year += 2000 if year <= 68 else 1900  # strptime's %y pivot
            if month is not None:
                try:
                    return date(year, month, int(parts["d"])).isoformat()
                except ValueError:
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


def _counts(cells: list[str], parses: _Parses) -> list[int]:
    """A column's tally: how many of its cells parse as each kind of ``_KINDS``."""
    parsed = [parses[cell] for cell in cells]
    return [sum(1 for p in parsed if p[k] is not None) for k in range(len(_KINDS))]


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


def _scored(table: Table, parses: _Parses) -> tuple[float, list[list[int]]]:
    """The table's homogeneity, and the tally of each of its columns.

    Homogeneity is the fraction of columns whose data cells share one inferred
    primitive type: every cell parses as the same primitive (ratio 1.0) or no
    cell parses as any primitive (pure text, ratio 0.0).
    """
    tallies = [_counts(table.column(j), parses) for j in range(table.column_count)]
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
    score_row, _ = _scored(table, parses)
    score_col, _ = _scored(transpose(table), parses)
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
    are flagged in the per-column provenance. Each distinct cell is parsed once,
    and each column of each orientation scored is tallied once.
    """
    parses = _Parses()
    work, transposed = table, False
    score_row, tallies = _scored(table, parses)
    # As in ``detect_orientation``; a row score of 1.0 skips the transpose,
    # which can at best tie, and ties read row_major.
    if score_row < 1.0 and not _too_small(table):
        flipped = transpose(table)
        score_col, flipped_tallies = _scored(flipped, parses)
        if score_col > score_row:
            work, tallies, transposed = flipped, flipped_tallies, True
    # Renaming headers leaves the data cells, and so the tallies, as they are.
    work, renames = _unique_headers(work)

    kinds: list[ColumnKind] = []
    provenance: list[tuple[str, ...]] = []
    columns: list[list[str]] = []
    for j, counts in enumerate(tallies):
        cells = work.column(j)
        kind = _kind(counts, work.row_count)
        kinds.append(kind)
        notes = list(renames[j])
        if kind.kind in _KINDS:
            k = _KINDS.index(kind.kind)
            out = [parses[cell][k] for cell in cells]
            for i, cell in enumerate(cells):
                if out[i] is None:
                    notes.append(f"row {i + 1}: kept verbatim (not parseable as {kind.kind})")
                    out[i] = cell
                elif out[i] != cell:
                    notes.append(f"row {i + 1}: {cell!r} -> {out[i]!r}")
            cells = out
        columns.append(cells)
        provenance.append(tuple(notes))

    return NormalizedTable(
        table=Table.make(work.headers, zip(*columns)),
        column_kinds=tuple(kinds),
        transposed=transposed,
        provenance=tuple(provenance),
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
        provenance=renames,
    )
