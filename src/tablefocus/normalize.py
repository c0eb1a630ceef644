"""Turn a wild table into a normalized one: orientation detection, column kind
inference, and canonicalization of numeric/date columns.

All functions are pure and best-effort: unparseable cells in a typed column are
left verbatim and flagged in provenance instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime

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


def _strip_numeric(cell: str) -> str:
    cell = cell.strip()
    while cell and cell[0] in _CURRENCY:
        cell = cell[1:].strip()
    return cell


def parse_integer(cell: str) -> str | None:
    """Canonical integer form of a cell, or None if it is not an integer."""
    s = _strip_numeric(cell)
    if not s or not _INT_RE.match(s):
        return None
    return str(int(s.replace(",", "")))


def parse_decimal(cell: str) -> str | None:
    s = _strip_numeric(cell)
    if not s:
        return None
    if _INT_RE.match(s):
        return str(int(s.replace(",", "")))
    if _DEC_RE.match(s):
        return s.replace(",", "")
    return None


def parse_date(cell: str) -> str | None:
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


_PRIMITIVES = (
    ("integer", parse_integer),
    ("decimal", parse_decimal),
    ("date", parse_date),
)


def infer_column_kind(cells: list[str]) -> ColumnKind:
    """Pick the primitive kind whose parse ratio clears the 0.8 threshold.

    A best ratio in [0.5, 0.8) yields ``mixed``; anything lower is ``text``.
    The inference is invariant under canonicalization: canonical forms parse
    back to the same kind, which keeps normalization idempotent.
    """
    if not cells:
        raise ValueError("cannot infer kind of an empty column")
    ratios = {}
    for kind, parser in _PRIMITIVES:
        ratios[kind] = sum(1 for c in cells if parser(c) is not None) / len(cells)
    best_kind = max(ratios, key=lambda k: (ratios[k], -_kind_rank(k)))
    best = ratios[best_kind]
    if best >= KIND_THRESHOLD:
        return ColumnKind(kind=best_kind, parse_ratio=best)
    if best >= MIXED_THRESHOLD:
        return ColumnKind(kind="mixed", parse_ratio=best)
    return ColumnKind(kind="text", parse_ratio=best)


def _kind_rank(kind: str) -> int:
    # Tie-break toward the most specific primitive (integers also parse as decimals).
    return {"integer": 0, "decimal": 1, "date": 2}[kind]


def _homogeneity(table: Table) -> float:
    """Fraction of columns whose data cells share one inferred primitive type.

    A column counts as homogeneous when every cell parses as the same primitive
    (ratio 1.0) or no cell parses as any primitive (pure text, ratio 0.0).
    """
    if table.row_count == 0 or table.column_count == 0:
        return 0.0
    homogeneous = 0
    for j in range(table.column_count):
        best = max(
            sum(1 for c in table.column(j) if parser(c) is not None) / table.row_count
            for _, parser in _PRIMITIVES
        )
        if best in (0.0, 1.0):
            homogeneous += 1
    return homogeneous / table.column_count


def detect_orientation(table: Table) -> Orientation:
    """Compare column-type homogeneity of the table against its transpose.

    Ties (and tables too small to judge) default to row_major. Confidence is
    0.5 plus half the score margin, so a tie reads as maximal uncertainty.
    """
    if table.row_count < 1 or table.column_count < 2:
        return Orientation(value="row_major", confidence=0.5)
    score_row = _homogeneity(table)
    score_col = _homogeneity(transpose(table))
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
    return Table.make(headers, table.rows, name=table.name), tuple(notes)


_CANONICALIZERS = {
    "integer": parse_integer,
    "decimal": parse_decimal,
    "date": parse_date,
}


def normalize(table: Table) -> NormalizedTable:
    """Produce the normalized table: orientation fixed, typed columns canonicalized.

    Total and idempotent; unparseable cells in a typed column stay verbatim and
    are flagged in the per-column provenance.
    """
    orientation = detect_orientation(table)
    transposed = orientation.value == "column_major"
    work, renames = _unique_headers(transpose(table) if transposed else table)

    kinds: list[ColumnKind] = []
    provenance: list[tuple[str, ...]] = []
    columns: list[list[str]] = []
    for j in range(work.column_count):
        cells = work.column(j)
        if not cells:
            kinds.append(ColumnKind(kind="text", parse_ratio=0.0))
            provenance.append(renames[j])
            columns.append(cells)
            continue
        kind = infer_column_kind(cells)
        kinds.append(kind)
        notes = list(renames[j])
        if kind.kind in _CANONICALIZERS:
            canonicalizer = _CANONICALIZERS[kind.kind]
            out: list[str] = []
            for i, cell in enumerate(cells):
                canonical = canonicalizer(cell)
                if canonical is None:
                    notes.append(f"row {i + 1}: kept verbatim (not parseable as {kind.kind})")
                    out.append(cell)
                else:
                    if canonical != cell:
                        notes.append(f"row {i + 1}: {cell!r} -> {canonical!r}")
                    out.append(canonical)
            columns.append(out)
        else:
            columns.append(list(cells))
        provenance.append(tuple(notes))

    rows = [[columns[j][i] for j in range(work.column_count)] for i in range(work.row_count)]
    return NormalizedTable(
        table=Table.make(work.headers, rows, name=work.name),
        column_kinds=tuple(kinds),
        transposed=transposed,
        provenance=tuple(provenance),
    )


def skip_normalization(table: Table) -> NormalizedTable:
    """Wrap an already-clean table without touching it (benchmark bypass),
    apart from renaming repeated headers."""
    table, renames = _unique_headers(table)
    kinds = tuple(
        infer_column_kind(table.column(j)) if table.row_count else ColumnKind("text", 0.0)
        for j in range(table.column_count)
    )
    return NormalizedTable(
        table=table,
        column_kinds=kinds,
        transposed=False,
        provenance=renames,
    )
