"""Canonical table data model plus the structural operators everything else builds on.

Tables are immutable values: every operation returns a new ``Table`` and never
mutates its input, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence


class ParseError(ValueError):
    """Raised when raw text cannot be parsed into a rectangular table."""


class TransposeError(ValueError):
    """Raised when a table has no rows to promote into a header."""


@dataclass(frozen=True)
class Table:
    """A rectangular grid of text cells with a single header row."""

    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.headers:
            raise ValueError("table must have at least one header")
        n = len(self.headers)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} cells, expected {n}")

    @classmethod
    def make(cls, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> "Table":
        return cls(
            headers=tuple(str(h) for h in headers),
            rows=tuple(tuple(str(c) for c in row) for row in rows),
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        return len(self.headers)

    def column(self, index: int) -> list[str]:
        """Data cells of one column, top to bottom (header excluded)."""
        return [row[index] for row in self.rows]


@dataclass(frozen=True)
class SizeMetrics:
    row_count: int
    column_count: int
    area: int
    token_estimate: int

    def __post_init__(self) -> None:
        if min(self.row_count, self.column_count, self.area, self.token_estimate) < 0:
            raise ValueError("size metrics must be non-negative")
        if self.area != self.row_count * self.column_count:
            raise ValueError("area must equal row_count * column_count")


@dataclass(frozen=True)
class CellSelection:
    """Ordered, unique, in-bounds row and column index sets."""

    row_indices: tuple[int, ...]
    column_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, indices in (("row", self.row_indices), ("column", self.column_indices)):
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"{name} indices must be unique and sorted ascending")
            if indices and indices[0] < 0:
                raise ValueError(f"{name} indices must be non-negative")


def _split_markdown_row(line: str) -> list[str]:
    line = line.strip()
    if line.startswith("|"):
        line = line[1:]
    if line.endswith("|") and not line.endswith("\\|"):
        line = line[:-1]
    cells: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in line:
        if escaped:
            current.append(ch if ch == "|" else "\\" + ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "|":
            cells.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if escaped:
        current.append("\\")
    cells.append("".join(current).strip())
    return cells


def _is_separator_row(cells: list[str]) -> bool:
    return all(set(c) <= set(":- ") and "-" in c for c in cells if c) and any(cells)


def _parse_markdown(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("no table lines found")
    if not any("|" in ln for ln in lines):
        raise ParseError("markdown table must contain pipe delimiters")
    headers = _split_markdown_row(lines[0])
    body = lines[1:]
    if body and _is_separator_row(_split_markdown_row(body[0])):
        body = body[1:]
    rows = [_split_markdown_row(ln) for ln in body]
    return headers, rows


def _parse_delimited(text: str, delimiter: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    records = [row for row in reader if row]
    if not records:
        raise ParseError("no records found")
    return records[0], records[1:]


def _parse_jsonl_table(text: str) -> tuple[list[str], list[list[str]]]:
    try:
        obj = json.loads(text.strip().splitlines()[0]) if text.strip() else None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid jsonl-table JSON: {exc}") from exc
    if not isinstance(obj, dict) or "header" not in obj or "rows" not in obj:
        raise ParseError('jsonl-table object must have "header" and "rows" keys')
    headers = [str(h) for h in obj["header"]]
    rows = [[str(c) for c in row] for row in obj["rows"]]
    return headers, rows


_PARSERS: dict[str, Callable[[str], tuple[list[str], list[list[str]]]]] = {
    "markdown": _parse_markdown,
    "csv": lambda t: _parse_delimited(t, ","),
    "tsv": lambda t: _parse_delimited(t, "\t"),
    "jsonl-table": _parse_jsonl_table,
}


def parse_table(text: str, format: str = "markdown", strict: bool = False) -> Table:
    """Parse raw text into a rectangular ``Table``.

    Lenient mode right-pads short rows with empty cells and truncates long
    ones; strict mode rejects ragged input.
    """
    if not text or not text.strip():
        raise ParseError("input text is empty")
    if format not in _PARSERS:
        raise ParseError(f"unknown table format: {format!r}")
    headers, rows = _PARSERS[format](text)
    headers = [h.strip() for h in headers]
    if not headers or all(not h for h in headers):
        raise ParseError("empty header row")
    n = len(headers)
    fixed: list[list[str]] = []
    for i, row in enumerate(rows):
        if len(row) != n:
            if strict:
                raise ParseError(f"ragged row {i}: {len(row)} cells, expected {n}")
            row = (list(row) + [""] * n)[:n]
        fixed.append([str(c) for c in row])
    return Table.make(headers, fixed)


def _escape_cell(cell: str) -> str:
    return cell.replace("|", "\\|").replace("\n", " ")


def render_markdown(table: Table) -> str:
    """Render canonical pipe-delimited markdown with a single space around pipes."""
    lines = ["| " + " | ".join(_escape_cell(h) for h in table.headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in table.headers) + " |")
    for row in table.rows:
        lines.append("| " + " | ".join(_escape_cell(c) for c in row) + " |")
    return "\n".join(lines)


def transpose(table: Table) -> Table:
    """Swap rows and columns, promoting the first column to the header row.

    The original ``headers[0]`` is kept as the corner cell so that
    ``transpose(transpose(t)) == t`` for any table with at least one row.
    """
    if table.row_count == 0:
        raise TransposeError("cannot transpose a table with no rows")
    new_headers = [table.headers[0]] + [row[0] for row in table.rows]
    new_rows = []
    for j in range(1, table.column_count):
        new_rows.append([table.headers[j]] + [row[j] for row in table.rows])
    return Table.make(new_headers, new_rows)


def peek(table: Table, k: int) -> Table:
    """Truncate to the first ``k`` data rows; the header row is metadata and never counted."""
    if k < 0:
        raise ValueError("peek size must be non-negative")
    if k >= table.row_count:
        return table
    return Table.make(table.headers, table.rows[:k])


def project(table: Table, selection: CellSelection) -> Table:
    """Restrict to the selected rows/columns, preserving original relative order."""
    for r in selection.row_indices:
        if r >= table.row_count:
            raise IndexError(f"row index {r} out of bounds for {table.row_count} rows")
    for c in selection.column_indices:
        if c >= table.column_count:
            raise IndexError(f"column index {c} out of bounds for {table.column_count} columns")
    headers = [table.headers[c] for c in selection.column_indices]
    rows = [[table.rows[r][c] for c in selection.column_indices] for r in selection.row_indices]
    return Table.make(headers, rows)


def heuristic_token_count(text: str) -> int:
    """Cheap token estimate: ceil(character count / 4)."""
    return math.ceil(len(text) / 4)


def measure(table: Table) -> SizeMetrics:
    """Size metrics over the canonical markdown rendering."""
    m, n = table.row_count, table.column_count
    return SizeMetrics(
        row_count=m,
        column_count=n,
        area=m * n,
        token_estimate=heuristic_token_count(render_markdown(table)),
    )
