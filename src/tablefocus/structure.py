"""Table structure understanding: header/key-column extraction, column ranking
and selection, SQL row lookup, and construction of the initial focus table.

Every model-reply repair here is a silent degrade with a trace warning, never a
hard failure: the pipeline must produce an answer for every instance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import gateway as gw
from .core import Table, render_markdown
from .normalize import NormalizedTable
from .sqlrows import AggregateOnly, RowSet, SqlError, SqlSchema, execute_row_lookup
from .trace import ReasoningTrace

DEFAULT_PEEK_SIZE = 25
DEFAULT_B_MAX = 6


@dataclass(frozen=True)
class TableOfFocus:
    table: Table
    markdown: str  # the rendering every focus prompt sends
    reconstruction_count: int
    condensation_ratio: float


def peek_markdown(table: NormalizedTable, k: int) -> str:
    """The first ``k`` rows as markdown: the view every structure prompt sends."""
    if k < 1:
        raise ValueError("peek size must be >= 1")
    return render_markdown(table.view(range(min(k, table.table.row_count)), range(table.table.column_count)))


def extract_structure(table: NormalizedTable, peek_md: str, lm: gw.Gateway, trace: ReasoningTrace) -> str:
    """The key column: named by the model, validated against the table's headers
    and repaired to the first header if invalid."""
    headers = table.table.headers
    reply = lm.complete("structure_extraction", {"table": peek_md}, trace)
    match = re.search(r"key\s*column\s*[:\-]\s*(.+)", reply, re.IGNORECASE)
    candidate = (match.group(1) if match else reply).strip().strip("\"'`.")
    lowered = {h.lower(): h for h in headers}
    key = lowered.get(candidate.lower())
    if key is None:
        for header in headers:
            if header.lower() in candidate.lower():
                key = header
                break
    if key is None:
        key = headers[0]
        trace.warn(f"key column reply {candidate!r} names no header; repaired to {key!r}")
    return key


def rank_columns(
    table: NormalizedTable,
    question: str,
    peek_md: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> tuple[str, ...]:
    """Model-provided relevance order, repaired into a true permutation of the headers."""
    headers = table.table.headers
    reply = lm.complete(
        "column_ranking",
        {"table": peek_md, "headers": ", ".join(headers), "question": question},
        trace,
    )
    try:
        items, dropped = gw.parse_delimited_list(reply, expected_universe=headers)
    except gw.EmptyList:
        trace.warn("column ranking reply unparseable; fell back to original header order")
        return tuple(headers)
    if dropped:
        trace.warn(f"column ranking dropped unknown items: {dropped}")
    # Repair omissions by appending them in original order.
    return tuple(items) + tuple(h for h in headers if h not in items)


def column_lookup(
    ranked: tuple[str, ...],
    question: str,
    b_max: int,
    lm: gw.Gateway,
    peek_md: str,
    trace: ReasoningTrace,
    key_column: str,
) -> tuple[str, ...]:
    """Select the initial focus columns, capped at b_max, never empty, key included."""
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    reply = lm.complete(
        "column_lookup",
        {"table": peek_md, "headers": ", ".join(ranked), "question": question},
        trace,
    )
    try:
        items, dropped = gw.parse_delimited_list(reply, expected_universe=ranked)
    except gw.EmptyList:
        trace.warn("column lookup reply unparseable; fell back to the top-ranked column")
        items, dropped = [ranked[0]], []
    if dropped:
        trace.warn(f"column lookup dropped unknown items: {dropped}")
    selected = tuple(items[:b_max])
    return selected if key_column in selected else selected + (key_column,)


def row_lookup(
    table: NormalizedTable,
    question: str,
    lm: gw.Gateway,
    peek_md: str,
    schema: SqlSchema,
    trace: ReasoningTrace,
) -> RowSet:
    """Generate and execute row-filtering SQL; every failure degrades to all rows.

    The prompt shows only a peek of the table, but the SQL executes against
    the full normalized table (``schema``) so the row set covers all rows.
    """
    reply = lm.complete(
        "row_lookup_sql",
        {"table": peek_md, "schema": schema.describe(), "question": question},
        trace,
    )
    sql = gw.extract_code_block(reply).strip()
    try:
        return execute_row_lookup(table, sql, schema=schema)
    except AggregateOnly:
        trace.warn("row lookup SQL is aggregate-only; selected all rows")
    except SqlError as exc:
        trace.warn(f"row lookup SQL failed ({type(exc).__name__}: {exc}); selected all rows")
    return RowSet(indices=tuple(range(table.table.row_count)))


def construct_focus(
    table: NormalizedTable,
    rows: RowSet,
    columns: list[str] | tuple[str, ...],
    reconstruction_count: int = 0,
) -> TableOfFocus:
    """Project the normalized table onto (rows, columns) in original order, by
    ``NormalizedTable.view``; ``rows`` ascend, so two indices bound them."""
    if not columns:
        raise ValueError("focus requires at least one column")
    header_index = {h: j for j, h in enumerate(table.table.headers)}
    unknown = [c for c in columns if c not in header_index]
    if unknown:
        raise IndexError(f"columns not present in table: {unknown}")
    indices, m = rows.indices, table.table.row_count
    if indices and not 0 <= indices[0] <= indices[-1] < m:
        raise IndexError(f"row indices {indices[0]} to {indices[-1]} out of bounds for {m} rows")
    focus_table = table.view(indices, sorted(header_index[c] for c in columns))
    area_full = table.table.row_count * table.table.column_count
    area_focus = focus_table.row_count * focus_table.column_count
    ratio = area_focus / area_full if area_full > 0 else 1.0
    return TableOfFocus(
        table=focus_table,
        markdown=render_markdown(focus_table),
        reconstruction_count=reconstruction_count,
        condensation_ratio=ratio,
    )
