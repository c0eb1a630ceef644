"""Table content understanding: sufficiency estimation, iterative focus-table
re-construction, and verbalization into a natural-language description."""

from __future__ import annotations

from . import gateway as gw
from .normalize import NormalizedTable
from .sqlrows import RowSet
from .structure import TableOfFocus, construct_focus
from .trace import ReasoningTrace


def estimate_information(focus: TableOfFocus, question: str, lm: gw.Gateway, trace: ReasoningTrace) -> bool:
    """Ask whether the focus table suffices; unparseable replies default to sufficient.

    The optimistic default is deliberate: a spurious "insufficient" inflates the
    reconstruction count, while a spurious "sufficient" is recoverable by the
    full-table retry at reasoning time.
    """
    reply = lm.complete("information_estimation", {"table": focus.markdown, "question": question}, trace)
    try:
        return gw.parse_bool(reply)
    except gw.UnparseableReply:
        trace.warn("sufficiency reply unparseable; defaulted to sufficient")
        return True


def reconstruct_focus(
    table: NormalizedTable,
    question: str,
    rows: RowSet,
    initial_columns: tuple[str, ...],
    ranked: tuple[str, ...],
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> TableOfFocus:
    """Grow the focus column set until a sufficiency check passes or candidates run out.

    The row set is frozen; candidate columns are appended in ranked order, one
    per iteration, with one sufficiency estimation before each append. The
    reconstruction count is the number of columns added.
    """
    if not initial_columns:
        raise ValueError("initial column set must be non-empty")
    candidates = [c for c in ranked if c not in initial_columns]
    columns = list(initial_columns)
    while True:
        focus = construct_focus(table, rows, columns, reconstruction_count=len(columns) - len(initial_columns))
        if estimate_information(focus, question, lm, trace) or not candidates:
            return focus
        columns.append(candidates.pop(0))


def verbalize(focus: TableOfFocus, lm: gw.Gateway, trace: ReasoningTrace) -> str:
    """Model description of the focus table; empty replies get a mechanical fallback."""
    text = lm.complete("verbalization", {"table": focus.markdown}, trace).strip()
    if not text:
        text = mechanical_description(focus)
        trace.warn("empty verbalization reply; used the mechanical fallback description")
    return text


def mechanical_description(focus: TableOfFocus) -> str:
    """Deterministic fallback: "Row i: header=value; ..." per row."""
    parts = []
    for i, row in enumerate(focus.table.rows):
        cells = "; ".join(f"{h}={c}" for h, c in zip(focus.table.headers, row))
        parts.append(f"Row {i + 1}: {cells}.")
    if not parts:
        return "The table has columns " + ", ".join(focus.table.headers) + " and no rows."
    return " ".join(parts)
