"""Three-stage pipeline orchestration: structure understanding, content
understanding, then adaptive reasoning, with trace and cost accounting."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import gateway as gw
from .content import reconstruct_focus, verbalize
from .core import Table
from .normalize import NormalizedTable, normalize, skip_normalization
from .reasoning import Answer, ExecutorProfile, answer_adaptive
from .sqlrows import build_schema
from .structure import (
    DEFAULT_B_MAX,
    DEFAULT_PEEK_SIZE,
    column_lookup,
    extract_structure,
    peek_markdown,
    rank_columns,
    row_lookup,
)
from .trace import ReasoningTrace


@dataclass(frozen=True)
class PipelineConfig:
    peek_size: int = DEFAULT_PEEK_SIZE
    b_max: int = DEFAULT_B_MAX
    executor: ExecutorProfile = field(default_factory=ExecutorProfile)
    backend_mode: str = "replay"  # record | replay | passthrough
    cassette_path: str | None = None
    normalization: bool = True
    full_table_fallback: bool = True
    reasoning_table: str = "focus"  # focus | full

    def __post_init__(self) -> None:
        if self.peek_size < 1:
            raise ValueError("peek_size must be >= 1")
        if self.b_max < 1:
            raise ValueError("b_max must be >= 1")
        if self.backend_mode not in ("record", "replay", "passthrough"):
            raise ValueError(f"unknown backend mode: {self.backend_mode!r}")
        if self.reasoning_table not in ("focus", "full"):
            raise ValueError(f"unknown reasoning table source: {self.reasoning_table!r}")


def run_instance(
    table: Table,
    question: str,
    lm: gw.Gateway,
    config: PipelineConfig,
    task_kind: str = "qa",
) -> tuple[Answer, ReasoningTrace]:
    """Run the full pipeline on one (table, question) pair."""
    trace = ReasoningTrace()
    trace.config = {
        "peek_size": config.peek_size,
        "b_max": config.b_max,
        "backend_mode": config.backend_mode,
        "normalization": config.normalization,
        "full_table_fallback": config.full_table_fallback,
        "reasoning_table": config.reasoning_table,
        "task_kind": task_kind,
    }

    normalized: NormalizedTable = normalize(table) if config.normalization else skip_normalization(table)
    k = min(config.peek_size, max(normalized.table.row_count, 1))
    n = normalized.table.column_count

    peek_md = peek_markdown(normalized, config.peek_size)
    focus = None
    try:
        key_column = extract_structure(normalized, peek_md, lm, trace)
        ranked = rank_columns(normalized, question, peek_md, lm, trace)
        initial = column_lookup(ranked, question, config.b_max, lm, peek_md, trace, key_column)
        schema = build_schema(normalized)
        rows = row_lookup(normalized, question, lm, peek_md, schema, trace)
        focus = reconstruct_focus(normalized, question, rows, initial, ranked, lm, trace)
        description = verbalize(focus, lm, trace)

        answer, trace = answer_adaptive(
            normalized,
            focus,
            description,
            question,
            task_kind,
            lm,
            trace,
            profile=config.executor,
            full_table_fallback=config.full_table_fallback,
            reasoning_table=config.reasoning_table,
        )
    except gw.GatewayError as exc:
        # Backend misbehavior (cassette miss, transport failure) degrades to an
        # abstained answer; the CLI still exits 0 with a complete trace.
        trace.warn(f"pipeline degraded: {type(exc).__name__}: {exc}")
        answer = Answer(value="", task_kind=task_kind, abstained=True)
        trace.answer = asdict(answer)

    a = focus.table.row_count if focus is not None else 0
    b = focus.table.column_count if focus is not None else 0
    e = focus.reconstruction_count if focus is not None else 0
    trace.cost_parameters = {"k": float(k), "n": float(n), "e": float(e), "a": float(a), "b": float(b)}
    trace.add_cost("structure_extraction", k * n)
    trace.add_cost("row_lookup", k * n)
    trace.add_cost("column_lookup", n)
    trace.add_cost("reconstruction", e * a * b)
    trace.add_cost("verbalization", a * b)
    trace.add_cost("strategy_assessment", a * b)
    # The reasoning weight is chosen so the tally telescopes to the closed-form
    # total (2k + 1) * n + (e + 2.5) * (a * b).
    trace.add_cost("reasoning", 0.5 * a * b)
    trace.condensation_ratio = focus.condensation_ratio if focus is not None else None
    return answer, trace


def build_backend(config: PipelineConfig, inner: gw.Backend | None = None) -> gw.Backend:
    """Wire the configured cassette mode around an optional network backend.

    Passthrough sends every request straight to ``inner`` and stores nothing.
    """
    if config.backend_mode == "passthrough":
        if inner is None:
            raise ValueError("passthrough mode requires a network backend")
        return inner
    if not config.cassette_path:
        raise ValueError(f"{config.backend_mode} mode requires a cassette path")
    return gw.Cassette(config.cassette_path, config.backend_mode, inner=inner)
