"""In-process span tracing from outside the program, and the per-layer metrics.

``Tracer`` wraps functions and methods by rebinding names, so the program is
traced without edits. Stages import by name (``from .normalize import
normalize``), so a function is rebound in every ``tablefocus`` module that
holds it, not only where it is defined. ``restore`` puts every original back.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

Attrs = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: str | None  # id of the instance being run when the span started
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, attrs: Attrs | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent, self.instance, self.clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = 1
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def patch_function(self, fn: Callable, name: str, attrs: Attrs | None = None, package: str = "tablefocus") -> None:
        """Rebind ``fn`` in every loaded module of ``package`` that holds it."""
        traced = self.wrap(fn, name, attrs)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package or module_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)

    def patch_method(self, cls: type, attr: str, name: str, attrs: Attrs | None = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, attrs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, [])) for s in spans}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from tablefocus import content, core, evaluation, gateway, pipeline, reasoning, sqlrows, structure, trace

    # The package re-exports the function under the module's name, so fetch the module itself.
    normalize_mod = sys.modules["tablefocus.normalize"]
    functions: list[tuple[Callable, str, Attrs | None]] = [
        (normalize_mod.normalize, "normalize", lambda a, k, r: {"cells": a[0].row_count * a[0].column_count}),
        (sqlrows.build_schema, "build_schema", None),
        (sqlrows.execute_row_lookup, "execute_row_lookup", None),
        (core.render_markdown, "render_markdown", lambda a, k, r: {"bytes": len(r)}),
        (structure.extract_structure, "extract_structure", None),
        (structure.rank_columns, "rank_columns", None),
        (structure.column_lookup, "column_lookup", None),
        (structure.row_lookup, "row_lookup", lambda a, k, r: {"all_rows": int(len(r.indices) == a[0].table.row_count)}),
        (structure.construct_focus, "construct_focus", None),
        (content.reconstruct_focus, "reconstruct_focus", lambda a, k, r: {"reconstructions": r.reconstruction_count}),
        (content.estimate_information, "estimate_information", None),
        (content.verbalize, "verbalize", None),
        (reasoning.answer_adaptive, "answer_adaptive", lambda a, k, r: {"fallbacks": len(r[1].fallbacks)}),
        (reasoning.execute_program, "execute_program", lambda a, k, r: {"failed": int(r.timed_out or r.exit_status != 0)}),
        (evaluation.evaluate, "evaluate", None),
        (evaluation.load_dataset, "load_dataset", None),
        (pipeline.run_instance, "run_instance", None),
    ]
    for fn, name, attrs in functions:
        tracer.patch_function(fn, name, attrs)
    tracer.patch_method(gateway.Gateway, "complete", "Gateway.complete")
    tracer.patch_method(gateway.Gateway, "build_request", "Gateway.build_request", lambda a, k, r: {"bytes": len(r.rendered)})
    tracer.patch_method(gateway.Cassette, "lookup", "Cassette.lookup", lambda a, k, r: {"hit": int(r is not None)})
    tracer.patch_method(gateway.Cassette, "store", "Cassette.store")
    tracer.patch_method(trace.ReasoningTrace, "to_dict", "ReasoningTrace.to_dict")
    tracer.patch_method(trace.ReasoningTrace, "to_json", "ReasoningTrace.to_json", lambda a, k, r: {"bytes": len(r)})


def layer_metrics(spans: list[Span], runs: int, lm_calls: int, lm_wait_s: float) -> dict[str, float]:
    """Per-layer metrics, each a mean over ``runs`` instance runs (``evaluation.load.ms`` is per load)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)
    n = max(runs, 1)

    def ms(*names: str) -> float:
        return 1000.0 * covered([(s.start, s.end) for name in names for s in by_name.get(name, [])]) / n

    def self_ms(*names: str) -> float:
        return 1000.0 * sum(own[s.id] for name in names for s in by_name.get(name, [])) / n

    def calls(name: str) -> float:
        return len(by_name.get(name, [])) / n

    def total(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    def ratio(name: str, key: str) -> float:
        found = by_name.get(name, [])
        return total(name, key) / len(found) if found else 0.0

    return {
        "normalize.ms": ms("normalize"),
        "normalize.calls": calls("normalize"),
        "normalize.cells": total("normalize", "cells") / n,
        "sqlrows.schema.ms": ms("build_schema"),
        "sqlrows.lookup.ms": ms("execute_row_lookup"),
        "sqlrows.lookup.calls": calls("execute_row_lookup"),
        "sqlrows.lookup.failed": total("execute_row_lookup", "error") / n,
        "sqlrows.all_rows_ratio": ratio("row_lookup", "all_rows"),
        "core.render.ms": ms("render_markdown"),
        "core.render.calls": calls("render_markdown"),
        "core.render.kbytes": total("render_markdown", "bytes") / 1000.0 / n,
        "gateway.complete.calls": calls("Gateway.complete"),
        "gateway.build.ms": ms("Gateway.build_request"),
        "gateway.prompt.kbytes": total("Gateway.build_request", "bytes") / 1000.0 / n,
        "gateway.cassette.lookup.ms": ms("Cassette.lookup"),
        "gateway.cassette.hit_ratio": ratio("Cassette.lookup", "hit"),
        "gateway.cassette.store.ms": ms("Cassette.store"),
        "lm.wait.ms": 1000.0 * lm_wait_s / n,
        "lm.calls": lm_calls / n,
        "structure.self.ms": self_ms(
            "extract_structure", "rank_columns", "column_lookup", "row_lookup", "construct_focus"
        ),
        "content.self.ms": self_ms("reconstruct_focus", "estimate_information", "verbalize"),
        "content.reconstructions": total("reconstruct_focus", "reconstructions") / n,
        "reasoning.self.ms": self_ms("answer_adaptive"),
        "reasoning.fallbacks": total("answer_adaptive", "fallbacks") / n,
        "reasoning.exec.ms": ms("execute_program"),
        "reasoning.exec.calls": calls("execute_program"),
        "reasoning.exec.failed": total("execute_program", "failed") / n,
        "trace.serialize.ms": ms("ReasoningTrace.to_dict", "ReasoningTrace.to_json"),
        "trace.kbytes": total("ReasoningTrace.to_json", "bytes") / 1000.0 / n,
        "evaluation.self.ms": self_ms("evaluate"),
        "evaluation.load.ms": 1000.0 * covered([(s.start, s.end) for s in by_name.get("load_dataset", [])]),
        "pipeline.ms": ms("run_instance"),
        "pipeline.self.ms": self_ms("run_instance"),
    }
