"""Append-only run trace: every LM call, repair warning, fallback, and the
area-unit cost tally for one pipeline run.

Persisted traces are deterministic under a replay backend: they carry request
hashes and reply digests, never wall-clock timings or filesystem paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# CPython's built-in SHA-256: hashlib would also load OpenSSL, about 3.6 MB resident.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256


def digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def dumps(trace: dict[str, Any]) -> str:
    """A trace as persisted: sorted keys, indent 2, non-ASCII kept; a trace file adds a final newline."""
    return json.dumps(trace, indent=2, ensure_ascii=False, sort_keys=True)


def write_json(path: str | Path, trace: dict[str, Any]) -> None:
    Path(path).write_text(dumps(trace) + "\n", encoding="utf-8")


@dataclass
class ReasoningTrace:
    steps: list[dict[str, Any]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    fallbacks: list[str] = field(default_factory=list)
    cost_components: dict[str, float] = field(default_factory=dict)
    cost_parameters: dict[str, float] = field(default_factory=dict)
    strategy: str | None = None
    guidance: str | None = None
    program: str | None = None
    condensation_ratio: float | None = None
    config: dict[str, Any] = field(default_factory=dict)
    answer: dict[str, Any] | None = None

    def record_lm(self, template_id: str, key: str, reply: str) -> None:
        self.steps.append(
            {
                "kind": "lm",
                "template_id": template_id,
                "request_key": key,
                "reply_digest": digest(reply),
                "warnings": [],
            }
        )

    def record_exec(self, exit_status: int, timed_out: bool, stdout_digest: str) -> None:
        self.steps.append(
            {
                "kind": "exec",
                "exit_status": exit_status,
                "timed_out": timed_out,
                "stdout_digest": stdout_digest,
            }
        )

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        if self.steps:
            self.steps[-1].setdefault("warnings", []).append(message)

    def add_cost(self, component: str, units: float) -> None:
        self.cost_components[component] = self.cost_components.get(component, 0.0) + units

    @property
    def cost_total(self) -> float:
        return sum(self.cost_components.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "steps": self.steps,
            "warnings": self.warnings,
            "fallbacks": self.fallbacks,
            "strategy": self.strategy,
            "guidance": self.guidance,
            "program": self.program,
            "condensation_ratio": self.condensation_ratio,
            "cost": {
                "components": self.cost_components,
                "total": self.cost_total,
                "parameters": self.cost_parameters,
            },
            "answer": self.answer,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def write(self, path: str | Path) -> None:
        write_json(path, self.to_dict())
