"""Stand-in language model and round-trip log.

``StandInModel`` implements ``tablefocus.gateway.Backend`` without a network:
it answers from the generator's per-case script, optionally sleeping a fixed
time per call, and logs when each call started and ended so model waiting and
the critical path are measured where the waiting happens. ``LoggedBackend``
logs the same round trips around any other backend, such as a replay cassette.
"""

from __future__ import annotations

import time
from typing import Mapping

from tablefocus import gateway

_REASONING_START = "Reasoning result:\n"
_REASONING_END = "\n\nExtract the final short-form answer"
_ABSTAIN = "cannot answer"


class CallLog:
    """Start and end of every round trip, tagged with the instance run it served."""

    def __init__(self) -> None:
        self.run = -1
        self.calls: list[tuple[int, str, float, float]] = []  # (run, template id, start, end)

    def begin(self) -> None:
        self.run += 1

    def record(self, template_id: str, start: float, end: float) -> None:
        self.calls.append((self.run, template_id, start, end))

    def by_run(self, runs: range) -> dict[int, list[tuple[float, float]]]:
        grouped: dict[int, list[tuple[float, float]]] = {run: [] for run in runs}
        for run, _, start, end in self.calls:
            if run in grouped:
                grouped[run].append((start, end))
        return grouped


def sequential_rounds(intervals: list[tuple[float, float]]) -> int:
    """Length of the longest chain of calls that each start after the previous one ended.

    With equal call latencies this is the critical path in round trips: fully
    sequential calls give one round each, overlapping calls share a round.
    """
    rounds = 0
    last_end = float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= last_end:
            rounds += 1
            last_end = end
    return rounds


def format_reply(rendered: str) -> str:
    """The short answer a model would extract from an answer_formatting prompt."""
    start = rendered.find(_REASONING_START)
    end = rendered.find(_REASONING_END)
    if start < 0 or end < start:
        raise ValueError("answer_formatting prompt has no reasoning section")
    reasoning = rendered[start + len(_REASONING_START) : end]
    if _ABSTAIN in reasoning.lower():
        return _ABSTAIN
    if "Answer:" in reasoning:
        return reasoning.rsplit("Answer:", 1)[1].strip()
    lines = [line.strip() for line in reasoning.splitlines() if line.strip()]
    return lines[-1] if lines else ""


class StandInModel:
    """Scripted ``gateway.Backend``: one reply queue per template, re-armed per case."""

    def __init__(self, log: CallLog, latency_s: float = 0.0) -> None:
        self.log = log
        self.latency_s = latency_s
        self.scripts: Mapping[str, Mapping[str, list[str]]] = {}
        self._queues: dict[str, list[str]] = {}

    def begin(self, case_id: str) -> None:
        self._queues = {tid: list(replies) for tid, replies in self.scripts[case_id].items()}

    def send(self, request: gateway.LmRequest) -> gateway.LmResponse:
        start = time.perf_counter()
        if self.latency_s:
            time.sleep(self.latency_s)
        if request.template_id == "answer_formatting":
            text = format_reply(request.rendered)
        else:
            queue = self._queues.get(request.template_id)
            if not queue:
                raise gateway.TransportError(f"stand-in model has no reply for {request.template_id}")
            text = queue.pop(0)
        self.log.record(request.template_id, start, time.perf_counter())
        return gateway.LmResponse(text=text, backend_id="stand-in")


class LoggedBackend:
    """Passes requests to ``inner`` and logs each round trip."""

    def __init__(self, inner: gateway.Backend, log: CallLog) -> None:
        self.inner = inner
        self.log = log

    def send(self, request: gateway.LmRequest) -> gateway.LmResponse:
        start = time.perf_counter()
        try:
            return self.inner.send(request)
        finally:
            self.log.record(request.template_id, start, time.perf_counter())
