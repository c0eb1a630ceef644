"""Adaptive table reasoning: strategy choice, chain-of-thought, text-guided
program generation, sandboxed execution, answer formatting, and fallbacks.

Fallback ladder: executor failure -> textual reasoning on the same inputs;
abstaining answer (or an empty focus) -> one textual retry against the full
normalized table plus the verbalized focus.
"""

from __future__ import annotations

import csv
import io
import math
import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import asdict, dataclass

from . import gateway as gw
from .core import render_markdown
from .normalize import NormalizedTable
from .structure import TableOfFocus
from .trace import ReasoningTrace, digest

TABLE_PATH_ENV = "TM_TABLE_PATH"
QUESTION_ENV = "TM_QUESTION"
MEMORY_MB = 512  # address-space cap of a generated program
MAX_OUTPUT_BYTES = 1024 * 1024  # cap on each file a generated program writes, stdout included
TASK_KINDS = ("qa", "fact_verification")

_ABSTAIN_MARKERS = (
    "cannot answer",
    "can't answer",
    "cannot be answered",
    "not in the table",
    "no answer",
    "unable to answer",
    "not enough information",
    "insufficient information",
)


@dataclass(frozen=True)
class ExecutionResult:
    stdout: str
    exit_status: int
    duration_ms: float
    timed_out: bool

    @property
    def answer_line(self) -> str:
        """Last non-empty stdout line, the executor's answer channel."""
        lines = [ln.strip() for ln in self.stdout.splitlines() if ln.strip()]
        return lines[-1] if lines else ""


@dataclass(frozen=True)
class Answer:
    value: str
    task_kind: str  # one of TASK_KINDS
    abstained: bool = False

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind: {self.task_kind!r}")
        if self.task_kind == "fact_verification" and not self.abstained and self.value not in ("True", "False"):
            raise ValueError("fact verification answers must be 'True' or 'False'")


@dataclass(frozen=True)
class ExecutorProfile:
    """How generated programs are run: interpreter and wall-clock limit."""

    command: tuple[str, ...] = ("python3",)
    timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:  # also rejects NaN
            raise ValueError(f"executor timeout must be > 0 seconds, got {self.timeout_s}")


_STRATEGY_SYNONYMS = {
    "retrieval": "textual",
    "chain-of-thought": "textual",
    "chain of thought": "textual",
    "text": "textual",
    "program": "symbolic",
    "code": "symbolic",
    "python": "symbolic",
    "sql": "symbolic",
    "calculation": "symbolic",
}


def assess_strategy(
    focus: TableOfFocus,
    description: str,
    question: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> str:
    """Choose ``"textual"`` or ``"symbolic"`` reasoning; unparseable replies default to textual."""
    reply = lm.complete(
        "strategy_assessment",
        {"table": focus.markdown, "description": description, "question": question},
        trace,
    )
    try:
        return gw.parse_choice(reply, ["textual", "symbolic"], synonyms=_STRATEGY_SYNONYMS)
    except gw.UnparseableReply:
        trace.warn("strategy reply unparseable; defaulted to textual")
        return "textual"


def generate_guidance(
    focus: TableOfFocus,
    description: str,
    question: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> str:
    text = lm.complete(
        "textual_guidance",
        {"table": focus.markdown, "description": description, "question": question},
        trace,
    ).strip()
    if not text:
        text = "Answer step by step."
        trace.warn("empty guidance reply; used the default guidance")
    return text


def symbolic_reasoning(
    focus: TableOfFocus,
    description: str,
    question: str,
    guidance: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> str:
    """Program text extracted from the model reply (first fence, else whole reply)."""
    reply = lm.complete(
        "symbolic_reasoning",
        {"table": focus.markdown, "description": description, "question": question, "guidance": guidance},
        trace,
    )
    return gw.extract_code_block(reply)


def focus_as_csv(focus: TableOfFocus) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(focus.table.headers)
    writer.writerows(focus.table.rows)
    return buffer.getvalue()


def _limit_resources(timeout_s: float) -> None:
    try:
        import resource

        for which, limit in (
            (resource.RLIMIT_AS, MEMORY_MB * 1024 * 1024),
            (resource.RLIMIT_FSIZE, MAX_OUTPUT_BYTES),
            (resource.RLIMIT_CPU, math.ceil(timeout_s) + 1),
        ):
            resource.setrlimit(which, (limit, limit))
    except (ImportError, ValueError, OSError):
        pass


def execute_program(
    program: str,
    focus: TableOfFocus,
    profile: ExecutorProfile = ExecutorProfile(),
    question: str = "",
) -> ExecutionResult:
    """Run an untrusted generated program in an isolated working directory.

    The focus table is written as table.csv and exported via TM_TABLE_PATH; the
    question via TM_QUESTION. The child gets a minimal environment, a memory
    cap, a cap of ``MAX_OUTPUT_BYTES`` on each file it writes (stdout
    included, so a longer output fails the run and no more is read back), a
    CPU-time cap one second past the timeout, and a wall-clock timeout. The
    run ends when the program exits or the timeout passes, and either way its
    whole process group is then killed, so a background process it left
    cannot hold the run open. An interpreter
    that cannot be started reports exit status 127, as a shell would.
    """
    with tempfile.TemporaryDirectory(prefix="tf-exec-") as workdir:
        program_path = os.path.join(workdir, "program.py")
        table_path = os.path.join(workdir, "table.csv")
        with open(program_path, "w", encoding="utf-8") as fh:
            fh.write(program)
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(focus_as_csv(focus))
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": workdir,
            TABLE_PATH_ENV: table_path,
            QUESTION_ENV: question,
        }
        # An unnamed file: the program cannot replace or delete it.
        with tempfile.TemporaryFile(dir=workdir) as out:
            start = time.monotonic()
            try:
                proc = subprocess.Popen(
                    list(profile.command) + [program_path],
                    cwd=workdir,
                    env=env,
                    stdout=out,
                    stderr=subprocess.DEVNULL,
                    start_new_session=True,
                    preexec_fn=lambda: _limit_resources(profile.timeout_s),
                )
            except OSError:
                duration = (time.monotonic() - start) * 1000.0
                return ExecutionResult(stdout="", exit_status=127, duration_ms=duration, timed_out=False)
            # A blocking wait in a helper thread returns the moment the program
            # exits; Popen.wait(timeout=) would poll with a growing sleep.
            waiter = threading.Thread(target=proc.wait, daemon=True)
            waiter.start()
            waiter.join(profile.timeout_s)
            timed_out = waiter.is_alive()
            duration = (time.monotonic() - start) * 1000.0
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            waiter.join()
            out.seek(0)
            # Decoded with universal newlines, as a text-mode pipe would be.
            stdout = out.read(MAX_OUTPUT_BYTES).decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
        exit_status = -1 if timed_out else proc.returncode
        return ExecutionResult(stdout=stdout, exit_status=exit_status, duration_ms=duration, timed_out=timed_out)


def looks_abstaining(text: str) -> bool:
    lowered = text.lower()
    return any(marker in lowered for marker in _ABSTAIN_MARKERS)


def format_answer(
    question: str,
    raw: str,
    task_kind: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
) -> Answer:
    """Condense a raw reasoning result into the short-form answer; a blank one abstains with a warning."""
    bindings = {"question": question, "reasoning": raw}
    formatted = lm.complete("answer_formatting", bindings, trace).strip() if raw.strip() else ""
    if not formatted:
        trace.warn("empty formatted answer")
        return Answer(value="", task_kind=task_kind, abstained=True)
    if looks_abstaining(formatted):
        return Answer(value="", task_kind=task_kind, abstained=True)
    if task_kind == "fact_verification":
        try:
            verdict = gw.parse_choice(
                formatted, ["True", "False"], synonyms={"yes": "True", "no": "False", "holds": "True"}
            )
        except gw.UnparseableReply:
            return Answer(value="", task_kind=task_kind, abstained=True)
        return Answer(value=verdict, task_kind=task_kind)
    return Answer(value=formatted, task_kind=task_kind)


def answer_adaptive(
    table: NormalizedTable,
    focus: TableOfFocus,
    description: str,
    question: str,
    task_kind: str,
    lm: gw.Gateway,
    trace: ReasoningTrace,
    profile: ExecutorProfile = ExecutorProfile(),
    full_table_fallback: bool = True,
    reasoning_table: str = "focus",
) -> tuple[Answer, ReasoningTrace]:
    """One terminal answer per run, with bounded fallbacks and a complete trace.

    ``reasoning_table="full"`` reasons over the full normalized table plus the
    verbalized focus from the start instead of only on fallback. Model
    failures (``GatewayError``) propagate; ``run_instance`` degrades them.
    """
    trace.strategy = assess_strategy(focus, description, question, lm, trace)
    raw: str | None = None

    if trace.strategy == "symbolic":
        guidance = generate_guidance(focus, description, question, lm, trace)
        trace.guidance = guidance
        program = symbolic_reasoning(focus, description, question, guidance, lm, trace)
        trace.program = program
        result = execute_program(program, focus, profile=profile, question=question)
        trace.record_exec(result.exit_status, result.timed_out, digest(result.stdout))
        if result.timed_out or result.exit_status != 0 or not result.answer_line:
            reason = (
                "timeout" if result.timed_out
                else "nonzero exit" if result.exit_status != 0
                else "empty output"
            )
            trace.fallbacks.append(f"textual (executor {reason})")
        else:
            raw = result.answer_line

    def attempt(raw: str | None, full_table: bool) -> Answer:
        """Format ``raw``, reasoning textually (full chain of thought) first when there is none."""
        if raw is None:
            markdown = render_markdown(table.table) if full_table else focus.markdown
            raw = lm.complete(
                "textual_reasoning", {"table": markdown, "description": description, "question": question}, trace
            )
        return format_answer(question, raw, task_kind, lm, trace)

    answer = attempt(raw, reasoning_table == "full")
    if (answer.abstained or focus.table.row_count == 0) and full_table_fallback and reasoning_table != "full":
        trace.fallbacks.append("full_table_retry")
        answer = attempt(None, True)

    trace.answer = asdict(answer)
    return answer, trace
