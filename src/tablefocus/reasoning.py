"""Adaptive table reasoning: strategy choice, chain-of-thought, text-guided
program generation, sandboxed execution, answer formatting, and fallbacks.

Fallback ladder: executor failure -> textual reasoning on the same inputs;
abstaining answer (or an empty focus) -> one textual retry against the full
normalized table plus the verbalized focus.
"""

from __future__ import annotations

# _socket, not socket: socket.py and the selectors it loads would add about
# 0.3 MB to every process that runs programs.
import _socket
import atexit
import csv
import io
import marshal
import os
import signal
import struct
import tempfile
import threading
import time
from dataclasses import asdict, dataclass

from . import forkserver
from . import gateway as gw
from .core import render_markdown
from .forkserver import MAX_OUTPUT_BYTES, REPLY_BYTES
from .normalize import NormalizedTable
from .structure import TableOfFocus
from .trace import ReasoningTrace, digest

TABLE_PATH_ENV = "TM_TABLE_PATH"
QUESTION_ENV = "TM_QUESTION"
TASK_KINDS = ("qa", "fact_verification")
VERDICTS = ("True", "False")  # the answers a fact verification may give

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
        if self.task_kind == "fact_verification" and not self.abstained and self.value not in VERDICTS:
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


_servers: dict[tuple[str, ...], tuple[int, _socket.socket]] = {}  # command -> (pid, control socket)
_servers_lock = threading.Lock()


def _fork_server(command: tuple[str, ...], env: dict[str, str]) -> _socket.socket:
    """The control socket of ``command``'s fork server, started in ``env`` if none is running."""
    with _servers_lock:
        if command in _servers:
            pid, ctrl = _servers[command]
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    return ctrl
            except ChildProcessError:
                pass
            ctrl.close()
            del _servers[command]
        ours, theirs = _socket.socketpair(_socket.AF_UNIX, _socket.SOCK_STREAM)
        try:
            os.set_inheritable(theirs.fileno(), True)
            pid = os.posix_spawnp(
                command[0],
                [*command, forkserver.__file__, str(theirs.fileno())],
                env,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                    (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
                ],
                setsid=True,
            )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        _servers[command] = pid, ours
        return ours


@atexit.register
def _stop_fork_servers() -> None:
    """Close each server's control socket, which ends it, and reap it."""
    for pid, ctrl in _servers.values():
        ctrl.close()
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def execute_program(
    program: str,
    focus: TableOfFocus,
    profile: ExecutorProfile = ExecutorProfile(),
    question: str = "",
) -> ExecutionResult:
    """Run an untrusted generated program in an isolated working directory.

    The focus table is written as table.csv and exported via TM_TABLE_PATH; the
    question via TM_QUESTION. The program runs in a fork of one pre-started
    interpreter per ``profile.command`` (``forkserver``), which gives it a
    minimal environment, a memory cap, a cap of ``MAX_OUTPUT_BYTES`` on each
    file it writes (stdout included, so a longer output fails the run and no
    more is read back), a CPU-time cap one second past the timeout, and
    ``/dev/null`` as stdin. The run ends when the program exits or the
    wall-clock timeout passes, and either way its whole process group is then
    killed, so a background process it left cannot hold the run open. An
    interpreter that cannot be started, or a server that dies before it
    reports the exit status, reports exit status 127, as a shell would.
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
            replies: list[int] = []  # the program's pid, then its exit status
            timed_out = False
            conn, theirs = _socket.socketpair(_socket.AF_UNIX, _socket.SOCK_STREAM)
            try:
                try:
                    ctrl = _fork_server(profile.command, {"PATH": env["PATH"], "HOME": workdir, "PYTHONHASHSEED": "0"})
                    fds = struct.pack("2i", theirs.fileno(), out.fileno())
                    ctrl.sendmsg([b"\0"], [(_socket.SOL_SOCKET, _socket.SCM_RIGHTS, fds)])
                    theirs.close()
                    conn.sendall(marshal.dumps((program_path, env, profile.timeout_s)))
                    conn.shutdown(_socket.SHUT_WR)
                    while len(replies) < 2:
                        remaining = start + profile.timeout_s - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError
                        conn.settimeout(remaining)
                        reply = conn.recv(REPLY_BYTES, _socket.MSG_WAITALL)
                        if len(reply) < REPLY_BYTES:
                            break  # the server has gone
                        replies.append(int(reply))
                except TimeoutError:
                    timed_out = True
                except OSError:  # no interpreter to start, or the server has gone
                    pass
                duration = (time.monotonic() - start) * 1000.0
                if replies:
                    try:
                        os.killpg(replies[0], signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if timed_out and replies:
                    conn.settimeout(None)
                    try:
                        conn.recv(REPLY_BYTES, _socket.MSG_WAITALL)  # returns once the program is reaped
                    except OSError:
                        pass
            finally:
                conn.close()
                theirs.close()
            out.seek(0)
            # Decoded with universal newlines, as a text-mode pipe would be.
            stdout = out.read(MAX_OUTPUT_BYTES).decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
        exit_status = -1 if timed_out else replies[1] if len(replies) == 2 else 127
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
                formatted, list(VERDICTS), synonyms={"yes": "True", "no": "False", "holds": "True"}
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
