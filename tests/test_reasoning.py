"""Adaptive reasoning: strategy choice, sandboxed execution, answer formatting,
and the fallback ladder."""

from __future__ import annotations

import os
import signal
import time

import pytest

from tablefocus import gateway as gw
from tablefocus.normalize import skip_normalization
from tablefocus.reasoning import (
    MAX_OUTPUT_BYTES,
    Answer,
    ExecutionResult,
    ExecutorProfile,
    answer_adaptive,
    assess_strategy,
    execute_program,
    focus_as_csv,
    format_answer,
    looks_abstaining,
)
from tablefocus.sqlrows import RowSet
from tablefocus.structure import construct_focus
from tablefocus.trace import ReasoningTrace

from conftest import RIDERS_TABLE, make_gateway

NORM = skip_normalization(RIDERS_TABLE)
FOCUS = construct_focus(NORM, RowSet(indices=(0, 2, 4)), ["Rider", "Country", "Wins"])
DESCRIPTION = "Three Belgian riders with wins 3, 2, 2."


class TestStrategyAndAnswerTypes:
    def test_fact_verification_answers_constrained(self):
        with pytest.raises(ValueError):
            Answer(value="maybe", task_kind="fact_verification")
        Answer(value="True", task_kind="fact_verification")
        Answer(value="", task_kind="fact_verification", abstained=True)

    def test_unknown_task_kind(self):
        with pytest.raises(ValueError):
            Answer(value="x", task_kind="oracle")

    def test_answer_line_is_last_nonempty(self):
        result = ExecutionResult(stdout="a\n\n b \n\n", exit_status=0, duration_ms=1.0, timed_out=False)
        assert result.answer_line == "b"
        empty = ExecutionResult(stdout="\n\n", exit_status=0, duration_ms=1.0, timed_out=False)
        assert empty.answer_line == ""


class TestAssessStrategy:
    def test_direct_labels(self):
        lm = make_gateway({"strategy_assessment": ["symbolic"]})
        assert assess_strategy(FOCUS, DESCRIPTION, "q", lm, ReasoningTrace()) == "symbolic"

    @pytest.mark.parametrize("reply,expected", [
        ("write python code", "symbolic"),
        ("a program would help", "symbolic"),
        ("chain-of-thought is enough", "textual"),
        ("simple retrieval", "textual"),
    ])
    def test_synonyms(self, reply, expected):
        lm = make_gateway({"strategy_assessment": [reply]})
        assert assess_strategy(FOCUS, DESCRIPTION, "q", lm, ReasoningTrace()) == expected

    def test_unparseable_defaults_to_textual(self):
        lm = make_gateway({"strategy_assessment": ["whatever works"]})
        trace = ReasoningTrace()
        assert assess_strategy(FOCUS, DESCRIPTION, "q", lm, trace=trace) == "textual"
        assert any("defaulted to textual" in w for w in trace.warnings)


def _dead(pid: int) -> bool:
    """Gone, or a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestExecuteProgram:
    def test_table_and_question_exposed_via_env(self):
        program = (
            "import os\n"
            "print(open(os.environ['TM_TABLE_PATH']).readline().strip())\n"
            "print(os.environ['TM_QUESTION'])\n"
        )
        result = execute_program(program, FOCUS, question="the question?")
        assert result.exit_status == 0
        assert result.stdout.splitlines()[0] == "Rider,Country,Wins"
        assert result.answer_line == "the question?"

    def test_focus_as_csv_round_trips(self):
        text = focus_as_csv(FOCUS)
        lines = text.strip().splitlines()
        assert lines[0] == "Rider,Country,Wins"
        assert len(lines) == 4

    def test_timeout_must_be_positive(self):
        for timeout in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="> 0"):
                ExecutorProfile(timeout_s=timeout)

    def test_missing_interpreter_reports_127(self):
        result = execute_program("print(1)", FOCUS, profile=ExecutorProfile(command=("/nonexistent/python3",)))
        assert result == ExecutionResult(stdout="", exit_status=127, duration_ms=result.duration_ms, timed_out=False)

    def test_nonzero_exit(self):
        result = execute_program("import sys; sys.exit(3)", FOCUS)
        assert result.exit_status == 3
        assert not result.timed_out

    def test_stderr_not_in_answer_channel(self):
        result = execute_program("import sys; print('ans'); print('noise', file=sys.stderr)", FOCUS)
        assert result.answer_line == "ans"

    def test_timeout(self):
        profile = ExecutorProfile(timeout_s=0.5)
        result = execute_program("while True: pass", FOCUS, profile=profile)
        assert result.timed_out
        assert result.exit_status == -1

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_timeout_kills_grandchildren(self, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        program = (
            "import subprocess, time\n"
            "child = subprocess.Popen(['sleep', '20'])\n"
            f"with open({str(pid_file)!r}, 'w') as fh:\n"
            "    fh.write(str(child.pid))\n"
            "time.sleep(20)\n"
        )
        result = execute_program(program, FOCUS, profile=ExecutorProfile(timeout_s=1.0))
        assert result.timed_out and result.exit_status == -1
        pid = int(pid_file.read_text())
        try:
            deadline = time.monotonic() + 2.0
            while not _dead(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _dead(pid), "grandchild survived the timeout"
        finally:
            if not _dead(pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_exit_ends_the_run_and_kills_background_children(self, tmp_path):
        # The background child inherits stdout; the run must still end when the program exits.
        pid_file = tmp_path / "child.pid"
        program = (
            "import subprocess\n"
            "child = subprocess.Popen(['sleep', '30'])\n"
            f"with open({str(pid_file)!r}, 'w') as fh:\n"
            "    fh.write(str(child.pid))\n"
            "print('42')\n"
        )
        result = execute_program(program, FOCUS, profile=ExecutorProfile(timeout_s=5.0))
        pid = int(pid_file.read_text())
        try:
            assert (result.exit_status, result.timed_out, result.stdout) == (0, False, "42\n")
            assert result.duration_ms < 5000.0
            deadline = time.monotonic() + 2.0
            while not _dead(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _dead(pid), "background child survived the program's exit"
        finally:
            if not _dead(pid):
                os.kill(pid, signal.SIGKILL)

    def test_output_is_capped(self):
        result = execute_program("print('x' * (5 * 1024 * 1024))", FOCUS)
        assert result.exit_status != 0
        assert 0 < len(result.stdout) <= MAX_OUTPUT_BYTES

    def test_runs_in_isolated_workdir(self):
        result = execute_program("import os; print(os.getcwd())", FOCUS)
        assert "tf-exec-" in result.answer_line


class TestFormatAnswer:
    def test_plain_qa(self):
        lm = make_gateway({"answer_formatting": ["  7  "]})
        got = format_answer("q", "reasoning...", "qa", lm, ReasoningTrace())
        assert got == Answer(value="7", task_kind="qa")

    def test_abstention_markers(self):
        assert looks_abstaining("I cannot answer this")
        assert looks_abstaining("Not enough information given")
        assert not looks_abstaining("42")
        lm = make_gateway({"answer_formatting": ["The question cannot be answered."]})
        assert format_answer("q", "r", "qa", lm, ReasoningTrace()).abstained

    def test_fact_verification_parsing(self):
        lm = make_gateway({"answer_formatting": ["The claim is true", "no way", "perhaps"]})
        assert format_answer("q", "r", "fact_verification", lm, ReasoningTrace()).value == "True"
        assert format_answer("q", "r", "fact_verification", lm, ReasoningTrace()).value == "False"
        assert format_answer("q", "r", "fact_verification", lm, ReasoningTrace()).abstained

    def test_empty_inputs_abstain(self):
        lm = make_gateway({"answer_formatting": [""]})
        abstained = Answer(value="", task_kind="qa", abstained=True)
        blank_raw = ReasoningTrace()
        assert format_answer("q", "   ", "qa", lm, blank_raw) == abstained
        assert blank_raw.steps == [] and blank_raw.warnings == ["empty formatted answer"]
        blank_reply = ReasoningTrace()
        assert format_answer("q", "r", "qa", lm, blank_reply) == abstained
        assert blank_reply.steps[-1]["template_id"] == "answer_formatting"
        assert blank_reply.steps[-1]["warnings"] == ["empty formatted answer"]


class _RecordingBackend:
    """Scripted backend that also remembers every request it saw."""

    def __init__(self, replies):
        self.inner = gw.ScriptedBackend(replies)
        self.requests = []

    def send(self, request):
        self.requests.append(request)
        return self.inner.send(request)


class TestAnswerAdaptive:
    def test_textual_path(self):
        lm = make_gateway({
            "strategy_assessment": ["textual"],
            "textual_reasoning": ["sum is 7. Answer: 7"],
            "answer_formatting": ["7"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer == Answer(value="7", task_kind="qa")
        assert trace.strategy == "textual"
        assert trace.fallbacks == []

    def test_symbolic_path_uses_executor_output(self):
        lm = make_gateway({
            "strategy_assessment": ["symbolic"],
            "textual_guidance": ["sum the wins"],
            "symbolic_reasoning": ["```python\nprint(3 + 2 + 2)\n```"],
            "answer_formatting": ["7"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer.value == "7"
        assert trace.strategy == "symbolic"
        assert trace.program == "print(3 + 2 + 2)"
        assert [s["exit_status"] for s in trace.steps if s["kind"] == "exec"] == [0]

    def test_executor_failure_falls_back_to_textual(self):
        lm = make_gateway({
            "strategy_assessment": ["symbolic"],
            "textual_guidance": ["g"],
            "symbolic_reasoning": ["```python\nimport sys\nsys.exit(2)\n```"],
            "textual_reasoning": ["Answer: 7"],
            "answer_formatting": ["7"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer.value == "7"
        assert any("nonzero exit" in f for f in trace.fallbacks)

    def test_oversized_output_falls_back_to_textual(self):
        lm = make_gateway({
            "strategy_assessment": ["symbolic"],
            "textual_guidance": ["g"],
            "symbolic_reasoning": ["```python\nprint('7' * (5 * 1024 * 1024))\n```"],
            "textual_reasoning": ["Answer: 7"],
            "answer_formatting": ["7"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer.value == "7"
        assert trace.fallbacks == ["textual (executor nonzero exit)"]

    def test_executor_timeout_falls_back_to_textual(self):
        lm = make_gateway({
            "strategy_assessment": ["symbolic"],
            "textual_guidance": ["g"],
            "symbolic_reasoning": ["```python\nwhile True: pass\n```"],
            "textual_reasoning": ["Answer: 7"],
            "answer_formatting": ["7"],
        })
        answer, trace = answer_adaptive(
            NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace(), profile=ExecutorProfile(timeout_s=0.5)
        )
        assert answer.value == "7"
        assert any("timeout" in f for f in trace.fallbacks)

    def test_abstention_triggers_full_table_retry(self):
        backend = _RecordingBackend({
            "strategy_assessment": ["textual"],
            "textual_reasoning": ["cannot answer from this", "found it. Answer: 1"],
            "answer_formatting": ["cannot answer", "1"],
        })
        lm = gw.Gateway(backend)
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer.value == "1"
        assert "full_table_retry" in trace.fallbacks
        retry = [r for r in backend.requests if r.template_id == "textual_reasoning"][1]
        assert "Hans Weber" in retry.rendered  # non-focus row appears only in the full table

    def test_abstention_respected_when_fallback_disabled(self):
        lm = make_gateway({
            "strategy_assessment": ["textual"],
            "textual_reasoning": ["cannot answer"],
            "answer_formatting": ["cannot answer"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace(), full_table_fallback=False)
        assert answer.abstained
        assert "full_table_retry" not in trace.fallbacks

    def test_full_reasoning_table_variant(self):
        backend = _RecordingBackend({
            "strategy_assessment": ["textual"],
            "textual_reasoning": ["Answer: 1"],
            "answer_formatting": ["1"],
        })
        lm = gw.Gateway(backend)
        answer, _ = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace(), reasoning_table="full")
        first = [r for r in backend.requests if r.template_id == "textual_reasoning"][0]
        assert "Hans Weber" in first.rendered
        assert answer.value == "1"

    def test_blank_retry_reasoning_abstains_with_warning(self):
        lm = make_gateway({
            "strategy_assessment": ["textual"],
            "textual_reasoning": ["cannot answer from this", "   "],
            "answer_formatting": ["cannot answer"],
        })
        answer, trace = answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
        assert answer == Answer(value="", task_kind="qa", abstained=True)
        assert trace.fallbacks == ["full_table_retry"]
        assert trace.warnings == ["empty formatted answer"]
        assert trace.steps[-1]["template_id"] == "textual_reasoning"
        assert trace.steps[-1]["warnings"] == ["empty formatted answer"]

    def test_gateway_failure_propagates(self):
        lm = make_gateway({})  # every call raises TransportError
        with pytest.raises(gw.TransportError):
            answer_adaptive(NORM, FOCUS, DESCRIPTION, "q", "qa", lm, ReasoningTrace())
