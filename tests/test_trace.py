"""Run-trace bookkeeping and serialization."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tablefocus.trace import ReasoningTrace, digest

SRC = Path(__file__).resolve().parent.parent / "src"


class TestTrace:
    def test_record_lm_stores_digest_not_reply(self):
        trace = ReasoningTrace()
        trace.record_lm("column_lookup", "key123", "the model reply")
        step = trace.steps[0]
        assert step["kind"] == "lm"
        assert step["reply_digest"] == digest("the model reply")
        assert "the model reply" not in json.dumps(step)

    def test_warn_attaches_to_last_step(self):
        trace = ReasoningTrace()
        trace.record_lm("column_lookup", "k", "r")
        trace.warn("something odd")
        assert trace.warnings == ["something odd"]
        assert trace.steps[0]["warnings"] == ["something odd"]

    def test_warn_without_steps(self):
        trace = ReasoningTrace()
        trace.warn("early")
        assert trace.warnings == ["early"]

    def test_cost_accumulates(self):
        trace = ReasoningTrace()
        trace.add_cost("x", 2.0)
        trace.add_cost("x", 3.0)
        trace.add_cost("y", 1.5)
        assert trace.cost_components == {"x": 5.0, "y": 1.5}
        assert trace.cost_total == 6.5

    def test_json_is_deterministic(self):
        def build():
            trace = ReasoningTrace()
            trace.record_lm("a", "k1", "r1")
            trace.record_exec(0, False, digest("out"))
            trace.add_cost("c", 1.0)
            trace.strategy = "textual"
            return trace

        assert build().to_json() == build().to_json()

    def test_write_round_trips(self, tmp_path):
        trace = ReasoningTrace()
        trace.record_lm("a", "k", "r")
        path = tmp_path / "trace.json"
        trace.write(path)
        loaded = json.loads(path.read_text())
        assert loaded == trace.to_dict()

    def test_digest_is_sha256_hex(self):
        assert digest("") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_importing_the_package_loads_neither_openssl_nor_a_thread_pool():
    code = "import sys, tablefocus; print(sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules)))"
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert completed.stdout.strip() == "[]", completed.stderr
