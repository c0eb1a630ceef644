"""Prompt stability: every golden case must send exactly the requests it sent
when its cassette keys were pinned.

The golden replay tests record and replay within one process, so a prompt
that drifts (a changed rendering, a reordered binding) still replays cleanly
there, yet misses every cassette recorded before the drift. This test compares
each case's sequence of (template_id, request_key) pairs with the pinned
constants in ``golden_request_keys.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import GOLDEN_CASES, record_run

PINNED = json.loads((Path(__file__).parent / "golden_request_keys.json").read_text(encoding="utf-8"))


def test_every_golden_case_is_pinned():
    assert sorted(PINNED) == sorted(c.id for c in GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c.id for c in GOLDEN_CASES])
def test_request_keys_match_pins(case, tmp_path):
    _, trace = record_run(case, tmp_path / "cassette")
    sent = [[s["template_id"], s["request_key"]] for s in trace.steps if s["kind"] == "lm"]
    assert sent == PINNED[case.id]
