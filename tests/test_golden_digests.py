"""Golden stability: every golden case must write exactly the trace and the
cassette entries it wrote when its digests were pinned.

The golden replay tests compare two replays within one process, and the
prompt pins cover only request keys, so a drift in a warning, a cost, an
answer or the cassette entry format would pass both. This test compares the
sha256 of each case's recorded ``trace.to_json()`` and of its cassette entry
files, in name order, with the constants in ``golden_trace_digests.json``.
Re-pin after an intended change with ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from conftest import GOLDEN_CASES, record_run

PINS_PATH = Path(__file__).parent / "golden_trace_digests.json"


def golden_digests(case, cassette_dir: Path) -> dict[str, str]:
    _, trace = record_run(case, cassette_dir)
    entries = hashlib.sha256()
    for path in sorted(cassette_dir.glob("*.json")):
        entries.update(path.name.encode("utf-8") + b"\x00" + path.read_bytes() + b"\x00")
    return {
        "trace": hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest(),
        "cassette": entries.hexdigest(),
    }


def test_every_golden_case_is_pinned():
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(c.id for c in GOLDEN_CASES)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c.id for c in GOLDEN_CASES])
def test_trace_and_cassette_match_pins(case, tmp_path):
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert golden_digests(case, tmp_path / "cassette") == pinned[case.id]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {case.id: golden_digests(case, Path(tmp) / case.id) for case in GOLDEN_CASES}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
