"""Smoke test of the offline demonstration script."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_offline_replays_byte_identically(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_offline.py"), "--keep", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "byte-identical: True" in completed.stdout
    assert list((tmp_path / "cassette").glob("*.json"))
