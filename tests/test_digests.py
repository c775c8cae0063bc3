"""The cheap canonical digests of scripts/digests.py, recomputed against scripts/digests.json.

The full grid and the three benchmark passes are left to the script itself;
the other digests (the extreme and worked grids, the fixture suite and the
`analyze` set with every shift fixture) take about half a second together.
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "digests.py"
SLOW = ("grid", "perfbench.staircase.seed1", "perfbench.extreme_delay.seed1",
        "perfbench.escalation.seed1")


def load_script():
    spec = importlib.util.spec_from_file_location("digests_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cheap_digests_match_the_record(monkeypatch):
    # the script puts perfbench/ and tests/ on sys.path and pins BLAS in
    # os.environ when it loads; both are put back afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    environ = dict(os.environ)
    try:
        digests = load_script()
    finally:
        os.environ.clear()
        os.environ.update(environ)
    record = json.loads(digests.RECORD.read_text())
    here = digests.fingerprint()
    if here != record["fingerprint"]:
        pytest.skip(f"fingerprint {here} differs from the recorded {record['fingerprint']}: "
                    "digests not compared")
    cheap = [name for name in digests.DIGESTS if name not in SLOW]
    assert len(cheap) == 11
    now = {name: digests.DIGESTS[name]() for name in cheap}
    assert now == {name: record["digests"][name] for name in cheap}
