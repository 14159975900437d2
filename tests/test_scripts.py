"""Smoke tests for the demo scripts: each runs to exit 0 and prints the
verdicts it exists to show."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_minimal_resolution_report():
    out = run_script("minimal_resolution_report.py")
    zero = re.findall(r"^  broken_\d+: .* fingerprint_zero=(\w+)$", out, re.MULTILINE)
    # A2..A5 by default: 2 + 3 + 4 + 5 broken-chain points
    assert zero == ["True"] * 14
    assert out.count("x*y == z^") == 4 and ": False" not in out


def test_minimal_resolution_report_exceptional_counts():
    out = run_script("minimal_resolution_report.py", "--labels", "E6", "E7", "E8")
    counts = re.findall(r"^\s+(E\d)\s+\d+\s+-?\d+\s+(\d+)$", out, re.MULTILINE)
    # the zero weight of the adjoint module has multiplicity the rank
    assert counts == [("E6", "6"), ("E7", "7"), ("E8", "8")]


def test_crystal_walk():
    out = run_script("crystal_walk.py")
    assert out.count("extend back: isomorphic to the original: True") == 2
    assert "isomorphic to the original: False" not in out
