"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench

The held-out seed runs every workload once at a seed that was not used while
the benchmark was written, so that a later performance claim can be checked
again on inputs its author did not tune against.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

HELD_OUT_SEED = 7
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_held_out_seed(workload):
    record = run.measure(workload, HELD_OUT_SEED, seconds=0, trace=False)
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    assert all(p["ok"] or p["error"] != "wrong value" for p in record["probes"])
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["context"]["seed"] == HELD_OUT_SEED
    if workload == "ladder":
        # E6 at its minimal-resolution setup and unframed affine D4 never get
        # a crystal-built point, so their pools take the one-sided fallback.
        assert record["sizes"]["pools"]["E6"]["kinds"][2] == "forward"
        assert record["sizes"]["pools"]["affine_D4"]["kinds"][2] == "forward"


def test_traced_run_reports_every_layer_metric():
    record = run.measure("oracle", None, seconds=0, trace=True)
    assert set(record["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record["failed"] == 0
    assert record["metrics"]["kacmoody.freudenthal_s"]["value"] > 0
    assert record["metrics"]["homext.assemble_s"]["value"] == 0


def test_self_time_subtracts_children():
    spans = [
        {"name": "outer", "start": 0.0, "end": 10.0, "parent": None, "op": "a"},
        {"name": "inner", "start": 1.0, "end": 3.0, "parent": 0, "op": "a"},
        {"name": "inner", "start": 4.0, "end": 8.0, "parent": 0, "op": "a"},
        {"name": "leaf", "start": 5.0, "end": 6.0, "parent": 2, "op": "a"},
    ]
    layers = harness.layer_times(spans, {"a": 1.0})
    assert layers["outer"] == {"total_s": 10.0, "self_s": 4.0, "spans": 1}
    assert layers["inner"] == {"total_s": 6.0, "self_s": 5.0, "spans": 2}
    assert layers["leaf"] == {"total_s": 1.0, "self_s": 1.0, "spans": 1}
    slow = harness.layer_times(spans, {"a": 0.5})
    assert slow["outer"] == {"total_s": 5.0, "self_s": 2.0, "spans": 1}


def test_fails_without_sources(tmp_path):
    """Beside BENCHMARK.json alone, with no quivex to measure, a run must
    fail and print no result line."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
