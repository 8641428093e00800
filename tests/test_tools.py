"""Smoke test of tools/interleave.py, the A/B of two checkouts in one process."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["tangent_grid", "lift_towers", "module_algebra"])
def test_interleave_runs_this_checkout_against_itself(workload):
    cmd = [
        sys.executable, os.path.join(ROOT, "tools", "interleave.py"),
        "--parent", ROOT, "--change", ROOT,
        "--workload", workload, "--seed", "1", "--reps", "1",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["workload"], result["seed"], result["reps"]) == (workload, 1, 1)
    assert result["ops"] > 0
    for side in ("parent", "change"):
        metrics = result[side]
        assert set(metrics) == {"ops_per_s", "op_ms.p50", "op_ms.tail"}
        assert all(value > 0 for value in metrics.values())
    assert "every canonical result identical on both sides" in done.stdout
    classes = result["classes"]
    assert sum(row["ops"] for row in classes.values()) == result["ops"]
    tail_ops = result["tail_ops"]
    assert len(tail_ops) == min(11, result["ops"])
    assert all(op["class"] in classes for op in tail_ops)
    assert [op["parent_ms"] for op in tail_ops] == sorted(
        (op["parent_ms"] for op in tail_ops), reverse=True
    )
