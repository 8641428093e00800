"""Smoke test of tools/interleave.py, the A/B of two checkouts in one process."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# appended to the copied bench/workloads.py: op 5 of tangent_grid gains a key
PERTURB_OP_5 = """
_tangent_grid = tangent_grid


def tangent_grid(rng, workdir):
    ops = _tangent_grid(rng, workdir)
    canon = ops[5].canon
    ops[5].canon = lambda rep: dict(canon(rep), perturbed=True)
    return ops


WORKLOADS["tangent_grid"] = tangent_grid
"""


def _interleave(change, workload):
    cmd = [
        sys.executable, os.path.join(ROOT, "tools", "interleave.py"),
        "--parent", ROOT, "--change", change,
        "--workload", workload, "--seed", "1", "--reps", "1",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)


@pytest.mark.parametrize("workload", ["tangent_grid", "lift_towers", "module_algebra", "cli_docs"])
def test_interleave_runs_this_checkout_against_itself(workload):
    done = _interleave(ROOT, workload)
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


def test_interleave_catches_a_changed_result(tmp_path):
    change = tmp_path / "change"
    for part in ("src", "bench", "tools"):
        shutil.copytree(
            os.path.join(ROOT, part), change / part,
            ignore=shutil.ignore_patterns("__pycache__", "_work"),
        )
    with open(change / "bench" / "workloads.py", "a", encoding="utf-8") as fh:
        fh.write(PERTURB_OP_5)
    done = _interleave(str(change), "tangent_grid")
    assert done.returncode == 1, done.stderr
    assert "every canonical result identical" not in done.stdout
    # whichever side ran op 5 second is the one named
    assert done.stderr.startswith("op 5 (class "), done.stderr
    assert "result differs from the first result of this op" in done.stderr
