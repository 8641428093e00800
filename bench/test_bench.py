"""Checks of the benchmark itself: layer coverage, determinism, isolation.

    python3 -m pytest bench/test_bench.py -q

Each test runs bench/run.py in a subprocess from the checkout root, the way
it is run for measurement, with a short --seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tangent_grid", "lift_towers", "module_algebra", "cli_docs")

# metric -> workloads on which it must be nonzero: the workload each
# per-layer metric is expected to move, where the layer does work there
MUST_MOVE = {
    "linalg.kernel_gens.calls": ("tangent_grid",),
    "linalg.kernel_gens.cells": ("tangent_grid",),
    "linalg.inverse.calls": ("lift_towers", "tangent_grid"),
    "linalg.inverse.cells": ("lift_towers", "tangent_grid"),
    "linalg.matmul.calls": ("lift_towers", "tangent_grid"),
    "linalg.matrix_new.calls": ("lift_towers", "tangent_grid"),
    "rings.elem_mul.calls": ("tangent_grid", "lift_towers"),
    "rings.inv.calls": ("tangent_grid", "lift_towers"),
    "rings.divide.calls": ("tangent_grid",),
    "rings.unit_sqrt.calls": ("lift_towers",),
    "pairing.validate_pairing.calls": ("lift_towers", "cli_docs"),
    "pairing.validate_pairing.per_op": ("lift_towers", "cli_docs"),
    "pairing.normalize_standard.calls": ("lift_towers", "cli_docs"),
    "pairing.change_basis.calls": ("lift_towers", "cli_docs"),
    "lifting.lift_small.calls": ("lift_towers",),
    "lifting.lift_small.self_s": ("lift_towers",),
    "lifting.build_correction_system.self_s": ("lift_towers",),
    "lifting.solve_correction.self_s": ("lift_towers",),
    "tangent.tangent_report.self_s": ("tangent_grid",),
    "tangent.delta_space.self_s": ("tangent_grid",),
    "tangent.fil0_subspace.self_s": ("tangent_grid",),
    "tangent.end_mf_pairing.self_s": ("tangent_grid",),
    "modules.validate.calls": ("module_algebra", "lift_towers"),
    "modules.tensor.calls": ("module_algebra",),
    "modules.dual.calls": ("module_algebra",),
    "modules.hom_mf.calls": ("module_algebra",),
    "modules.is_morphism.calls": ("module_algebra",),
    "simples.minimal_period.calls": ("module_algebra",),
    "simples.tensor_decompose.calls": ("module_algebra",),
    "simples.all_embeddings.calls": ("module_algebra",),
    "simples.summand_embedding.calls": ("module_algebra",),
    "gf.find_nonvanishing_pair.calls": ("module_algebra",),
    "gf.field_generator.calls": ("module_algebra",),
    "gf.hit_ratio": ("module_algebra",),
    "feasibility.feasibility_report.self_s": ("cli_docs",),
    "io.document_to_object.self_s": ("cli_docs",),
    "io.dumps_canonical.self_s": ("cli_docs",),
    "io.bytes_out": ("cli_docs",),
    "cli.main.self_s": ("cli_docs",),
}

# metric -> workload that bypasses the layer: the prediction there is no change
MUST_NOT_MOVE = {
    "linalg.kernel_gens.calls": "lift_towers",
    "pairing.validate_pairing.calls": "module_algebra",
    "pairing.normalize_standard.calls": "module_algebra",
    "pairing.change_basis.calls": "module_algebra",
}


def bench(workload, seed, trace, cwd=ROOT, env=None):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return out


def parse(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint.split(" sha256 ")[1]


@pytest.fixture(scope="module")
def traced():
    return {w: parse(bench(w, 3, 1))[0] for w in WORKLOADS}


def test_benchmark_json_matches_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(MUST_MOVE) <= per_layer
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_layer_metric_moves_where_expected(traced):
    names = None
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert names is None or set(result["metrics"]) == names
        names = set(result["metrics"])
    for metric, workloads in MUST_MOVE.items():
        for workload in workloads:
            assert traced[workload]["metrics"][metric]["value"] > 0, (metric, workload)
    for metric, workload in MUST_NOT_MOVE.items():
        assert traced[workload]["metrics"][metric]["value"] == 0, (metric, workload)


def test_same_seed_repeats_counts_and_fingerprint(traced):
    again, fingerprint = parse(bench("module_algebra", 3, 1))
    _, fingerprint_untraced = parse(bench("module_algebra", 3, 0))
    assert fingerprint == fingerprint_untraced
    first = traced["module_algebra"]["metrics"]
    for name, metric in again["metrics"].items():
        if metric["unit"] in ("count", "bytes", "calls/op"):
            assert metric["value"] == first[name]["value"], name


def test_inherited_size_guard_does_not_change_the_workload():
    env = dict(os.environ, FLAB_SIZE_GUARD="10")
    _, with_env = parse(bench("module_algebra", 4, 0, env=env))
    env.pop("FLAB_SIZE_GUARD")
    _, without = parse(bench("module_algebra", 4, 0, env=env))
    assert with_env == without


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    out = bench("tangent_grid", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
