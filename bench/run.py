"""flab benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload tangent_grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; flab is imported from ./src and
nothing is installed.  The client sends its next op only when the previous
one has returned.  Only the call into flab is timed; the oracle, the
canonical form and the fingerprint run outside the timed window.

Set-up (input generation, ring construction, warm-up of every input
class) runs SETUP_REPEATS times from cleared flab caches; setup_s is the
median.  Timing then runs whole passes over the op list until --seconds of
wall time have gone by, so every pass has the same input mix.  The oracle
checks the results of the first pass; every later pass must reproduce them
byte for byte, which the per-op digests check.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same untraced passes, then one traced pass, and prints the per-layer
metrics.  The last stdout line is the JSON result; the lines before it
give the run context, the output fingerprint and the tail percentile.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def clear_flab_caches():
    for name, mod in list(sys.modules.items()):
        if name == "flab" or name.startswith("flab."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup(build, seed, workdir):
    """Build the ops from a fresh Random(seed) and warm each input class."""
    clear_flab_caches()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = build(random.Random(seed), workdir)
    seen = set()
    for op in ops:
        if op.key not in seen:
            seen.add(op.key)
            op.canon(op.call())
    return ops


class Run:
    """Per-op latencies and digests of the timed passes."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = [[] for _ in ops]
        self.passes = 0
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.diverged = 0

    def record(self, index, op, result):
        """Canonicalize one result; run the oracle on the first pass and
        compare with the first pass's digest afterwards."""
        doc = canonical(op.canon(result))
        if self.digests is None:
            op.oracle(result, json.loads(doc))
            return digest(doc)
        if digest(doc) != self.digests[index]:
            self.diverged += 1
            print(f"op {index}: result differs from the first pass", file=sys.stderr)
        return self.digests[index]

    def one_pass(self, timer):
        """Run every op once; timer(call) returns (result, seconds), with
        seconds None for a pass whose latencies are not recorded."""
        digests = []
        for index, op in enumerate(self.ops):
            self.attempted += 1
            try:
                result, seconds = timer(op.call)
                if seconds is not None:
                    self.latencies[index].append(seconds * 1e3)
                digests.append(self.record(index, op, result))
            except Exception:
                self.failed += 1
                digests.append("failed")
                print(f"op {index} failed:\n{traceback.format_exc()}", file=sys.stderr)
        if self.digests is None:
            self.digests = digests
        self.passes += 1

    def op_ms(self):
        """Median latency of each op over the passes, failed ops left out."""
        return [statistics.median(lat) for lat in self.latencies if lat]


def plain_timer(call):
    t0 = perf_counter()
    result = call()
    return result, perf_counter() - t0


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def layer_metrics(names, totals, n_ops, ratio):
    def get(prefix, field):
        return totals.get(prefix, (0, 0.0, 0))[field]

    special = {
        "pairing.validate_pairing.per_op": get("pairing.validate_pairing", 0) / n_ops,
        "gf.hit_ratio": (
            get("gf.find_nonvanishing_pair", 2) / get("gf.p_polynomial_value", 0)
            if get("gf.p_polynomial_value", 0)
            else 0.0
        ),
        "io.bytes_out": get("io.dumps_canonical", 2),
        "trace.ops_per_s_ratio": ratio,
    }
    fields = {"calls": 0, "self_s": 1, "cells": 2}
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        else:
            prefix, _, kind = name.rpartition(".")
            values[name] = get(prefix, fields[kind])
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if os.path.isdir(os.path.join(SRC, "flab")):
        sys.path.insert(0, SRC)
    try:
        import flab
    except ImportError as exc:
        print(f"flab sources not found under {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(flab.__file__).startswith(SRC + os.sep):
        print(f"refusing flab from outside the checkout: {flab.__file__}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    workdir = os.path.join(BENCH, "_work", f"run-{os.getpid()}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "inherited_FLAB_SIZE_GUARD": os.environ.get("FLAB_SIZE_GUARD"),
    }
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ops = setup(build, args.seed, workdir)
            setup_times.append(perf_counter() - t0)

        run = Run(ops)
        gc.collect()
        start = perf_counter()
        while run.passes < MIN_PASSES or perf_counter() - start < args.seconds:
            run.one_pass(plain_timer)
        op_ms = run.op_ms()
        ops_per_s = 1e3 * len(op_ms) / sum(op_ms)

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                run.one_pass(lambda call: (tracer.run_op(call), None))
            finally:
                tracer.uninstall()
            trace_path = os.path.join(
                BENCH, "_work", f"trace-{args.workload}-seed{args.seed}.json"
            )
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"context": context, "ops": tracer.dump()}, handle)
            traced_ops_per_s = len(tracer.ops) / sum(op[0] for op in tracer.ops)
            ratio = traced_ops_per_s / ops_per_s
            gap = tracer.accounting_gap()
            values = layer_metrics(
                [m["name"] for m in spec["per_layer"]], tracer.totals(), len(ops), ratio
            )
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            print(
                f"tracing overhead: traced {traced_ops_per_s:.3f} ops/s against "
                f"untraced {ops_per_s:.3f} ops/s (ratio {ratio:.3f}); largest "
                f"per-op gap between root span and summed self times {gap:.3e} s; "
                f"spans in {os.path.relpath(trace_path, ROOT)}"
            )
            accounting_ok = gap < 1e-6
        else:
            tail_ms, tail_pct, beyond = tail(op_ms)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "ops_per_s": ops_per_s,
                "op_ms.p50": statistics.median(op_ms),
                "op_ms.tail": tail_ms,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mib": rss_kib / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            print(
                f"op_ms.tail {tail_ms:.3f} ms is p{tail_pct:.2f} of {len(op_ms)} "
                f"per-op median latencies ({beyond} beyond it), {run.passes} passes"
            )
            accounting_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fingerprint = digest("".join(run.digests))
    print("context " + canonical(context))
    print(
        f"fingerprint {args.workload} seed {args.seed}: sha256 {fingerprint} "
        f"over {len(ops)} ops"
    )
    print(
        f"failed_ratio {run.failed / run.attempted:.6f} "
        f"({run.failed} of {run.attempted}); "
        f"setup_s runs {[round(t, 4) for t in setup_times]}"
    )
    correct = run.failed == 0 and run.diverged == 0 and accounting_ok
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
