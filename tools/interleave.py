"""A/B of two flab checkouts in one process, alternating op by op.

    python3 tools/interleave.py --parent DIR --change DIR --workload W --seed N --reps R

Each side is a source checkout: flab is imported from DIR/src and the
workload from DIR/bench/workloads.py, once per side, so the two sides run
side by side as separate module trees.  Both build the ops of one workload
and seed, and set up as bench/run.py does.  Every op's canonical result
must then be byte for byte the same on both sides, on every repetition;
any difference ends the run with exit status 1.

Each repetition runs every op once on each side, and the side that runs
first alternates from op to op and from one repetition to the next.  Per
side, each op's latency is its median over the repetitions, and ops_per_s,
op_ms.p50 and op_ms.tail are computed from those medians as bench/run.py
computes them (its canonical form, set-up and tail are used as they are).
The last stdout line is a JSON result with both sides and change ÷ parent,
plus two breakdowns of the per-op medians: ``classes``, the summed
latency of each op class (the workload's op key) on both sides, and
``tail_ops``, the parent's slowest ops, from the one that sets op_ms.tail
up, with their latency on both sides.  Only the standard library is
needed, and nothing is written under either checkout: the workload's files
go to a temporary directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from time import perf_counter

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py")


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _take_modules():
    """Remove flab and the workload module from sys.modules; return them."""
    names = [
        name for name in sys.modules
        if name in ("flab", "workloads") or name.startswith("flab.")
    ]
    return {name: sys.modules.pop(name) for name in names}


class Side:
    """One checkout's flab and workload modules, entered before each call."""

    def __init__(self, label, root):
        self.label = label
        root = os.path.abspath(root)
        src = os.path.join(root, "src")
        bench = os.path.join(root, "bench")
        _take_modules()
        sys.path[:0] = [src, bench]
        try:
            flab = importlib.import_module("flab")
            self.workloads = importlib.import_module("workloads")
        finally:
            del sys.path[:2]
        if not os.path.abspath(flab.__file__).startswith(src + os.sep):
            raise SystemExit(f"{label}: flab not found under {src}")
        self.modules = _take_modules()
        self.ops = None
        self.latencies = None

    def enter(self):
        sys.modules.update(self.modules)

    def op_ms(self):
        return [statistics.median(lat) for lat in self.latencies]

    def metrics(self, bench_run):
        op_ms = self.op_ms()
        return {
            "ops_per_s": 1e3 * len(op_ms) / sum(op_ms),
            "op_ms.p50": statistics.median(op_ms),
            "op_ms.tail": bench_run.tail(op_ms)[0],
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    bench_run = _load_bench_run()
    sides = [Side("parent", args.parent), Side("change", args.change)]
    with tempfile.TemporaryDirectory(prefix="flab-interleave-") as tmp:
        for side in sides:
            if args.workload not in side.workloads.WORKLOADS:
                print(f"{side.label}: unknown workload {args.workload!r}", file=sys.stderr)
                return 2
            side.enter()
            build = side.workloads.WORKLOADS[args.workload]
            side.ops = bench_run.setup(build, args.seed, os.path.join(tmp, side.label))
            side.latencies = [[] for _ in side.ops]
        n_ops = len(sides[0].ops)
        if len(sides[1].ops) != n_ops:
            print(f"op counts differ: {n_ops} and {len(sides[1].ops)}", file=sys.stderr)
            return 1
        expected = [None] * n_ops
        gc.collect()
        for rep in range(args.reps):
            for index in range(n_ops):
                first = (index + rep) % 2
                for side in (sides[first], sides[1 - first]):
                    op = side.ops[index]
                    side.enter()
                    t0 = perf_counter()
                    result = op.call()
                    side.latencies[index].append((perf_counter() - t0) * 1e3)
                    doc = bench_run.canonical(op.canon(result))
                    if expected[index] is None:
                        expected[index] = doc
                    elif doc != expected[index]:
                        print(
                            f"op {index}, repetition {rep}: the {side.label} result "
                            "differs from the first result of this op",
                            file=sys.stderr,
                        )
                        return 1

    parent, change = (side.metrics(bench_run) for side in sides)
    for side, values in zip(sides, (parent, change)):
        print(f"{side.label}: " + ", ".join(f"{k} {v:.4f}" for k, v in values.items()))
    breakdown = _breakdown(sides, bench_run)
    for name, row in breakdown["classes"].items():
        print(f"class {name}: {row['ops']} ops, {row['parent_ms']:.3f} -> "
              f"{row['change_ms']:.3f} ms, x{row['ratio']:.3f}")
    print(
        f"{args.workload} seed {args.seed}: {n_ops} ops, {args.reps} repetitions, "
        "every canonical result identical on both sides"
    )
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "reps": args.reps,
        "ops": n_ops,
        "parent": parent,
        "change": change,
        "ratio": {name: change[name] / parent[name] for name in parent},
        **breakdown,
    }))
    return 0


def _breakdown(sides, bench_run):
    """Per-class sums and the tail ops of the per-op medians of both sides."""
    parent_ms, change_ms = (side.op_ms() for side in sides)
    classes = {}
    for op, a, b in zip(sides[0].ops, parent_ms, change_ms):
        row = classes.setdefault(str(op.key), {"ops": 0, "parent_ms": 0.0, "change_ms": 0.0})
        row["ops"] += 1
        row["parent_ms"] += a
        row["change_ms"] += b
    for row in classes.values():
        row["ratio"] = row["change_ms"] / row["parent_ms"]
    slowest = sorted(range(len(parent_ms)), key=parent_ms.__getitem__, reverse=True)
    tail_ops = [
        {
            "op": i,
            "class": str(sides[0].ops[i].key),
            "parent_ms": parent_ms[i],
            "change_ms": change_ms[i],
            "ratio": change_ms[i] / parent_ms[i],
        }
        for i in slowest[: bench_run.TAIL_BEYOND + 1]
    ]
    return {"classes": classes, "tail_ops": tail_ops}


if __name__ == "__main__":
    sys.exit(main())
