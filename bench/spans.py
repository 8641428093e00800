"""Per-layer tracing of flab calls, installed from outside the library.

The tracer wraps public functions and methods of each layer for the length
of one traced pass and restores them afterwards; nothing under src/ knows
about it.  A function imported by name into another flab module (for
example flab.tangent.validate) is a separate binding, so every flab module
namespace holding the same object is patched, or calls through it would
escape the trace.

Spans nest: a span's self time is its duration minus the time covered by
its child spans, so within one op the self times of all spans plus the
op's own self time add up to the op's root span.  Counted targets only
bump a counter and add their cost to the enclosing span.  Everything is
kept in memory as per-op aggregates and read out after the pass.
"""

from __future__ import annotations

import sys
from time import perf_counter

from flab.linalg import Matrix

SPAN = "span"
COUNT = "count"


def _cells(args, result):
    return args[0].nrows * args[0].ncols


def _found(args, result):
    return 1


def _nbytes(args, result):
    return len(result.encode("utf-8"))


def _is_matmul(args):
    return isinstance(args[1], Matrix)


# (defining module, attribute path, metric prefix, kind, work, predicate)
# work(args, result) adds to the span's work total: cells for eliminations,
# pairs found for the subfield search, output bytes for serialization.
TARGETS = (
    ("flab.rings", "RingElem.__mul__", "rings.elem_mul", COUNT, None, None),
    ("flab.rings", "RingElem.__rmul__", "rings.elem_mul", COUNT, None, None),
    ("flab.rings", "Ring.inv", "rings.inv", SPAN, None, None),
    ("flab.rings", "Ring.divide", "rings.divide", COUNT, None, None),
    ("flab.rings", "Ring.unit_sqrt", "rings.unit_sqrt", SPAN, None, None),
    ("flab.linalg", "Matrix.__init__", "linalg.matrix_new", COUNT, None, None),
    ("flab.linalg", "Matrix.__mul__", "linalg.matmul", SPAN, None, _is_matmul),
    ("flab.linalg", "Matrix.inverse", "linalg.inverse", SPAN, _cells, None),
    ("flab.linalg", "Matrix.kernel_gens", "linalg.kernel_gens", SPAN, _cells, None),
    ("flab.modules", "validate", "modules.validate", SPAN, None, None),
    ("flab.modules", "tensor", "modules.tensor", SPAN, None, None),
    ("flab.modules", "dual", "modules.dual", SPAN, None, None),
    ("flab.modules", "hom_mf", "modules.hom_mf", SPAN, None, None),
    ("flab.modules", "is_morphism", "modules.is_morphism", SPAN, None, None),
    ("flab.pairing", "validate_pairing", "pairing.validate_pairing", SPAN, None, None),
    ("flab.pairing", "normalize_standard", "pairing.normalize_standard", SPAN, None, None),
    ("flab.pairing", "change_basis", "pairing.change_basis", SPAN, None, None),
    ("flab.lifting", "lift_small", "lifting.lift_small", SPAN, None, None),
    ("flab.lifting", "build_correction_system", "lifting.build_correction_system", SPAN, None, None),
    ("flab.lifting", "solve_correction", "lifting.solve_correction", SPAN, None, None),
    ("flab.tangent", "tangent_report", "tangent.tangent_report", SPAN, None, None),
    ("flab.tangent", "delta_space", "tangent.delta_space", SPAN, None, None),
    ("flab.tangent", "fil0_subspace", "tangent.fil0_subspace", SPAN, None, None),
    ("flab.tangent", "end_mf_pairing", "tangent.end_mf_pairing", SPAN, None, None),
    ("flab.simples", "minimal_period", "simples.minimal_period", COUNT, None, None),
    ("flab.simples", "tensor_decompose", "simples.tensor_decompose", SPAN, None, None),
    ("flab.simples", "all_embeddings", "simples.all_embeddings", SPAN, None, None),
    ("flab.simples", "summand_embedding", "simples.summand_embedding", COUNT, None, None),
    ("flab.gf", "find_nonvanishing_pair", "gf.find_nonvanishing_pair", SPAN, _found, None),
    ("flab.gf", "field_generator", "gf.field_generator", SPAN, None, None),
    ("flab.gf", "p_polynomial_value", "gf.p_polynomial_value", COUNT, None, None),
    ("flab.feasibility", "feasibility_report", "feasibility.feasibility_report", SPAN, None, None),
    ("flab.io", "document_to_object", "io.document_to_object", SPAN, None, None),
    ("flab.io", "dumps_canonical", "io.dumps_canonical", SPAN, _nbytes, None),
    ("flab.cli", "main", "cli.main", SPAN, None, None),
)


class Tracer:
    """Span stack plus per-op aggregates {prefix: [calls, self_s, work]}."""

    def __init__(self):
        self.stack = []
        self.current = None
        self.ops = []
        self._restore = []

    # -- recording -------------------------------------------------------------

    def run_op(self, call):
        """Run call() as one op under a root span; return its result."""
        self.current = {}
        root = [0.0]
        self.stack = [root]
        t0 = perf_counter()
        try:
            return call()
        finally:
            duration = perf_counter() - t0
            self.stack = []
            self.ops.append((duration, duration - root[0], self.current))
            self.current = None

    def _span(self, prefix, fn, work, when):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                stack[-1][0] += duration
                rec = tracer.current.get(prefix)
                if rec is None:
                    rec = tracer.current[prefix] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += duration - frame[0]
            if work is not None:
                rec[2] += work(args, result)
            return result

        return wrapper

    def _count(self, prefix, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.stack:
                rec = tracer.current.get(prefix)
                if rec is None:
                    rec = tracer.current[prefix] = [0, 0.0, 0]
                rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "flab" or name.startswith("flab.")
        ]
        for modname, path, prefix, kind, work, when in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == SPAN:
                wrapper = self._span(prefix, original, work, when)
            else:
                wrapper = self._count(prefix, original)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- read-out --------------------------------------------------------------

    def totals(self):
        """Sum the per-op aggregates over all ops of the pass."""
        out = {}
        for _, _, spans in self.ops:
            for prefix, (calls, self_s, work) in spans.items():
                acc = out.setdefault(prefix, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += work
        return out

    def accounting_gap(self):
        """Largest |root span - sum of self times| over the ops, in seconds."""
        gap = 0.0
        for duration, root_self, spans in self.ops:
            total = root_self + sum(rec[1] for rec in spans.values())
            gap = max(gap, abs(duration - total))
        return gap

    def dump(self):
        """Per-op span aggregates as plain data, for writing out at the end."""
        return [
            {"root_s": duration, "self_s": root_self, "spans": spans}
            for duration, root_self, spans in self.ops
        ]
