"""The per-layer tracer of bench/spans.py finds every target it wraps.

Tracer.install looks each target up in its owner's __dict__, so a method
moved into a subclass, or a function renamed or deleted, would otherwise
fail only in a traced benchmark run, as a KeyError.  The tracer module is
loaded from its file as it is.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

from flab.rings import DualNumbersRing, Ring, WittRing

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py"
)


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_in_its_owners_dict():
    targets = _tracer_targets()
    assert targets
    for modname, path, *_ in targets:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (modname, path)


def test_no_ring_family_overrides_a_traced_ring_method():
    # a family's own copy would run untraced
    for name in ("inv", "divide", "unit_sqrt"):
        assert name in Ring.__dict__
        for family in (WittRing, DualNumbersRing):
            assert name not in family.__dict__, (family, name)
