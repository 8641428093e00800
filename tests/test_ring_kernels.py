"""Every private ring kernel of every catalogue ring against the reference.

The kernels are the raw arithmetic that flab.linalg and the ring algorithms
run on: _add, _sub, _mul, _conv_mul (Witt rings), _dot, _row_submul,
_row_scale and _inv.  A ring of at most EXHAUSTIVE elements is checked on
all pairs of its elements, a larger one on a seeded sample that holds the
extremes.  A tabled field is also checked on the first call of each kernel
on a fresh copy, which builds the tables.  A line trace then requires the
catalogue to reach every statement of every kernel in flab.rings, so a fast
path that no catalogue ring takes fails here rather than going unchecked.
"""

from __future__ import annotations

import ast
import inspect
import random
import sys

import pytest
from ring_catalogue import CATALOGUE, reference, ring_id, ring_subclasses

import flab.rings

KERNELS = ("_add", "_sub", "_mul", "_conv_mul", "_dot", "_row_submul", "_row_scale", "_inv")
EXHAUSTIVE = 100
SAMPLES = 48


def _top(ring):
    """The element whose coefficients are all at their largest."""
    if ring.family == "witt":
        return (ring.p**ring.level - 1,) * ring.f
    return ((ring.p - 1,) * ring.f,) * ring.level


def _elements(ring, rng):
    """Every element of a small ring, else a seeded sample with the
    extremes and, for k[t]/t^n, elements with about half their
    coefficients zero, as the lifts of a tower have."""
    if ring.size <= EXHAUSTIVE:
        return [x.data for x in ring.elements()]
    _, sub, _ = reference(ring)
    zero, one = ring.zero.data, ring.one.data
    elems = [zero, one, sub(zero, one), _top(ring), ring.pi().data]
    elems += [ring.random_element(rng).data for _ in range(SAMPLES)]
    if ring.family == "dual_numbers":
        k = ring.residue_ring()
        elems += [
            tuple(k._rand_data(rng) if rng.random() < 0.5 else k.zero.data for _ in range(ring.level))
            for _ in range(SAMPLES // 4)
        ]
    return elems


def _first_calls(ring, elems):
    """Each kernel's first call on a fresh copy of a tabled field."""
    add, sub, mul = reference(ring)
    zero = ring.zero.data
    a, b = [x for x in elems if x != zero][1:3]

    def fresh():
        copy = type(ring)(ring.p, ring.f, ring.level, ring.minimal_poly)
        assert copy._tables is None
        return copy

    assert fresh()._add(a, b) == add(a, b)
    assert fresh()._sub(a, b) == sub(a, b)
    assert fresh()._mul(a, b) == mul(a, b)
    assert fresh()._dot([a, b], [b, a]) == add(mul(a, b), mul(b, a))
    assert fresh()._row_scale([a, zero], b) == [mul(a, b), zero]
    row = [a]
    fresh()._row_submul(row, b, [(0, b)])
    assert row == [sub(a, mul(b, b))]


def check_kernels(ring):
    """Assert that every kernel of ring agrees with the reference."""
    rng = random.Random(ring_id(ring))
    add, sub, mul = reference(ring)
    zero, one = ring.zero.data, ring.one.data
    elems = _elements(ring, rng)
    partners = elems if ring.size <= EXHAUSTIVE else elems[::4]
    witt = ring.family == "witt"
    for a in elems:
        for b in partners:
            product = mul(a, b)
            assert ring._add(a, b) == add(a, b), ("_add", a, b)
            assert ring._sub(a, b) == sub(a, b), ("_sub", a, b)
            assert ring._mul(a, b) == product, ("_mul", a, b)
            assert not witt or ring._conv_mul(a, b) == product, ("_conv_mul", a, b)
        if ring._is_unit(a):
            assert mul(a, ring._inv(a)) == one, ("_inv", a)
    if witt and ring._tables is not False:
        _first_calls(ring, elems)

    nonzero = [x for x in elems if x != zero]
    units = [x for x in nonzero if ring._is_unit(x)]
    cases = []
    for width in (0, 1, 2, 3, 5, 9, 16):
        for _ in range(6):
            row, other = (
                [rng.choice(nonzero) if rng.random() < 0.65 else zero for _ in range(width)]
                for _ in range(2)
            )
            cases.append((row, rng.choice(nonzero), other))
        cases.append(([zero] * width, rng.choice(nonzero), [rng.choice(nonzero) for _ in range(width)]))
    for _ in range(6):
        c, b, u = rng.choice(nonzero), rng.choice(nonzero), rng.choice(units)
        # row - c b vanishes, and so does c b + u 0 + c (-b)
        cases.append(([mul(c, b)] * 3, c, [b, b, b]))
        cases.append(([c, u, c], c, [b, zero, sub(zero, b)]))
    # a long dot product of the extremes, far past one reduction per term
    top = _top(ring)
    cases.append(([top] * 50, top, [top] * 50))
    for row, c, other in cases:
        expected = zero
        for x, y in zip(row, other):
            expected = add(expected, mul(x, y))
        assert ring._dot(row, other) == expected, ("_dot", row, other)
        pairs = [(j, b) for j, b in enumerate(other) if b != zero]
        updated = list(row)
        ring._row_submul(updated, c, pairs)
        expected = list(row)
        for j, b in pairs:
            expected[j] = sub(expected[j], mul(c, b))
        assert updated == expected, ("_row_submul", row, c, pairs)
        for s in (c, zero, one):
            scaled = ring._row_scale(row, s)
            assert scaled == [mul(s, x) for x in row] and scaled is not row, ("_row_scale", row, s)


@pytest.mark.parametrize("ring", CATALOGUE, ids=ring_id)
def test_every_kernel_matches_the_reference(ring):
    check_kernels(ring)


def _kernel_statement_lines():
    """(class, kernel) -> the line of each statement of that kernel's body,
    for every kernel defined in flab.rings."""
    tree = ast.parse(inspect.getsource(flab.rings))
    lines = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in KERNELS:
                body = fn.body
                if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]  # the docstring runs no code
                lines[cls.name, fn.name] = {
                    node.lineno
                    for stmt in body
                    for node in ast.walk(stmt)
                    if isinstance(node, ast.stmt)
                }
    return lines


def test_the_catalogue_reaches_every_statement_of_every_kernel():
    expected = _kernel_statement_lines()
    # every class of flab.rings that defines a kernel is a ring class
    classes = {cls.__name__ for cls in ring_subclasses()} | {"Ring"}
    assert {name for name, _ in expected} <= classes and ("Ring", "_inv") in expected
    filename = flab.rings.__file__
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for ring in CATALOGUE:
            check_kernels(ring)
    finally:
        sys.settrace(previous)
    missing = {key: sorted(lines - reached) for key, lines in expected.items() if lines - reached}
    assert not missing, missing
