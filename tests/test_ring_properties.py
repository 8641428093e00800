"""Property suites for both ring families at levels 1-3.

The rings are the GRID of the shared ring catalogue: f = 1, 2 and 3.
Elements are drawn as raw coefficient data and validated by Ring.elem, so
every element of every ring below can come up: the ring axioms, Frobenius
as an automorphism of order f, the postconditions of inv, divide and
unit_sqrt, and reduce_to after lift_from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ring_catalogue import GRID

from flab.errors import InvalidInput
from flab.rings import make_ring

SUITE = settings(max_examples=20, deadline=None)


def elements(ring):
    """Every element of ring, drawn through its raw data."""
    if ring.family == "witt":
        coeff = st.integers(min_value=0, max_value=ring.p**ring.level - 1)
        return st.tuples(*[coeff] * ring.f).map(ring.elem)
    residue = elements(ring.residue_ring()).map(lambda x: x.data)
    return st.tuples(*[residue] * ring.level).map(ring.elem)


def units(ring):
    return elements(ring).filter(ring.is_unit)


def ring_params(fn):
    return pytest.mark.parametrize("ring", GRID, ids=repr)(SUITE(fn))


@ring_params
@given(data=st.data())
def test_ring_axioms(ring, data):
    a, b, c = (data.draw(elements(ring)) for _ in range(3))
    zero, one = ring.zero, ring.one
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (-a) == zero
    assert a - b == a + (-b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c
    assert 3 * a == a + a + a


@ring_params
@given(data=st.data())
def test_frobenius_is_an_automorphism_of_order_f(ring, data):
    a, b = (data.draw(elements(ring)) for _ in range(2))
    frob = ring.frobenius
    assert frob(a + b) == frob(a) + frob(b)
    assert frob(a * b) == frob(a) * frob(b)
    assert frob(ring.one) == ring.one
    k = ring.residue_ring()
    assert ring.residue(frob(a)) == ring.residue(a) ** ring.p
    x = a
    for _ in range(ring.f):
        x = frob(x)
    assert x == a
    # the root of the minimal polynomial generates k over F_p, so no proper
    # power of Frobenius fixes it: the order is exactly f
    theta = ring.lift_from(k.elem((0, 1) + (0,) * (ring.f - 2))) if ring.f > 1 else None
    y = theta
    for _ in range(1, ring.f):
        y = frob(y)
        assert y != theta


@ring_params
@given(data=st.data())
def test_inv_and_divide_postconditions(ring, data):
    a, b = (data.draw(elements(ring)) for _ in range(2))
    if ring.is_unit(a):
        assert a * ring.inv(a) == ring.one
    else:
        with pytest.raises(InvalidInput):
            ring.inv(a)
    if ring.val(a) >= ring.val(b):
        assert ring.divide(a, b) * b == a
    else:
        with pytest.raises(InvalidInput):
            ring.divide(a, b)


@ring_params
@given(data=st.data())
def test_unit_sqrt_postconditions(ring, data):
    v = data.draw(units(ring))
    u = v * v
    s = ring.unit_sqrt(u)
    assert s * s == u
    k = ring.residue_ring()
    roots = [r for r in k.elements() if r * r == ring.residue(u)]
    assert ring.residue(s) == min(roots, key=k.encode)
    w = data.draw(units(ring))
    if not any(r * r == ring.residue(w) for r in k.elements()):
        with pytest.raises(InvalidInput):
            ring.unit_sqrt(w)


@ring_params
@given(data=st.data())
def test_reduce_after_lift_is_the_identity(ring, data):
    for level in range(1, ring.level + 1):
        low = make_ring(ring.family, ring.p, ring.f, level)
        x = data.draw(elements(low))
        assert ring.reduce_to(ring.lift_from(x), low) == x
    kappa = data.draw(elements(ring.residue_ring()))
    assert ring.residue(ring.lift_from(kappa)) == kappa
