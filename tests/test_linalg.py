"""Matrix arithmetic, inversion, and kernel computation."""

from __future__ import annotations

import itertools
import random

import pytest

from flab.errors import InvalidInput, SingularPhi
from flab.linalg import Matrix
from flab.rings import DualNumbersRing, Ring, WittRing, make_field, make_ring

Z25 = make_ring("witt", 5, 1, 2)
F5 = make_field(5)
F9 = make_ring("witt", 3, 2, 1)
D5_3 = make_ring("dual_numbers", 5, 1, 3)
F25 = make_field(25)
Z27 = make_ring("witt", 3, 1, 3)
D3_2 = make_ring("dual_numbers", 3, 1, 2)


def random_matrix(ring, n, m, rng):
    return Matrix(ring, [[ring.random_element(rng) for _ in range(m)] for _ in range(n)])


def _column(ring, vec):
    """vec as an n x 1 matrix, for products with a column vector."""
    return Matrix(ring, [[x] for x in vec], ncols=1)


def random_invertible(ring, n, rng):
    while True:
        a = random_matrix(ring, n, n, rng)
        if a.is_invertible():
            return a


def test_exact_division():
    rng = random.Random(3)
    for ring in [Z25, D5_3, make_ring("witt", 3, 2, 3)]:
        for _ in range(200):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            if not b or ring.val(a) < ring.val(b):
                continue
            assert ring.divide(a, b) * b == a
        with pytest.raises(InvalidInput):
            ring.divide(ring.one, ring.pi())


def test_matrix_algebra_basics():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[0, 1], [1, 0]])
    assert a + b - b == a
    assert a * Matrix.identity(F5, 2) == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert 2 * a == a + a
    assert -a + a == Matrix.zero(F5, 2, 2)
    assert a * _column(F5, (F5.one, F5.zero)) == Matrix(F5, [[1], [3]])


def test_products_with_an_empty_dimension():
    a = Matrix(F5, [[1, 2], [3, 4]])
    no_rows = Matrix.zero(F5, 0, 2)
    no_cols = Matrix.zero(F5, 2, 0)
    assert no_rows * a == Matrix.zero(F5, 0, 2)
    assert a * no_cols == no_cols
    # an empty inner dimension gives the zero matrix of the outer shape
    assert no_cols * no_rows == Matrix.zero(F5, 2, 2)
    assert no_rows * no_cols == Matrix.zero(F5, 0, 0)


def test_inverse_round_trip():
    rng = random.Random(5)
    for ring in [F5, F9, Z25, D5_3]:
        for n in [1, 2, 3]:
            a = random_invertible(ring, n, rng)
            assert a * a.inverse() == Matrix.identity(ring, n)
            assert a.inverse() * a == Matrix.identity(ring, n)


def test_inverse_raises_custom_error():
    a = Matrix(Z25, [[5, 0], [0, 1]])
    with pytest.raises(SingularPhi):
        a.inverse(error=SingularPhi("block 0"))
    with pytest.raises(InvalidInput):
        a.inverse()
    assert not a.is_invertible()


def test_kernel_over_field_is_basis():
    a = Matrix(F5, [[1, 2, 3], [2, 4, 6]])
    gens = a.kernel_gens()
    assert len(gens) == 2
    for g in gens:
        assert a * _column(F5, g) == Matrix.zero(F5, 2, 1)
    assert a.rank_field() == 1


def test_kernel_vanishes_for_invertible():
    rng = random.Random(9)
    for ring in [F5, Z25, D5_3]:
        a = random_invertible(ring, 3, rng)
        assert a.kernel_gens() == ()


def test_kernel_generates_everything_brute_force():
    # enumerate the full kernel of small matrices and check that the
    # generating set spans it exactly: six over Z/25, then over the tabled
    # fields F_9 and F_25 and the chain rings Z/27 and F_3[t]/t^2, always
    # with |R|^ncols <= 10^4; (ring, nrows, ncols, s) scales by pi^s, which
    # forces torsion generators
    rng = random.Random(13)
    cases = [(Z25, 2, 2, 0)] * 6 + [
        (F9, 1, 4, 0), (F9, 2, 4, 0), (F9, 3, 4, 0),
        (F25, 1, 2, 0), (F25, 2, 2, 0),
        (Z27, 1, 2, 0), (Z27, 2, 2, 0), (Z27, 2, 2, 1), (Z27, 2, 2, 2),
        (D3_2, 1, 3, 0), (D3_2, 2, 3, 0), (D3_2, 2, 3, 1),
    ]
    for ring, nrows, ncols, s in cases:
        a = random_matrix(ring, nrows, ncols, rng)
        if s:
            a = a * ring.pi_pow(s)
        gens = a.kernel_gens()
        true_kernel = {
            v
            for v in itertools.product(ring.elements(), repeat=ncols)
            if a * _column(ring, v) == Matrix.zero(ring, nrows, 1)
        }
        spanned = {(ring.zero,) * ncols}
        for g in gens:
            spanned = {
                tuple(x + c * y for x, y in zip(v, g))
                for v in spanned
                for c in ring.elements()
            }
        assert spanned == true_kernel, (ring, a)


def test_kernel_with_torsion_generators():
    a = Matrix.diagonal(Z25, [Z25.from_int(5), Z25.one])
    gens = a.kernel_gens()
    assert len(gens) == 1
    g = gens[0]
    assert a * _column(Z25, g) == Matrix.zero(Z25, 2, 1)
    # the kernel is 5R x 0
    assert Z25.val(g[0]) == 1 and g[1] == Z25.zero


def test_zero_row_matrix_kernel():
    a = Matrix(F5, [], ncols=3)
    gens = a.kernel_gens()
    assert len(gens) == 3


def test_kernel_inverts_each_unit_pivot_once(monkeypatch):
    # over a field every pivot is a unit: one inversion per pivot, and the
    # quotients are products with it, never Ring.divide; every inversion
    # runs Ring._inv, which no ring family overrides
    assert all("_inv" not in vars(family) for family in (WittRing, DualNumbersRing))
    ring = F25
    counts = {"inv": 0, "divide": 0}
    inv, divide = Ring._inv, Ring.divide

    def counting_inv(self, a):
        counts["inv"] += 1
        return inv(self, a)

    def counting_divide(self, a, b):
        counts["divide"] += 1
        return divide(self, a, b)

    rng = random.Random(41)
    m = random_matrix(ring, 4, 7, rng)
    monkeypatch.setattr(Ring, "_inv", counting_inv)
    monkeypatch.setattr(Ring, "divide", counting_divide)
    gens = m.kernel_gens()
    rank = 7 - len(gens)
    assert counts == {"inv": rank, "divide": 0}
    for g in gens:
        assert m * Matrix(ring, [[x] for x in g]) == Matrix.zero(ring, 4, 1)
