"""Subfield towers and the additive-polynomial search."""

from __future__ import annotations

import itertools
import time

import pytest

from flab import errors
from flab.gf import (
    DEFAULT_SIZE_GUARD,
    field_generator,
    find_nonvanishing_pair,
    p_polynomial_value,
    prime_power,
    q_power_frobenius,
    size_limit,
    subfield_generator,
)
from flab.linalg import Matrix
from flab.rings import LOG_TABLE_MAX_Q, PRIME_TRIAL_BOUND, make_field, make_ring


def test_prime_power_splitting():
    assert prime_power(2) == (2, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(25) == (5, 2)
    assert prime_power(27) == (3, 3)
    assert prime_power(31) == (31, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(errors.InvalidInput, match=f"^{bad} is not a prime power$"):
            prime_power(bad)


def test_prime_power_fails_fast_on_a_huge_prime():
    huge = 2**61 - 1
    start = time.perf_counter()
    with pytest.raises(
        errors.InvalidInput,
        match=f"^{huge} has no prime factor up to the trial-division bound "
        f"{PRIME_TRIAL_BOUND}$",
    ):
        prime_power(huge)
    assert time.perf_counter() - start < 1.0


def test_field_generator_smallest_encoding():
    assert field_generator(make_field(2)) == make_field(2).one
    assert field_generator(make_field(3)) == make_field(3).from_int(2)
    assert field_generator(make_field(5)) == make_field(5).from_int(2)
    # 2 has order 3 in F_7; the first generator is 3.
    assert field_generator(make_field(7)) == make_field(7).from_int(3)
    f4 = make_field(4)
    omega = f4.elem((0, 1))
    assert field_generator(f4) == omega
    assert omega * omega == omega + f4.one


def test_field_generator_orders():
    for q in (4, 8, 9, 16, 25, 27):
        field = make_field(q)
        g = field_generator(field)
        seen = {field.encode(field.one)}
        x = g
        while x != field.one:
            seen.add(field.encode(x))
            x = x * g
        assert len(seen) == q - 1


def _prime_powers_up_to(bound):
    out = []
    for q in range(2, bound + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1:
            out.append((q, p, e))
    return out


def _order_by_counting(field, x):
    # multiplicative order by repeated convolution products, no log tables
    one = field.one.data
    y, n = x, 1
    while y != one:
        y = field._conv_mul(y, x)
        n += 1
    return n


def test_field_generator_against_brute_force_orders():
    # every field with q <= 512: the smallest-encoding element of order q - 1
    fields = _prime_powers_up_to(512)
    assert (2, 2, 1) in fields and (512, 2, 9) in fields and (509, 509, 1) in fields
    for q, p, e in fields:
        field = make_field(q)
        expected = None
        for code in range(1, q):
            data = tuple((code // p**i) % p for i in range(e))
            if _order_by_counting(field, data) == q - 1:
                expected = data
                break
        assert field_generator(field).data == expected, q


def test_field_generator_matches_the_log_tables():
    # every tabled field: the tables are powers of the same generator
    tabled = [q for q, _, e in _prime_powers_up_to(LOG_TABLE_MAX_Q) if e > 1]
    assert len(tabled) == 40
    for q in tabled:
        field = make_field(q)
        log, exp = field._field_tables()
        g = field_generator(field).data
        assert exp[1] == g and log[g] == 1, q


def _subfield_elements(big, q, d):
    """Reference for subfield_generator: all q^d elements of the copy of
    F_{q^d} inside the field big, ascending encoding.

    Computed independently of the generator route: the subfield is the kernel
    of the F_p-linear map x |-> x^{q^d} - x on a power basis of big.
    """
    p, e = prime_power(q)
    n = big.f
    assert big.is_field() and big.p == p and n % (e * d) == 0
    fp = make_field(p)
    columns = []
    for i in range(n):
        basis_vec = big.elem(tuple(1 if j == i else 0 for j in range(n)))
        diff = q_power_frobenius(basis_vec, q, d) - basis_vec
        columns.append(diff.data)
    mat = Matrix(
        fp,
        [[fp.from_int(columns[j][i]) for j in range(n)] for i in range(n)],
        ncols=n,
    )
    kernel = mat.kernel_gens()
    assert len(kernel) == e * d
    gens = [big.elem(tuple(int(v.data[0]) for v in vec)) for vec in kernel]
    out = []
    for coeffs in itertools.product(range(p), repeat=len(gens)):
        acc = big.zero
        for c, gen in zip(coeffs, gens):
            if c:
                acc = acc + big.from_int(c) * gen
        out.append(acc)
    assert len({x.data for x in out}) == q**d
    return sorted(out, key=big.encode)


def test_subfield_elements_are_the_frobenius_fixed_points():
    big = make_field(16)
    sub = _subfield_elements(big, 2, 2)
    assert len(sub) == 4
    for x in sub:
        assert q_power_frobenius(x, 2, 2) == x
    for x, y in zip(sub, sub[1:]):
        assert big.encode(x) < big.encode(y)
    codes = {big.encode(x) for x in sub}
    for x in sub:
        for y in sub:
            assert big.encode(x * y) in codes
            assert big.encode(x + y) in codes
    assert _subfield_elements(big, 2, 1) == [big.zero, big.one]


def test_subfield_generator_spans_the_kernel_subfield():
    for q, d, ambient in ((2, 2, 16), (3, 1, 81), (3, 2, 81), (5, 2, 5**4)):
        big = make_field(ambient)
        g = subfield_generator(big, q, d)
        powers = {big.encode(big.zero), big.encode(big.one)}
        x = g
        while x != big.one:
            powers.add(big.encode(x))
            x = x * g
        oracle = {big.encode(y) for y in _subfield_elements(big, q, d)}
        assert powers == oracle
        # cached per field: an equal field built again gets the same generator
        assert subfield_generator(make_field(ambient), q, d) == g


def test_subfield_rejects_bad_degrees():
    big = make_field(16)
    # twice each: a call that raises leaves nothing in the cache
    for args in ((big, 2, 3), (big, 3, 1), (big, 2, 0), (make_ring("witt", 5, 1, 2), 5, 1)) * 2:
        with pytest.raises(errors.InvalidInput):
            subfield_generator(*args)


def test_p_polynomial_frozen_values():
    f4 = make_field(4)
    omega = f4.elem((0, 1))
    # P(X) = X + X^2 over F_4: omega + omega^2 = 1, and 1 + 1 = 0.
    assert p_polynomial_value(omega, 2, 1, 2) == f4.one
    assert not p_polynomial_value(f4.one, 2, 1, 2)
    assert not p_polynomial_value(f4.zero, 2, 1, 2)
    # copies = 1 is the identity map.
    assert p_polynomial_value(omega, 2, 3, 1) == omega
    with pytest.raises(errors.InvalidInput):
        p_polynomial_value(omega, 2, 0, 2)


def test_nonvanishing_pair_rank_one():
    big = make_field(2)
    assert find_nonvanishing_pair(2, 1, 1, 1) == (big.one, big.one)


def test_nonvanishing_pair_f4_frozen():
    f4 = make_field(4)
    omega = f4.elem((0, 1))
    zeta, zeta2 = find_nonvanishing_pair(2, 2, 2, 1)
    assert (zeta, zeta2) == (omega, f4.one)
    assert p_polynomial_value(zeta * zeta2, 2, 1, 2) == f4.one


@pytest.mark.parametrize("period", [1, 2, 3, 6])
def test_nonvanishing_pair_q3_tower(period):
    zeta, zeta2 = find_nonvanishing_pair(3, 2, 3, period)
    big = zeta.ring
    assert big == make_field(3**6)
    assert zeta and zeta2
    assert q_power_frobenius(zeta, 3, 2) == zeta
    assert q_power_frobenius(zeta2, 3, 3) == zeta2
    assert p_polynomial_value(zeta * zeta2, 3, period, 6 // period)


def test_nonvanishing_pair_input_checks():
    with pytest.raises(errors.InvalidInput):
        find_nonvanishing_pair(6, 1, 1, 1)
    with pytest.raises(errors.InvalidInput):
        find_nonvanishing_pair(2, 0, 1, 1)
    with pytest.raises(errors.InvalidInput):
        find_nonvanishing_pair(2, 2, 3, 5)


def test_size_guard():
    assert size_limit() == DEFAULT_SIZE_GUARD
    assert size_limit(100) == 100
    with pytest.raises(errors.SizeGuardExceeded):
        find_nonvanishing_pair(5, 3, 4, 1)
    zeta, zeta2 = find_nonvanishing_pair(5, 3, 4, 1, size_guard=5**12)
    assert zeta.ring == make_field(5**12)
    assert p_polynomial_value(zeta * zeta2, 5, 1, 12)


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("FLAB_SIZE_GUARD", "3")
    assert size_limit() == 3
    with pytest.raises(errors.SizeGuardExceeded):
        find_nonvanishing_pair(2, 2, 2, 1)
    assert size_limit(2**24) == 2**24
