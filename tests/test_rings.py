"""Coefficient-ring arithmetic, Frobenius, and small surjections."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from flab.errors import InvalidInput, RingMismatch
from flab.gf import field_generator
from flab.rings import (
    MAX_DEGREE,
    MAX_LEVEL,
    PRIME_TRIAL_BOUND,
    RingElem,
    _encoding_order,
    _prime_factors,
    _split_prime_power,
    make_field,
    make_ring,
    make_small_surjection,
)

Z25 = make_ring("witt", 5, 1, 2)
F9 = make_ring("witt", 3, 2, 1)
W9_3 = make_ring("witt", 3, 2, 3)
D5_2 = make_ring("dual_numbers", 5, 1, 2)
D9_2 = make_ring("dual_numbers", 3, 2, 2)
# the log-tabled fields that the benchmark workloads use
TABLED_Q = (9, 25, 27, 49, 121, 169)


def sample_rings():
    return [Z25, F9, W9_3, D5_2, D9_2, make_field(4)]


# -- constructors ------------------------------------------------------------


def test_make_ring_rejects_bad_parameters():
    with pytest.raises(InvalidInput, match="^p = 9 is not prime$"):
        make_ring("witt", 9, 1, 1)
    with pytest.raises(
        InvalidInput,
        match="^p odd required for unit square roots and pairing normalization$",
    ):
        make_ring("witt", 2, 1, 1)
    with pytest.raises(InvalidInput, match="^unknown ring family 'galois'$"):
        make_ring("galois", 5, 1, 1)
    with pytest.raises(InvalidInput, match="^f must be a positive integer$"):
        make_ring("witt", 5, 0, 1)
    with pytest.raises(InvalidInput, match="^level must be a positive integer$"):
        make_ring("dual_numbers", 5, 1, 0)


def test_make_field_accepts_prime_powers_only():
    assert make_field(4).minimal_poly == (1, 1, 1)
    assert make_field(5).size == 5
    assert make_field(9) == F9
    with pytest.raises(InvalidInput, match="^q = 12 is not a prime power$"):
        make_field(12)
    with pytest.raises(InvalidInput, match="^q = 1 is not a prime power$"):
        make_field(1)


HUGE_PRIME = 2**61 - 1
HUGE_PRIME_VERDICT = (
    f"^{HUGE_PRIME} has no prime factor up to the trial-division bound "
    f"{PRIME_TRIAL_BOUND}$"
)


def test_huge_prime_fails_fast():
    # 2^61 - 1 is prime, far above the square of the trial-division bound
    for build in (
        lambda: make_ring("witt", HUGE_PRIME, 1, 1),
        lambda: make_ring("dual_numbers", HUGE_PRIME, 1, 1),
        lambda: make_field(HUGE_PRIME),
    ):
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=HUGE_PRIME_VERDICT):
            build()
        assert time.perf_counter() - start < 1.0


def test_degree_and_level_bounds_refuse_before_any_work():
    # only the verdicts: no ring of these sizes is ever built
    cases = [
        (lambda: make_ring("witt", 3, 10**6, 1), f"^f = {10**6} exceeds the bound {MAX_DEGREE}$"),
        (
            lambda: make_ring("dual_numbers", 3, MAX_DEGREE + 1, 1),
            f"^f = {MAX_DEGREE + 1} exceeds the bound {MAX_DEGREE}$",
        ),
        (lambda: make_ring("witt", 3, 1, 10**7), f"^level = {10**7} exceeds the bound {MAX_LEVEL}$"),
        (
            lambda: make_ring("dual_numbers", 5, 1, MAX_LEVEL + 1),
            f"^level = {MAX_LEVEL + 1} exceeds the bound {MAX_LEVEL}$",
        ),
        (
            lambda: make_field(3 ** (MAX_DEGREE + 1)),
            f"^f = {MAX_DEGREE + 1} exceeds the bound {MAX_DEGREE}$",
        ),
        (
            lambda: make_field(2 ** 10**6),
            rf"^q of {10**6 + 1} bits exceeds every p\^f with f <= {MAX_DEGREE}$",
        ),
    ]
    for build, verdict in cases:
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=verdict):
            build()
        assert time.perf_counter() - start < 1.0


def test_values_at_the_bounds_pass_the_guard(monkeypatch):
    # the guard's verdict at the edge, with ring construction stubbed out
    built = []
    monkeypatch.setattr("flab.rings._cached_ring", lambda *key: built.append(key))
    make_ring("witt", 3, MAX_DEGREE, MAX_LEVEL)
    make_ring("dual_numbers", 3, MAX_DEGREE, MAX_LEVEL)
    make_field(3**MAX_DEGREE)
    make_field((2**20 - 3) ** MAX_DEGREE)  # the largest prime under the trial bound
    assert built == [
        ("witt", 3, MAX_DEGREE, MAX_LEVEL),
        ("dual_numbers", 3, MAX_DEGREE, MAX_LEVEL),
        ("witt", 3, MAX_DEGREE, 1),
        ("witt", 2**20 - 3, MAX_DEGREE, 1),
    ]


def test_encoding_order_needs_no_recursion():
    assert list(_encoding_order(3, 2)) == [
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)
    ]
    assert list(_encoding_order(5, 0)) == [()]
    order = _encoding_order(2, 10**5)
    assert next(order) == (0,) * 10**5
    assert next(order) == (1,) + (0,) * (10**5 - 1)


def test_prime_factors_stop_at_the_trial_bound():
    # 1048583 and 1048589 are the two smallest primes above 2^20
    n = 1048583 * 1048589
    with pytest.raises(
        InvalidInput,
        match=f"^{n} has no prime factor up to the trial-division bound {PRIME_TRIAL_BOUND}$",
    ):
        _prime_factors(n)
    # the largest prime below 2^40 is still factored, as is 3^32 - 1, the
    # order of F_{3^32}^*, whose factors are unchanged by the bound
    assert _prime_factors(2**40 - 87) == [2**40 - 87]
    assert _prime_factors(3**32 - 1) == [2, 5, 17, 41, 193, 21523361]
    # a huge cofactor after the small primes are divided out also stops
    with pytest.raises(InvalidInput, match="trial-division bound"):
        _prime_factors(2**10 * 3 * n)


def test_one_trial_division_serves_both_callers_lazily():
    mersenne = 2**61 - 1  # prime, with no factor up to the trial bound
    message = (
        f"^{mersenne} has no prime factor up to the trial-division bound "
        f"{PRIME_TRIAL_BOUND}$"
    )
    # the prime-power split stops at the smallest prime factor 3 ...
    assert _split_prime_power(3 * mersenne) is None
    # ... while the factorization divides on and stops at the cofactor
    with pytest.raises(InvalidInput, match=message):
        _prime_factors(3 * mersenne)
    with pytest.raises(InvalidInput, match=message):
        _split_prime_power(mersenne)
    # a prime cofactor below the square of the bound is found
    assert _prime_factors(9 * (2**31 - 1)) == [3, 2**31 - 1]
    assert _split_prime_power(9 * (2**31 - 1)) is None
    assert _split_prime_power(3**7) == (3, 7)
    assert _split_prime_power(2**31 - 1) == (2**31 - 1, 1)


def test_prime_power_split_is_memoized_but_its_errors_are_not():
    _split_prime_power.cache_clear()
    assert _split_prime_power(3**7) == (3, 7)
    assert _split_prime_power(3**7) == (3, 7)
    info = _split_prime_power.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # an InvalidInput is raised again, in full, on every call
    for _ in range(2):
        with pytest.raises(InvalidInput, match=HUGE_PRIME_VERDICT):
            _split_prime_power(HUGE_PRIME)
    assert _split_prime_power.cache_info().currsize == 1


def test_primes_up_to_the_square_of_the_bound_are_accepted():
    # the largest prime below 2^40 passes, and neither the minimal polynomial
    # nor the generator search holds range(p) in memory
    p = 2**40 - 87
    assert PRIME_TRIAL_BOUND**2 == 2**40
    assert make_ring("witt", p, 1, 1).minimal_poly == (0, 1)
    assert make_field(p).size == p
    # 2, ..., 12 fail the order test by pow(g, (p - 1) / r, p) for r in 2, 3, 1487, 10269667
    assert field_generator(make_field(p)) == make_field(p).from_int(13)


def test_minimal_polynomials_are_lex_smallest():
    assert F9.minimal_poly == (1, 0, 1)
    assert make_ring("witt", 5, 2, 1).minimal_poly == (2, 0, 1)
    assert make_ring("witt", 5, 1, 3).minimal_poly == (0, 1)
    assert make_field(8).minimal_poly == (1, 1, 0, 1)


def test_ring_identity_and_caching():
    assert make_ring("witt", 5, 1, 2) is Z25
    assert Z25 != D5_2
    assert Z25 != make_ring("witt", 5, 1, 3)


# -- arithmetic laws -----------------------------------------------------------


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for ring in sample_rings():
        for _ in range(60):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            c = ring.random_element(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero == a
            assert a * ring.one == a
            assert a - a == ring.zero
            assert a + (-a) == ring.zero


def test_int_coercion():
    x = Z25.from_int(7)
    assert x + 3 == 10
    assert 3 + x == 10
    assert 2 * x == 14
    assert x - 30 == 2
    assert 30 - x == 23
    assert x**2 == 24
    assert bool(Z25.zero) is False
    assert bool(x) is True


def test_cross_ring_arithmetic_is_rejected():
    with pytest.raises(RingMismatch):
        Z25.one + F9.one
    assert (Z25.one == F9.one) is False


# -- units, inverses, square roots --------------------------------------------


def test_inverse_on_all_units_of_small_rings():
    # Z/p^n inverts by pow(a, -1, p^n), F_9 ... F_169 through log tables
    prime_witt = [make_ring("witt", p, 1, n) for p in (3, 5, 7) for n in (1, 2, 3)]
    tabled = [make_field(q) for q in TABLED_Q]
    for ring in [Z25, F9, D5_2] + prime_witt + tabled:
        for x in ring.elements():
            if ring.is_unit(x):
                assert x * ring.inv(x) == ring.one
            else:
                with pytest.raises(InvalidInput):
                    ring.inv(x)


def test_inverse_on_random_units():
    rng = random.Random(11)
    for ring in sample_rings():
        for _ in range(40):
            x = ring.random_unit(rng)
            assert x * ring.inv(x) == ring.one
            assert (ring.one / x) * x == ring.one


def test_log_table_cap_verdict():
    # only the verdict, at the edges of the cap (2^12 tabled, 3^8 not) and
    # well above it; no table is built here
    assert make_field(2**12)._tables is not False  # tabled, built on first use
    assert make_ring("witt", 257, 2, 1)._field_tables() is False
    assert make_field(3**8)._tables is False
    assert make_ring("witt", 3, 2, 2)._tables is False
    assert make_field(7)._tables is False


def test_unit_sqrt_frozen_values():
    assert Z25.unit_sqrt(Z25.from_int(6)) == 16
    t = D5_2.pi()
    assert D5_2.unit_sqrt(1 + t) == 1 + 3 * t


def test_unit_sqrt_squares_back():
    rng = random.Random(13)
    for ring in [Z25, F9, W9_3, D5_2, D9_2]:
        for _ in range(30):
            u = ring.random_unit(rng) ** 2
            s = ring.unit_sqrt(u)
            assert s * s == u


def _scan_unit_sqrt(ring, u):
    """The former unit_sqrt, kept as the oracle: the residue root of
    smallest encoding by scanning the residue field, then Newton."""
    kfield = ring.residue_ring()
    ubar = ring.residue(u)
    root = next((c for c in kfield.elements() if c * c == ubar), None)
    if root is None:
        raise InvalidInput("residue is not a square")
    s = ring.lift_from(root)
    for _ in range(ring.level.bit_length() + 2):
        if s * s == u:
            return s
        s = s - (s * s - u) / (2 * s)
    return s


def test_unit_sqrt_matches_the_scan_on_every_unit():
    # every unit of every field with q <= 512, squares and non-squares: the
    # scan's root, as the smallest-encoding root of each square, in one pass
    for q in range(2, 513):
        if _split_prime_power(q) is None:
            continue
        field = make_field(q)
        roots = {}
        for c in field.elements():
            roots.setdefault(c * c, c)
        for u in field.elements():
            if not u:
                continue
            if u in roots:
                assert field.unit_sqrt(u).data == roots[u].data, (q, u)
            else:
                with pytest.raises(InvalidInput, match="^residue is not a square$"):
                    field.unit_sqrt(u)
    # and on every unit of two level-3 rings, through the Newton lift
    for ring in (make_ring("witt", 3, 2, 3), make_ring("dual_numbers", 5, 1, 3)):
        for u in ring.elements():
            if not ring.is_unit(u):
                continue
            try:
                expected = _scan_unit_sqrt(ring, u)
            except InvalidInput:
                with pytest.raises(InvalidInput, match="^residue is not a square$"):
                    ring.unit_sqrt(u)
            else:
                assert ring.unit_sqrt(u).data == expected.data, (ring, u)


def test_unit_sqrt_in_a_large_untabled_field_is_fast():
    # F_{3^20} has about 3.5e9 elements: the scan is never run at this size
    ring = make_ring("witt", 3, 20, 1)
    x = ring.elem(tuple(i % 3 for i in range(20)))
    u = x * x
    start = time.perf_counter()
    s = ring.unit_sqrt(u)
    assert time.perf_counter() - start < 1.0
    assert s * s == u


def test_unit_sqrt_rejects_nonsquares_and_nonunits():
    # 2 is not a square mod 5
    with pytest.raises(InvalidInput):
        Z25.unit_sqrt(Z25.from_int(2))
    with pytest.raises(InvalidInput):
        Z25.unit_sqrt(Z25.from_int(5))


# -- Frobenius -----------------------------------------------------------------


def test_frobenius_is_pth_power_on_residue_fields():
    for field, p in [(F9, 3), (make_field(4), 2), (make_field(8), 2)]:
        for x in field.elements():
            assert field.frobenius(x) == x**p


def test_frobenius_fixed_field_is_prime_field():
    fixed = [x for x in F9.elements() if F9.frobenius(x) == x]
    assert len(fixed) == 3
    assert F9.from_int(0) in fixed
    assert F9.from_int(1) in fixed
    assert F9.from_int(2) in fixed


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(17)
    for ring in [W9_3, D9_2, make_ring("witt", 5, 2, 2)]:
        for _ in range(50):
            a = ring.random_element(rng)
            b = ring.random_element(rng)
            assert ring.frobenius(a + b) == ring.frobenius(a) + ring.frobenius(b)
            assert ring.frobenius(a * b) == ring.frobenius(a) * ring.frobenius(b)
        assert ring.frobenius(ring.one) == ring.one


def test_frobenius_order_divides_f():
    rng = random.Random(19)
    for ring in [W9_3, D9_2]:
        for _ in range(25):
            x = ring.random_element(rng)
            y = x
            for _ in range(ring.f):
                y = ring.frobenius(y)
            assert y == x


def test_frobenius_lifts_residue_frobenius():
    rng = random.Random(23)
    for ring in [W9_3, D9_2]:
        k = ring.residue_ring()
        for _ in range(25):
            x = ring.random_element(rng)
            assert ring.residue(ring.frobenius(x)) == k.frobenius(ring.residue(x))


# -- valuations and enumeration --------------------------------------------------


def test_valuation_and_pi_pow():
    assert Z25.val(Z25.from_int(10)) == 1
    assert Z25.val(Z25.from_int(3)) == 0
    assert Z25.val(Z25.zero) == 2
    assert Z25.pi_pow(1) == 5
    assert Z25.pi_pow(2) == Z25.zero
    t = D9_2.pi()
    assert D9_2.val(t) == 1
    assert D9_2.val(D9_2.one + t) == 0
    assert D9_2.val(D9_2.zero) == 2
    assert D9_2.pi_pow(2) == D9_2.zero


def test_elements_enumeration_matches_size_and_encoding_order():
    for ring in [Z25, F9, D5_2, make_field(4)]:
        seen = list(ring.elements())
        assert len(seen) == ring.size
        encodings = [ring.encode(x) for x in seen]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)


# -- towers and small surjections -------------------------------------------------


def test_residue_reduce_lift_round_trip():
    rng = random.Random(29)
    for ring in [W9_3, D9_2]:
        k = ring.residue_ring()
        assert k.is_field()
        for _ in range(20):
            x = k.random_element(rng)
            assert ring.residue(ring.lift_from(x)) == x


def test_small_surjection_round_trip_and_kernel():
    rng = random.Random(31)
    for source in [Z25, W9_3, D5_2, D9_2]:
        surj = make_small_surjection(source)
        target = surj.target
        assert target.level == source.level - 1
        assert target.family == source.family
        for _ in range(25):
            x = target.random_element(rng)
            assert source.reduce_to(source.lift_from(x), target) == x
        # the kernel generator is killed by the maximal ideal
        assert surj.kernel_gen * source.pi() == source.zero
        assert source.reduce_to(surj.kernel_gen, target) == target.zero
        k = source.residue_ring()
        for _ in range(25):
            kappa = k.random_element(rng)
            emb = surj._embed_data(kappa.data)
            assert source.reduce_to(source.elem(emb), target) == target.zero
            assert surj._kernel_data(emb) == kappa.data
        with pytest.raises(InvalidInput, match="^element is not in the kernel$"):
            surj._kernel_data(source.one.data)


def test_small_surjection_rejects_level_one():
    with pytest.raises(InvalidInput):
        make_small_surjection(F9)


def test_dual_numbers_residue_is_shared_witt_field():
    assert D9_2.residue_ring() is F9
    t = D9_2.pi()
    x = D9_2.lift_from(F9.from_int(2)) + t
    assert D9_2.residue(x) == F9.from_int(2)


# -- raw algorithms against the former RingElem-level loops ------------------------

Z125 = make_ring("witt", 5, 1, 3)
D9_3 = make_ring("dual_numbers", 3, 2, 3)
D5_4 = make_ring("dual_numbers", 5, 1, 4)


def _elem_pow(x, e):
    """The former RingElem.__pow__: square and multiply on RingElems."""
    result, base = x.ring.one, x
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def _elem_inv(ring, x):
    """The former Ring.inv, with x^(q-2) in every field: Newton's
    z <- z (2 - x z) on RingElems from the residue inverse."""
    if ring.is_field():
        return _elem_pow(x, ring.residue_size - 2)
    z = ring.lift_from(_elem_inv(ring.residue_ring(), ring.residue(x)))
    for _ in range(ring.level.bit_length() + 2):
        if x * z == ring.one:
            return z
        z = z * (2 - x * z)
    assert x * z == ring.one
    return z


def _elem_sqrt(ring, u):
    """The former Ring.unit_sqrt: the residue root of smallest encoding,
    then Newton's s <- s - (s^2 - u) / (2 s) on RingElems; None for a
    residue that is no square."""
    ubar = ring.residue(u)
    root = next((c for c in ring.residue_ring().elements() if c * c == ubar), None)
    if root is None:
        return None
    s = ring.lift_from(root)
    for _ in range(ring.level.bit_length() + 2):
        if s * s == u:
            return s
        s = s - (s * s - u) * _elem_inv(ring, 2 * s)
    assert s * s == u
    return s


def _elem_frobenius_columns(ring):
    """The former Frobenius-root loop: Newton on RingElems for the root of
    the minimal polynomial above theta^p, and its first f powers."""
    mp = list(ring.minimal_poly)
    dmp = [(i * mp[i]) % ring._modulus for i in range(1, len(mp))]

    def value(coeffs, y):
        acc = ring.zero
        for c in reversed(coeffs):
            acc = acc * y + c
        return acc

    y = _elem_pow(ring.elem((0, 1) + (0,) * (ring.f - 2)), ring.p)
    for _ in range(ring.level.bit_length() + 3):
        fy = value(mp, y)
        if not fy:
            break
        y = y - fy * _elem_inv(ring, value(dmp, y))
    assert not value(mp, y)
    return tuple(_elem_pow(y, i).data for i in range(ring.f))


def test_raw_unit_algorithms_match_the_ring_element_loops():
    # every unit of four chain rings, both families, f = 1 and f = 2
    for ring in (Z125, W9_3, D9_3, D5_4):
        for x in ring.elements():
            if not ring.is_unit(x):
                continue
            assert ring.inv(x).data == _elem_inv(ring, x).data, (ring, x)
            root = _elem_sqrt(ring, x)
            if root is None:
                with pytest.raises(InvalidInput, match="^residue is not a square$"):
                    ring.unit_sqrt(x)
            else:
                assert ring.unit_sqrt(x).data == root.data, (ring, x)
            for e in (0, 1, 2, 7, ring.residue_size, ring.size + 1):
                assert (x**e).data == _elem_pow(x, e).data, (ring, x, e)
            assert (x**-3).data == _elem_pow(_elem_inv(ring, x), 3).data, (ring, x)


def test_frobenius_columns_match_the_ring_element_loop(monkeypatch):
    for ring in (W9_3, make_ring("witt", 3, 3, 2), make_ring("witt", 5, 3, 2)):
        monkeypatch.setattr(ring, "_frob_cols", None)
        assert ring._frobenius_columns() == _elem_frobenius_columns(ring), ring


def test_ring_algorithms_do_no_ring_element_arithmetic(monkeypatch):
    # inputs and expected values are built before RingElem's operators are
    # made to raise; the Frobenius columns are then computed afresh
    cases = []
    for ring in (Z125, W9_3, make_ring("witt", 3, 3, 2), D9_3, D5_4):
        unit = next(x for x in ring.elements() if ring.val(x - 2) == 1)
        pi, pi2 = ring.pi(), ring.pi_pow(2)
        quotient = ring.divide(pi2 * unit, pi)
        assert quotient * pi == pi2 * unit
        calls = [
            (ring.inv, (unit,), _elem_inv(ring, unit)),
            (ring.divide, (pi2, unit), pi2 * _elem_inv(ring, unit)),
            (ring.divide, (pi2 * unit, pi), quotient),
            (ring.divide, (ring.zero, pi2), ring.zero),
            (ring.unit_sqrt, (unit * unit,), _elem_sqrt(ring, unit * unit)),
            (ring.frobenius, (unit + pi,), ring.frobenius(unit + pi)),
        ]
        if ring.family == "witt":
            monkeypatch.setattr(ring, "_frob_cols", None)
        cases.append(calls)

    def refuse(*args):
        raise AssertionError("RingElem arithmetic inside a ring algorithm")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__truediv__", "__pow__",
    ):
        monkeypatch.setattr(RingElem, name, refuse)
    for calls in cases:
        for method, args, expected in calls:
            assert method(*args) == expected, (method, args)


# -- row kernels against the ring operations they replace ----------------------

KERNEL_RINGS = (
    make_field(2),
    make_field(5),
    make_ring("witt", 3, 1, 2),
    make_ring("witt", 5, 1, 3),
    make_field(4),
    make_field(8),
    make_field(25),
    make_field(49),
    make_ring("witt", 3, 2, 2),
    make_ring("dual_numbers", 5, 1, 3),
    D9_2,
)


def _kernel_cases(ring, rng):
    """(row, c, other) triples: seeded rows about a third zeros, zero rows,
    and rows whose update and dot product vanish entry by entry."""
    zero = ring.zero.data
    elements = [x.data for x in ring.elements()]
    units = [x for x in elements if ring._is_unit(x)]
    nonzero = [x for x in elements if x != zero]
    cases = []
    for width in (0, 1, 2, 5, 9):
        for _ in range(8):
            row, other = (
                [rng.choice(nonzero) if rng.random() < 0.65 else zero for _ in range(width)]
                for _ in range(2)
            )
            cases.append((row, rng.choice(nonzero), other))
        cases.append(([zero] * width, rng.choice(nonzero), [rng.choice(nonzero) for _ in range(width)]))
    for _ in range(8):
        c, b = rng.choice(nonzero), rng.choice(nonzero)
        u = rng.choice(units)
        # row - c b vanishes, and so does c b + c (-b) with a unit in between
        cases.append(([ring._mul(c, b)] * 3, c, [b, b, b]))
        cases.append(([c, u, c], c, [b, zero, ring._sub(zero, b)]))
    return cases


def test_row_kernels_match_the_ring_operations():
    rng = random.Random(2025)
    for ring in KERNEL_RINGS:
        add, sub, mul = ring._add, ring._sub, ring._mul
        zero, one = ring.zero.data, ring.one.data
        for row, c, other in _kernel_cases(ring, rng):
            pairs = [(j, b) for j, b in enumerate(other) if b != zero]
            updated = list(row)
            ring._row_submul(updated, c, pairs)
            expected = list(row)
            for j, b in pairs:
                expected[j] = sub(expected[j], mul(c, b))
            assert updated == expected, (ring, row, c, other)
            for s in (c, zero, one):
                scaled = ring._row_scale(row, s)
                assert scaled == [mul(s, x) for x in row] and scaled is not row, (ring, row, s)
            acc = zero
            for x, y in zip(row, other):
                acc = add(acc, mul(x, y))
            assert ring._dot(row, other) == acc, (ring, row, other)
        # a vanishing update or dot product is the zero data itself
        c = ring.one.data
        assert ring._dot([c, c], [c, sub(zero, c)]) == zero
        row = [c]
        ring._row_submul(row, c, [(0, c)])
        assert row == [zero]


def test_row_kernels_build_the_field_tables_on_first_use():
    # a fresh, uninterned copy of a tabled field has no tables until a kernel runs
    for q in (9, 49):
        ring = make_field(q)
        a, b = (x.data for x in itertools.islice(ring.elements(), 2, 4))
        expected = (
            [ring._sub(a, ring._mul(b, b))],
            [ring._mul(b, a)],
            ring._add(ring._mul(a, a), ring._mul(b, b)),
        )
        fresh = [type(ring)(ring.p, ring.f, 1, ring.minimal_poly) for _ in range(3)]
        assert all(r._tables is None for r in fresh)
        row = [a]
        fresh[0]._row_submul(row, b, [(0, b)])
        assert (row, fresh[1]._row_scale([a], b), fresh[2]._dot([a, b], [a, b])) == expected
        assert all(r._tables for r in fresh)
