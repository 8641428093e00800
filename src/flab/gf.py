"""Finite-field towers and the additive-polynomial nonvanishing search.

The tensor summand of period ``period`` inside a product of cyclic modules of
ranks ``h`` and ``h2`` contributes the additive polynomial

    P(X) = X + X^{q^period} + ... + X^{q^{(copies-1) period}},

with ``copies = lcm(h, h2) / period``, over F_{q^lcm}.  Because P is additive
its zero set is a proper F_q-subspace, while the products of units from the
two subfields F_{q^h} and F_{q^h2} span all of F_{q^lcm}; hence some product
evaluates to a nonzero value.  ``find_nonvanishing_pair`` locates the first
such product in a deterministic generator-power scan.

Subfields are realized inside the single ambient field F_{q^lcm}: the units of
F_{q^d} form the unique subgroup of order q^d - 1, generated by the matching
power of an ambient multiplicative generator, and the full subfield is the
fixed space of the d-fold q-power Frobenius.
"""

from __future__ import annotations

import os
from functools import lru_cache
from math import lcm

from .errors import (
    InternalRankFailure,
    InvalidInput,
    SizeGuardExceeded,
)
from .rings import _split_prime_power, make_field

DEFAULT_SIZE_GUARD = 2**24
SIZE_GUARD_ENV = "FLAB_SIZE_GUARD"


def prime_power(q):
    """Split q = p^e with p prime; raise InvalidInput otherwise."""
    q = int(q)
    split = _split_prime_power(q)
    if split is None:
        raise InvalidInput(f"{q} is not a prime power")
    return split


def size_limit(size_guard=None):
    """Effective enumeration bound: explicit arg, else env override, else default."""
    if size_guard is not None:
        return int(size_guard)
    return int(os.environ.get(SIZE_GUARD_ENV, DEFAULT_SIZE_GUARD))


@lru_cache(maxsize=None)
def field_generator(field):
    """Smallest-encoding generator of the multiplicative group of a field."""
    if not field.is_field():
        raise InvalidInput("multiplicative generators require a field")
    return field.elem(field._generator_data())


@lru_cache(maxsize=None)
def subfield_generator(big, q, d):
    """Generator of the units of the copy of F_{q^d} inside the field big;
    cached per field, q and d, and a call that raises caches nothing."""
    p, e = prime_power(q)
    if not big.is_field() or big.p != p:
        raise InvalidInput("ambient ring is not a field of the right characteristic")
    if d < 1 or big.f % (e * d):
        raise InvalidInput(f"F_{q ** d} is not a subfield of F_{big.size}")
    return field_generator(big) ** ((big.size - 1) // (q**d - 1))


def q_power_frobenius(x, q, times=1):
    """Apply x |-> x^{q^times} via the ring's p-power Frobenius."""
    p, e = prime_power(q)
    if x.ring.p != p:
        raise InvalidInput("element characteristic does not match q")
    for _ in range(e * times):
        x = x.ring.frobenius(x)
    return x


def p_polynomial_value(x, q, period, copies):
    """Evaluate P(X) = sum_{m=0}^{copies-1} X^{q^{m * period}} at x."""
    if period < 1 or copies < 1:
        raise InvalidInput("period and copies must be positive")
    acc = x
    term = x
    for _ in range(copies - 1):
        term = q_power_frobenius(term, q, period)
        acc = acc + term
    return acc


def find_nonvanishing_pair(q, h, h2, period, size_guard=None):
    """First pair (zeta, zeta2) of subfield units with P(zeta * zeta2) != 0.

    zeta ranges over F_{q^h}^x and zeta2 over F_{q^h2}^x, both realized inside
    the ambient field F_{q^lcm(h, h2)}; P is the additive polynomial for the
    given summand period.  The scan tries products g^a * g2^b with the first
    exponent varying fastest and returns the first hit, which exists by the
    degree argument.  Ambient fields larger than the size guard are refused.
    """
    q, h, h2, period = int(q), int(h), int(h2), int(period)
    prime_power(q)
    if h < 1 or h2 < 1:
        raise InvalidInput("tower degrees must be positive")
    big_deg = lcm(h, h2)
    if period < 1 or big_deg % period:
        raise InvalidInput(
            f"period {period} does not divide lcm({h}, {h2}) = {big_deg}"
        )
    limit = size_limit(size_guard)
    ambient = q**big_deg
    if ambient > limit:
        raise SizeGuardExceeded(
            f"ambient field size q^lcm = {ambient} exceeds the guard {limit}"
        )
    copies = big_deg // period
    big = make_field(ambient)
    g = subfield_generator(big, q, h)
    g2 = subfield_generator(big, q, h2)
    zeta2 = big.one
    for _ in range(q**h2 - 1):
        zeta = big.one
        for _ in range(q**h - 1):
            if p_polynomial_value(zeta * zeta2, q, period, copies):
                return zeta, zeta2
            zeta = zeta * g
        zeta2 = zeta2 * g2
    raise InternalRankFailure("no nonvanishing product exists")
