"""Coefficient rings: truncated Witt rings and truncated dual numbers.

Two one-parameter families of finite local rings back every computation:

* ``witt``          W(k)/p^level, realized as (Z/p^level)[x]/(m(x)) with m a
                    monic lift of the lexicographically smallest irreducible
                    polynomial of degree f over F_p.  Elements are length-f
                    coefficient vectors over Z/p^level.
* ``dual_numbers``  k[t]/(t^level) with k = F_{p^f}.  Elements are length-level
                    vectors of residue-field elements.

Both families share one element interface (RingElem with operator
overloading) and provide Frobenius, unit inversion, unit square roots, and
one-step small surjections down the level chain.  All values are immutable.

Each ring algorithm is written once, on raw data tuples, and each public
method once, in Ring: it coerces its arguments, calls a raw helper and wraps
the result in a RingElem.  The two families hold only the raw data layer:
arithmetic (``_add``, ``_sub``, ``_mul``), structure (``_from_int``,
``_val``, ``_pi_pow``, ``_unit_part``, ``_frobenius``, ``_encode``) and the
moves between the levels of a tower (``_residue_data``, ``_lift_data``,
``_reduce_data``).  Inversion, unit square roots and the Frobenius lift run
one raw Newton iteration (``_newton``), and powers one square and multiply
(``_power``); no RingElem is built inside either.  flab.linalg stores and
computes on the raw tuples directly, a row at a time through three row
kernels (``_row_submul``, ``_row_scale``, ``_dot``): written once in Ring
on the arithmetic, and taken in one pass per row on Z/p^level and the
tabled fields by WittRing (``_dot`` also on the f = 2 Witt rings and
k[t]/t^level with f <= 2).  Degrees f above MAX_DEGREE and levels
above MAX_LEVEL are refused before a ring is built.  Arithmetic per family:

* Z/p^level (f = 1): ``_add``, ``_sub`` and ``_mul`` do one int operation
  mod p^level on the single coefficient, with no per-coefficient loop; the
  data stays a 1-tuple, the layout io and the callers of ``x.data`` read.
  Units invert by ``pow(a, -1, p^level)``.
* F_q with f > 1 and q <= LOG_TABLE_MAX_Q: +, -, x and inversion by
  table, through discrete-log / antilog tables over a generator g of F_q^*
  and a Zech table zech[d] = log(1 + g^d).  A product is two dict lookups
  and a list index; a sum a + b is exp[log a + zech[(log b - log a) mod n]]
  with n = q - 1, and a - b adds -b, whose log is log b + h with
  h = log(-1) (n/2 for odd p, 0 for p = 2).  The tables are built on the
  first arithmetic operation, once per interned ring.  Building them costs q
  convolution products and O(q) memory, which only a field that computes
  far more often than that pays back; the cap keeps them to the small fields
  of the eliminations and leaves the ambient fields of up to about 10^6
  elements that flab.gf searches on convolution.
* Every other Witt ring multiplies by polynomial convolution and reduction
  mod the minimal polynomial (``WittRing._conv_mul``), and inverts units by
  ``x^(q-2)`` in a large field or by Newton iteration from the residue
  field at higher levels.
* W(F_{p^2})/p^level above level 1, and F_{p^2} above the table cap:
  ``_add`` and ``_sub`` are written out on the two coefficients, and
  ``_dot`` adds the unreduced convolutions of its terms and reduces mod
  p^level and mod the minimal polynomial once per dot product, the delayed
  reduction of FFLAS-FFPACK (Dumas, Giorgi and Pernet, 2008).
* k[t]/t^level over F_p and F_{p^2}: coefficients are plain ints, taken in
  θ = x mod m(x) with θ^2 = -m_1 θ - m_0 for f = 2, and zero ones are
  skipped.  ``_add`` and ``_sub`` reduce each coefficient mod p once.
  ``_mul`` reduces a coefficient as each term lands on it: a tower
  multiplies mostly lifts from k, one term per coefficient.  ``_dot`` adds
  the terms of all its products unreduced (θ^2 folded in as they land) and
  reduces once per coefficient.  Over larger k the operations are k's own.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import (
    InternalRankFailure,
    InvalidInput,
    RingMismatch,
)

# Level-1 Witt rings F_q with f > 1 and q at most this use log/antilog tables.
LOG_TABLE_MAX_Q = 2**12
# Prime powers are split by trial division up to this bound, so any p up to
# its square is accepted and larger inputs fail fast instead of spinning.
PRIME_TRIAL_BOUND = 2**20
# Degrees f and levels above these are refused before any work: the search
# for the minimal polynomial grows with f, and the element data with both.
MAX_DEGREE = 32
MAX_LEVEL = 256

# ---------------------------------------------------------------------------
# polynomial helpers over F_p (plain int lists, lowest degree first)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, g, p):
    # g must be monic
    a = list(a)
    dg = len(g) - 1
    while len(a) > dg:
        c = a.pop()
        if c:
            off = len(a) - dg
            for i in range(dg):
                a[off + i] = (a[off + i] - c * g[i]) % p
    return _poly_trim(a)


def _poly_mulmod(a, b, g, p):
    return _poly_mod(_poly_mul(a, b, p), g, p)


def _poly_powmod(a, e, g, p):
    result = [1]
    base = _poly_mod(list(a), g, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, g, p)
        base = _poly_mulmod(base, base, g, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_mod(a, monic, p)
    return a


def _trial_factors(n):
    """(p, e) for each prime power p**e exactly dividing n, p ascending, by
    trial division; lazily, so a caller that stops early divides no further.

    The last factor may be a cofactor above the square of every trial
    divisor, hence prime.  Division stops at PRIME_TRIAL_BOUND: a cofactor
    above its square with no smaller prime factor raises InvalidInput
    naming that cofactor instead of dividing on.
    """
    d = 2
    while d * d <= n:
        if d > PRIME_TRIAL_BOUND:
            raise _beyond_trial_bound(n)
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def _prime_factors(n):
    """Distinct prime factors of n, ascending (see _trial_factors)."""
    return [p for p, _ in _trial_factors(n)]


def _beyond_trial_bound(n):
    return InvalidInput(
        f"{n} has no prime factor up to the trial-division bound {PRIME_TRIAL_BOUND}"
    )


def _is_irreducible(g, p):
    degree = len(g) - 1
    if degree == 1:
        return True
    x = [0, 1]
    t = list(x)
    for _ in range(degree):
        t = _poly_powmod(t, p, g, p)
    diff = [(u - v) % p for u, v in itertools.zip_longest(t, x, fillvalue=0)]
    if _poly_trim(diff):
        return False
    for ell in _prime_factors(degree):
        t = list(x)
        for _ in range(degree // ell):
            t = _poly_powmod(t, p, g, p)
        diff = [(u - v) % p for u, v in itertools.zip_longest(t, x, fillvalue=0)]
        gcd = _poly_gcd(diff, g, p)
        if len(gcd) != 1:
            return False
    return True


def _encoding_order(m, f):
    """All length-f tuples over range(m), ascending in sum c_i m^i, lazily.

    An odometer with c_0 turning fastest: unlike itertools.product it never
    holds range(m) in memory, so a search that stops early stays cheap for
    a huge m, and it needs no recursion depth for a large f.
    """
    digits = [0] * f
    while True:
        yield tuple(digits)
        for i in range(f):
            digits[i] += 1
            if digits[i] < m:
                break
            digits[i] = 0
        else:
            return


def minimal_polynomial(p, f):
    """Lexicographically smallest monic irreducible of degree f over F_p.

    Candidates are ordered by the coefficient tuple (c_{f-1}, ..., c_0);
    returned lowest degree first, including the leading 1.
    """
    for tail in _encoding_order(p, f):
        coeffs = list(tail) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise InternalRankFailure("no irreducible polynomial found")


@lru_cache(maxsize=256)
def _split_prime_power(n):
    """(p, e) with n == p**e and p prime, or None when n is no prime power.

    Only the smallest prime factor is needed, so trial division stops at
    the first one found; an n with no prime factor up to PRIME_TRIAL_BOUND
    but above its square raises InvalidInput (see _trial_factors).  Every
    make_field and gf.prime_power call asks again for one of a few q, so the
    split is memoized; lru_cache stores no exception, so an InvalidInput is
    raised anew on every call.
    """
    if n < 2:
        return None
    p, e = next(_trial_factors(n))
    return (p, e) if p**e == n else None


# ---------------------------------------------------------------------------
# elements


def _coerce(ring, value):
    if isinstance(value, RingElem):
        if value.ring is ring or value.ring == ring:
            return value
        raise RingMismatch(f"element of {value.ring} used in {ring}")
    if isinstance(value, int):
        return ring.from_int(value)
    return None


class RingElem:
    """Immutable element of a Ring; arithmetic dispatches to the ring."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def __add__(self, other):
        other = _coerce(self.ring, other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._add(self.data, other.data))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self.ring, other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._sub(self.data, other.data))

    def __rsub__(self, other):
        other = _coerce(self.ring, other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._sub(other.data, self.data))

    def __mul__(self, other):
        other = _coerce(self.ring, other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._mul(self.data, other.data))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring._sub(self.ring.zero.data, self.data))

    def __truediv__(self, other):
        other = _coerce(self.ring, other)
        if other is None:
            return NotImplemented
        return self * self.ring.inv(other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.ring.inv(self) ** (-exponent)
        return RingElem(self.ring, _power(self.ring, self.data, exponent))

    def __eq__(self, other):
        if isinstance(other, RingElem):
            if not (other.ring is self.ring or other.ring == self.ring):
                return False
            return self.data == other.data
        if isinstance(other, int):
            return self.data == self.ring.from_int(other).data
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.data))

    def __bool__(self):
        return self.data != self.ring.zero.data

    def __repr__(self):
        return f"RingElem({self.ring!r}, {self.data!r})"


# ---------------------------------------------------------------------------
# ring descriptors


class Ring:
    """Common interface of both coefficient-ring families: every public
    method, written once over the raw data layer of the family."""

    __slots__ = ("p", "f", "level", "minimal_poly", "_kring", "_zero", "_one")

    family = "abstract"

    def __init__(self, p, f, level, minimal_poly):
        self.p = p
        self.f = f
        self.level = level
        self.minimal_poly = minimal_poly
        self._kring = self if self.is_field() else _cached_ring("witt", p, f, 1)
        self._zero = RingElem(self, self._from_int(0))
        self._one = RingElem(self, self._from_int(1))

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.family, self.p, self.f, self.level)

    def __eq__(self, other):
        if other is self:
            return True
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, f={self.f}, level={self.level})"

    # -- basic elements ----------------------------------------------------

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def elem(self, data):
        """Wrap raw coefficient data after validating its shape."""
        self._check_data(data)
        return RingElem(self, data)

    def from_int(self, n):
        return RingElem(self, self._from_int(n))

    def encode(self, x):
        return self._encode(_coerce(self, x).data)

    @property
    def size(self):
        return self.p ** (self.f * self.level)

    @property
    def residue_size(self):
        return self.p**self.f

    def is_field(self):
        return self.level == 1 and self.family == "witt"

    # -- the tower: residue field and levels ---------------------------------

    def residue_ring(self):
        return self._kring

    def residue(self, x):
        """Image of x in the residue field."""
        return RingElem(self._kring, self._residue_data(_coerce(self, x).data))

    def reduce_to(self, x, target):
        """Image of x at a lower level target of the same tower."""
        x = _coerce(self, x)
        if (
            type(target) is not type(self)
            or (target.p, target.f) != (self.p, self.f)
            or target.level > self.level
        ):
            raise RingMismatch("reduce_to expects a lower level of the same tower")
        return RingElem(target, self._reduce_data(x.data, target))

    def lift_from(self, x):
        """Canonical lift of an element of a lower level of the same tower."""
        self._check_lift(x.ring if isinstance(x, RingElem) else None)
        return RingElem(self, self._lift_data(x.ring, x.data))

    # -- row kernels of the eliminations ------------------------------------

    def _row_submul(self, row, c, pairs):
        """row[j] <- row[j] - c b in place for each (j, b) in pairs; the
        caller guarantees that c and every b are nonzero."""
        sub, mul = self._sub, self._mul
        for j, b in pairs:
            row[j] = sub(row[j], mul(c, b))

    def _row_scale(self, row, c):
        """The new list of c x for x in row, zero entries kept as they are."""
        mul, zero = self._mul, self._zero.data
        return [mul(c, x) if x != zero else x for x in row]

    def _dot(self, xs, ys):
        """The sum of x y over zip(xs, ys)."""
        add, mul, zero = self._add, self._mul, self._zero.data
        acc = zero
        for x, y in zip(xs, ys):
            if x != zero and y != zero:
                acc = add(acc, mul(x, y))
        return acc

    # -- units ---------------------------------------------------------------

    def is_unit(self, x):
        return self._is_unit(_coerce(self, x).data)

    def val(self, x):
        """Valuation of x (p-adic or t-adic), capped at the level for zero."""
        return self._val(_coerce(self, x).data)

    def pi(self):
        return self.pi_pow(1)

    def pi_pow(self, v):
        return RingElem(self, self._pi_pow(v))

    def inv(self, x):
        x = _coerce(self, x)
        if not self._is_unit(x.data):
            raise InvalidInput("inverse of a non-unit")
        return RingElem(self, self._inv(x.data))

    def _inv(self, a):
        """Inverse of the unit with raw data a: mod p^level on Z/p^level, by
        table or a^(q-2) in a field, else from the residue inverse by the
        division-free Newton step z <- z (2 - a z)."""
        if self.family == "witt" and self.f == 1:
            return (pow(a[0], -1, self._modulus),)
        if self.is_field():
            tables = self._field_tables()
            if tables:
                log, exp = tables
                return exp[self.residue_size - 1 - log[a]]
            return _power(self, a, self.residue_size - 2)
        k = self._kring
        one = self._one.data
        # the step z - z (a z - 1) is z (2 - a z)
        return _newton(
            self,
            self._lift_data(k, k._inv(self._residue_data(a))),
            lambda z: self._sub(self._mul(a, z), one),
            self._mul,
            "unit inversion did not converge",
        )

    def divide(self, a, b):
        """Exact division a / b, defined when val(a) >= val(b).

        The result c satisfies c * b == a exactly in the truncated ring: it
        is pi^(va - vb) u(a) u(b)^-1, u the unit parts, for a non-unit b.
        """
        a = _coerce(self, a).data
        b = _coerce(self, b).data
        if self._is_unit(b):
            return RingElem(self, self._mul(a, self._inv(b)))
        va, vb = self._val(a), self._val(b)
        if va < vb:
            raise InvalidInput("division with valuation drop")
        if va == self.level:
            return self._zero
        c = self._mul(self._pi_pow(va - vb), self._unit_part(a, va))
        return RingElem(self, self._mul(c, self._inv(self._unit_part(b, vb))))

    def unit_sqrt(self, u):
        """Deterministic square root of a unit.

        The residue root with the smallest canonical encoding is refined by
        Newton iteration (p odd makes 2 a unit).
        """
        u = _coerce(self, u).data
        if not self._is_unit(u):
            raise InvalidInput("unit_sqrt requires a unit")
        k = self._kring
        root = _field_sqrt(k, self._residue_data(u))
        if root is None:
            raise InvalidInput("residue is not a square")
        mul = self._mul
        s = _newton(
            self,
            self._lift_data(k, root),
            lambda s: self._sub(mul(s, s), u),
            lambda s, r: mul(r, self._inv(self._add(s, s))),
            "square-root iteration did not converge",
        )
        return RingElem(self, s)

    # -- Frobenius -----------------------------------------------------------

    def frobenius(self, x):
        return RingElem(self, self._frobenius(_coerce(self, x).data))

    # -- enumeration ---------------------------------------------------------

    def elements(self):
        """All elements in ascending canonical-encoding order."""
        for data in self._all_data():
            yield RingElem(self, data)

    def random_element(self, rng):
        """Uniform random element (rng is a random.Random)."""
        return RingElem(self, self._rand_data(rng))

    def random_unit(self, rng):
        while True:
            x = self.random_element(rng)
            if self.is_unit(x):
                return x


class WittRing(Ring):
    __slots__ = ("_modulus", "_frob_cols", "_tables", "_zech")

    family = "witt"

    def __init__(self, p, f, level, minimal_poly):
        self._modulus = p**level
        self._frob_cols = None
        # None: log tables due on first use; False: multiply by convolution
        tabled = level == 1 and f > 1 and p**f <= LOG_TABLE_MAX_Q
        self._tables = None if tabled else False
        # (zech, n, h), built with the log tables (see _field_tables)
        self._zech = None
        super().__init__(p, f, level, minimal_poly)

    # -- arithmetic ----------------------------------------------------------

    def _check_data(self, data):
        m = self._modulus
        if (
            not isinstance(data, tuple)
            or len(data) != self.f
            or not all(isinstance(c, int) and 0 <= c < m for c in data)
        ):
            raise InvalidInput(f"malformed witt element data {data!r}")

    def _add(self, a, b):
        if self.f == 1:
            return ((a[0] + b[0]) % self._modulus,)
        tables = self._tables
        if tables is None:
            tables = self._field_tables()
        if tables:
            log, exp = tables
            zech, n, _ = self._zech
            la = log[a]
            lb = log[b]
            if la == 2 * n:
                return b
            if lb == 2 * n:
                return a
            return exp[la + zech[(lb - la) % n]]
        m = self._modulus
        if self.f == 2:
            return ((a[0] + b[0]) % m, (a[1] + b[1]) % m)
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def _sub(self, a, b):
        if self.f == 1:
            return ((a[0] - b[0]) % self._modulus,)
        tables = self._tables
        if tables is None:
            tables = self._field_tables()
        if tables:
            log, exp = tables
            zech, n, h = self._zech
            la = log[a]
            lb = log[b]
            if lb == 2 * n:
                return a
            if la == 2 * n:
                return exp[lb + h]
            return exp[la + zech[(lb + h - la) % n]]
        m = self._modulus
        if self.f == 2:
            return ((a[0] - b[0]) % m, (a[1] - b[1]) % m)
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def _mul(self, a, b):
        tables = self._tables
        if tables:
            log, exp = tables
            return exp[log[a] + log[b]]
        if self.f == 1:
            return ((a[0] * b[0]) % self._modulus,)
        if tables is None:
            log, exp = self._field_tables()
            return exp[log[a] + log[b]]
        return self._conv_mul(a, b)

    def _conv_mul(self, a, b):
        """Product by convolution and reduction mod the minimal polynomial;
        each coefficient is reduced mod p^level once, and f = 2 is written
        out: x^2 = -mp[1] x - mp[0]."""
        m = self._modulus
        f = self.f
        mp = self.minimal_poly
        if f == 2:
            a0, a1 = a
            b0, b1 = b
            c = a1 * b1
            return ((a0 * b0 - c * mp[0]) % m, (a0 * b1 + a1 * b0 - c * mp[1]) % m)
        conv = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        for d in range(2 * f - 2, f - 1, -1):
            c = conv[d] % m
            if c:
                off = d - f
                for i in range(f):
                    conv[off + i] -= c * mp[i]
        return tuple([x % m for x in conv[:f]])

    # The row kernels take the branches of _add, _sub and _mul once per call:
    # on Z/p^level one reduction per entry, or per dot product; in a tabled
    # field -c b has log (log c + h + log b) mod n and adds by one Zech lookup.

    def _row_submul(self, row, c, pairs):
        if self.f == 1:
            m, (c,) = self._modulus, c
            for j, (b,) in pairs:
                row[j] = ((row[j][0] - c * b) % m,)
            return
        tables = self._tables
        if tables is None:
            tables = self._field_tables()
        if not tables:
            return Ring._row_submul(self, row, c, pairs)
        log, exp = tables
        zech, n, h = self._zech
        zero_log, lc = 2 * n, log[c] + h
        for j, b in pairs:
            lt = lc + log[b]
            la = log[row[j]]
            row[j] = exp[lt % n] if la == zero_log else exp[la + zech[(lt - la) % n]]

    def _row_scale(self, row, c):
        if self.f == 1:
            m, (c,), zero = self._modulus, c, self._zero.data
            return [(c * x % m,) if x else zero for (x,) in row]
        tables = self._tables
        if tables is None:
            tables = self._field_tables()
        if not tables:
            return Ring._row_scale(self, row, c)
        # exp is zero past 2n, so a zero entry or c = 0 gives zero
        log, exp = tables
        lc = log[c]
        return [exp[lc + log[x]] for x in row]

    def _dot(self, xs, ys):
        if self.f == 1:
            return (sum([x * y for (x,), (y,) in zip(xs, ys)]) % self._modulus,)
        tables = self._tables
        if tables is None:
            tables = self._field_tables()
        if not tables:
            if self.f != 2:
                return Ring._dot(self, xs, ys)
            c0 = c1 = c2 = 0
            for (x0, x1), (y0, y1) in zip(xs, ys):
                c0 += x0 * y0
                c1 += x0 * y1 + x1 * y0
                c2 += x1 * y1
            m, mp = self._modulus, self.minimal_poly
            return ((c0 - c2 * mp[0]) % m, (c1 - c2 * mp[1]) % m)
        log, exp = tables
        zech, n, _ = self._zech
        zero_log = 2 * n
        acc = zero_log
        for x, y in zip(xs, ys):
            t = log[x] + log[y]
            if t >= zero_log:
                continue
            if acc == zero_log:
                acc = t % n
            else:
                z = zech[(t - acc) % n]
                acc = zero_log if z == zero_log else (acc + z) % n
        return exp[acc]

    def _field_tables(self):
        """(log, exp) for a tabled field, built on first use; else False.

        A tabled field does +, - and x by table lookups.  With n = q - 1,
        log maps each element to its discrete log base a generator g of
        F_q^*, and zero to 2n.  exp holds g^0 .. g^(2n-1) followed by
        zeros, so exp[log[a] + log[b]] is a*b with no reduction and any
        product with zero lands on zero.

        The same call builds the Zech table kept in _zech as (zech, n, h):
        zech[d] = log(1 + g^d) for 0 <= d < n, and 2n where 1 + g^d = 0, so
        a + b = g^la (1 + g^(lb-la)) is exp[la + zech[(lb - la) mod n]] for
        nonzero a, b, and a sum that vanishes lands on the zeros of exp.
        h = log(-1), n/2 for odd p and 0 for p = 2, so -b has log lb + h and
        a - b is exp[la + zech[(lb + h - la) mod n]].  _add and _sub answer
        a zero operand (log 2n) with the other operand or its negation.
        """
        if self._tables is None:
            n = self.residue_size - 1
            zero = self._zero.data
            g = self._generator_data()
            powers = [self._one.data]
            for _ in range(n - 1):
                powers.append(self._conv_mul(g, powers[-1]))
            log = {x: i for i, x in enumerate(powers)}
            log[zero] = 2 * n
            p = self.p
            zech = [log[((x[0] + 1) % p,) + x[1:]] for x in powers]
            self._zech = (zech, n, log[self._from_int(-1)])
            self._tables = (log, powers * 2 + [zero] * (2 * n + 1))
        return self._tables

    def _generator_data(self):
        """Raw data of the smallest-encoding generator of F_q^*; level 1 only.

        Orders are tested with _poly_powmod, so no log tables are built."""
        n = self.residue_size - 1
        p, mp = self.p, list(self.minimal_poly)
        factors = _prime_factors(n)
        zero = self._zero.data
        for x in self._all_data():
            if x != zero and all(_poly_powmod(x, n // r, mp, p) != [1] for r in factors):
                return x
        raise InternalRankFailure("no multiplicative generator found")

    def _all_data(self):
        return _encoding_order(self._modulus, self.f)

    def _rand_data(self, rng):
        m = self._modulus
        return tuple(rng.randrange(m) for _ in range(self.f))

    # -- structure -----------------------------------------------------------

    def _from_int(self, n):
        return (n % self._modulus,) + (0,) * (self.f - 1)

    def _encode(self, data):
        m = self._modulus
        total = 0
        for c in reversed(data):
            total = total * m + c
        return total

    def _is_unit(self, data):
        p = self.p
        return any(c % p for c in data)

    def _val(self, data):
        best = self.level
        p = self.p
        for c in data:
            if c:
                v = 0
                while c % p == 0:
                    c //= p
                    v += 1
                best = min(best, v)
        return best

    def _pi_pow(self, v):
        return self._from_int(self.p**v) if v < self.level else self._zero.data

    def _unit_part(self, data, v):
        """u with data == p^v u, for the valuation v < level of data."""
        step = self.p**v
        return tuple(c // step for c in data)

    def _residue_data(self, data):
        if self.level == 1:
            return data
        p = self.p
        return tuple(c % p for c in data)

    def _check_lift(self, low):
        # low is None for a lift_from argument that is no ring element
        if low is None or low.family != "witt":
            raise RingMismatch("lift_from expects a witt element")
        if (low.p, low.f) != (self.p, self.f) or low.level > self.level:
            raise RingMismatch("lift_from expects a lower level of the same tower")

    def _lift_data(self, low, data):
        # the coefficients of a lower level are already canonical here
        return data

    def _reduce_data(self, data, target):
        m = target._modulus
        return tuple(c % m for c in data)

    # -- Frobenius -----------------------------------------------------------

    def _frobenius_columns(self):
        """Frobenius images of 1, θ, ..., θ^(f-1), θ the class of x: the
        powers of the root of the minimal polynomial above θ^p."""
        if self._frob_cols is None:
            mul = self._mul
            mp = [self._from_int(c) for c in self.minimal_poly]
            dmp = [self._from_int(i * c) for i, c in enumerate(self.minimal_poly)][1:]
            y = _newton(
                self,
                _power(self, (0, 1) + (0,) * (self.f - 2), self.p),
                lambda y: self._horner(mp, y),
                lambda y, r: mul(r, self._inv(self._horner(dmp, y))),
                "Frobenius root lift did not converge",
            )
            cols = [self._one.data]
            for _ in range(self.f - 1):
                cols.append(mul(cols[-1], y))
            self._frob_cols = tuple(cols)
        return self._frob_cols

    def _horner(self, coeffs, y):
        """The polynomial with raw coefficients coeffs, lowest first, at y."""
        acc = self._zero.data
        for c in reversed(coeffs):
            acc = self._add(self._mul(acc, y), c)
        return acc

    def _frobenius(self, data):
        if self.f == 1:
            return data
        cols = self._frobenius_columns()
        m = self._modulus
        out = [0] * self.f
        for i, ai in enumerate(data):
            if ai:
                col = cols[i]
                for j in range(self.f):
                    out[j] = (out[j] + ai * col[j]) % m
        return tuple(out)


class DualNumbersRing(Ring):
    __slots__ = ()

    family = "dual_numbers"

    # -- arithmetic ----------------------------------------------------------

    def _check_data(self, data):
        if not isinstance(data, tuple) or len(data) != self.level:
            raise InvalidInput(f"malformed dual-numbers element data {data!r}")
        for coeff in data:
            self._kring._check_data(coeff)

    # plain ints over F_p and F_{p^2} (module docstring, arithmetic per family)

    def _add(self, a, b):
        p = self.p
        if self.f == 1:
            return tuple([((x + y) % p,) for (x,), (y,) in zip(a, b)])
        if self.f == 2:
            return tuple([((x0 + y0) % p, (x1 + y1) % p) for (x0, x1), (y0, y1) in zip(a, b)])
        return tuple(map(self._kring._add, a, b))

    def _sub(self, a, b):
        p = self.p
        if self.f == 1:
            return tuple([((x - y) % p,) for (x,), (y,) in zip(a, b)])
        if self.f == 2:
            return tuple([((x0 - y0) % p, (x1 - y1) % p) for (x0, x1), (y0, y1) in zip(a, b)])
        return tuple(map(self._kring._sub, a, b))

    def _mul(self, a, b):
        n, p = self.level, self.p
        out = list(self._zero.data)
        if self.f == 1:
            for i, (x,) in enumerate(a):
                if x:
                    for j in range(n - i):
                        (y,) = b[j]
                        if y:
                            out[i + j] = ((out[i + j][0] + x * y) % p,)
            return tuple(out)
        if self.f == 2:
            m0, m1, _ = self.minimal_poly
            for i, (x0, x1) in enumerate(a):
                if x0 or x1:
                    for j in range(n - i):
                        y0, y1 = b[j]
                        if y0 or y1:
                            u0, u1 = out[i + j]
                            w = x1 * y1
                            out[i + j] = (
                                (u0 + x0 * y0 - w * m0) % p,
                                (u1 + x0 * y1 + x1 * y0 - w * m1) % p,
                            )
            return tuple(out)
        # coefficient d is the dot product of a_0 .. a_d with b_d .. b_0 over k
        k = self._kring
        return tuple([k._dot(a[: d + 1], b[d::-1]) for d in range(n)])

    def _dot(self, xs, ys):
        n, p = self.level, self.p
        if self.f == 1:
            c = [0] * n
            for a, b in zip(xs, ys):
                for i, (x,) in enumerate(a):
                    if x:
                        for j in range(n - i):
                            (y,) = b[j]
                            if y:
                                c[i + j] += x * y
            return tuple([(u % p,) for u in c])
        if self.f == 2:
            m0, m1, _ = self.minimal_poly
            c = [(0, 0)] * n
            for a, b in zip(xs, ys):
                for i, (x0, x1) in enumerate(a):
                    if x0 or x1:
                        for j in range(n - i):
                            y0, y1 = b[j]
                            if y0 or y1:
                                u0, u1 = c[i + j]
                                w = x1 * y1
                                c[i + j] = (u0 + x0 * y0 - w * m0, u1 + x0 * y1 + x1 * y0 - w * m1)
            return tuple([(u0 % p, u1 % p) for u0, u1 in c])
        return Ring._dot(self, xs, ys)

    def _all_data(self):
        for coeffs in itertools.product(self._kring._all_data(), repeat=self.level):
            yield coeffs[::-1]

    def _rand_data(self, rng):
        return tuple(self._kring._rand_data(rng) for _ in range(self.level))

    # -- structure -----------------------------------------------------------

    def _from_int(self, n):
        k = self._kring
        return (k._from_int(n),) + (k._zero.data,) * (self.level - 1)

    def _encode(self, data):
        k = self._kring
        base = k.size
        total = 0
        for coeff in reversed(data):
            total = total * base + k._encode(coeff)
        return total

    def _is_unit(self, data):
        return any(data[0])

    def _val(self, data):
        for i, coeff in enumerate(data):
            if any(coeff):
                return i
        return self.level

    def _pi_pow(self, v):
        k = self._kring
        data = [k._zero.data] * self.level
        if v < self.level:
            data[v] = k._one.data
        return tuple(data)

    def _unit_part(self, data, v):
        """u with data == t^v u, for the valuation v < level of data."""
        return data[v:] + (self._kring._zero.data,) * v

    def _residue_data(self, data):
        return data[0]

    def _check_lift(self, low):
        # low is None for a lift_from argument that is no ring element
        if low is None:
            raise RingMismatch("lift_from expects a ring element")
        if not (
            low == self._kring
            or (
                low.family == "dual_numbers"
                and (low.p, low.f) == (self.p, self.f)
                and low.level <= self.level
            )
        ):
            raise RingMismatch("lift_from expects a lower level of the same tower")

    def _lift_data(self, low, data):
        # low is the residue field or a lower level of this tower
        kzero = self._kring.zero.data
        if low.family == "witt":
            return (data,) + (kzero,) * (self.level - 1)
        return data + (kzero,) * (self.level - low.level)

    def _reduce_data(self, data, target):
        return data[: target.level]

    def _frobenius(self, data):
        k = self._kring
        return tuple(k._frobenius(c) for c in data)


# ---------------------------------------------------------------------------
# raw algorithms: powers, Newton iteration, square roots in the residue field


def _power(k, x, e):
    """x^e for raw data x of the ring k, by square and multiply."""
    result = k._one.data
    while e:
        if e & 1:
            result = k._mul(result, x)
        x = k._mul(x, x)
        e >>= 1
    return result


def _newton(ring, y, residual, step, error):
    """Refine the raw data y, a root of residual modulo the maximal ideal,
    by y <- y - step(y, residual(y)) until the residual vanishes.

    Every step is a Newton step, which doubles the precision, so
    level.bit_length() + 2 of them suffice; error is the message of the
    InternalRankFailure raised if they do not.
    """
    zero = ring._zero.data
    for _ in range(ring.level.bit_length() + 3):
        r = residual(y)
        if r == zero:
            return y
        y = ring._sub(y, step(y, r))
    raise InternalRankFailure(error)


def _field_sqrt(k, a):
    """The square root of smallest encoding of the nonzero data a of the
    finite field k, or None when a is no square; O(log q) multiplications.

    For odd q this is Tonelli-Shanks with q - 1 = 2^s t, t odd, and the
    non-residue of smallest encoding, found by Euler's criterion; of the two
    roots +-r the one with the smaller encoding is returned.  For even q
    the square root a^(q/2) is unique.
    """
    q = k.residue_size
    if q % 2 == 0:
        return _power(k, a, q // 2)
    one = k._one.data
    half = (q - 1) // 2
    if _power(k, a, half) != one:
        return None
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    zero = k._zero.data
    z = next(x for x in k._all_data() if x != zero and _power(k, x, half) != one)
    c, b, r = _power(k, z, t), _power(k, a, t), _power(k, a, (t + 1) // 2)
    # invariants: r^2 = a b, b has order dividing 2^(s-1), c has order 2^s
    while b != one:
        i, sq = 0, b
        while sq != one:
            sq = k._mul(sq, sq)
            i += 1
        for _ in range(s - i - 1):
            c = k._mul(c, c)
        r = k._mul(r, c)
        c = k._mul(c, c)
        b = k._mul(b, c)
        s = i
    return min(r, k._sub(zero, r), key=k._encode)


# ---------------------------------------------------------------------------
# constructors


@lru_cache(maxsize=None)
def _cached_ring(family, p, f, level):
    minimal_poly = minimal_polynomial(p, f)
    if family == "witt":
        return WittRing(p, f, level, minimal_poly)
    return DualNumbersRing(p, f, level, minimal_poly)


def make_ring(family, p, f, level):
    """Build a coefficient-ring descriptor.

    family is "witt" (W(k)/p^level) or "dual_numbers" (k[t]/(t^level)) with
    k = F_{p^f}; p must be an odd prime.
    """
    if family not in ("witt", "dual_numbers"):
        raise InvalidInput(f"unknown ring family {family!r}")
    if not isinstance(p, int) or _split_prime_power(p) != (p, 1):
        raise InvalidInput(f"p = {p} is not prime")
    if p == 2:
        raise InvalidInput(
            "p odd required for unit square roots and pairing normalization"
        )
    _check_bounded("f", f, MAX_DEGREE)
    _check_bounded("level", level, MAX_LEVEL)
    return _cached_ring(family, p, f, level)


def _check_bounded(name, value, bound):
    if not isinstance(value, int) or value < 1:
        raise InvalidInput(f"{name} must be a positive integer")
    if value > bound:
        raise InvalidInput(f"{name} = {value} exceeds the bound {bound}")


def make_field(q):
    """Finite field F_q as a level-1 ring, for any prime power q.

    Unlike make_ring this accepts p = 2; it backs the simple-module
    combinatorics, which never needs square roots or Witt levels above 1.
    """
    if not isinstance(q, int) or q < 2:
        raise InvalidInput(f"q = {q!r} is not a prime power")
    # an accepted q is p^f with f <= MAX_DEGREE and p found by trial division
    # (p <= PRIME_TRIAL_BOUND), or a prime; both fit in this many bits
    if q.bit_length() > MAX_DEGREE * PRIME_TRIAL_BOUND.bit_length():
        raise InvalidInput(
            f"q of {q.bit_length()} bits exceeds every p^f with f <= {MAX_DEGREE}"
        )
    split = _split_prime_power(q)
    if split is None:
        raise InvalidInput(f"q = {q} is not a prime power")
    _check_bounded("f", split[1], MAX_DEGREE)
    return _cached_ring("witt", split[0], split[1], 1)


# ---------------------------------------------------------------------------
# small surjections


class SmallSurj:
    """One step down a level chain: source -> target with kernel (kernel_gen).

    The kernel is one-dimensional over the residue field k and killed by the
    maximal ideal of the source.  On raw data, _embed_data sends kappa in k
    to kappa * kernel_gen and _kernel_data inverts it on the kernel; these
    are the k-module identification the lift uses.  Reduction and canonical
    lifts between the two levels are source.reduce_to and source.lift_from.
    """

    __slots__ = ("source", "target", "kernel_gen")

    def __init__(self, source, target, kernel_gen):
        self.source = source
        self.target = target
        self.kernel_gen = kernel_gen

    def _embed_data(self, kappa):
        src = self.source
        lifted = src._lift_data(src.residue_ring(), kappa)
        return src._mul(lifted, self.kernel_gen.data)

    def _kernel_data(self, data):
        src = self.source
        shift = src.level - 1
        if src.family == "witt":
            step = src.p**shift
            coeffs = []
            for c in data:
                if c % step:
                    raise InvalidInput("element is not in the kernel")
                coeffs.append((c // step) % src.p)
            return tuple(coeffs)
        if any(any(c) for c in data[:shift]):
            raise InvalidInput("element is not in the kernel")
        return data[shift]

    def __repr__(self):
        return f"SmallSurj({self.source!r} -> {self.target!r})"


def make_small_surjection(source):
    """The canonical small surjection one level down the same family."""
    if not isinstance(source, Ring):
        raise InvalidInput("make_small_surjection expects a ring")
    if source.level < 2:
        raise InvalidInput("level-1 ring has no small quotient within its family")
    target = _cached_ring(source.family, source.p, source.f, source.level - 1)
    return SmallSurj(source, target, source.pi_pow(source.level - 1))
