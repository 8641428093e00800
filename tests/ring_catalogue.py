"""One catalogue of coefficient rings for the ring tests, the reference
arithmetic that every private ring kernel is checked against, and the list
of every Ring subclass for the tests that must see each ring class.

The catalogue holds both families at f = 1, 2 and 3 and levels 1-3, the
log-tabled fields (p = 2 and odd p) and untabled ones above LOG_TABLE_MAX_Q,
and models of W(F_9)/3^n and F_9[t]/t^n on x^2 + x + 2.  Every odd p has
an irreducible x^2 + c of its own, so these models are the only rings whose
minimal polynomial has an x term, which the f = 2 kernels read.

The reference works on raw data and shares no code with flab.rings: a Witt
element is a coefficient vector over Z/p^n reduced mod m(x) after every
step, and a k[t]/t^n element is multiplied by the truncated convolution
over k = F_p[x]/(m(x)), m the ring's own minimal polynomial.
"""

from __future__ import annotations

from flab.rings import DualNumbersRing, Ring, WittRing, make_field, make_ring

# x^2 + x + 2, lowest degree first; irreducible over F_3
X2_X_2 = (2, 1, 1)


def x2_x_2_model(family_class, level):
    """W(F_9)/3^level or F_9[t]/t^level built on x^2 + x + 2, with the
    level-1 Witt model on the same polynomial as its residue field."""
    ring = family_class(3, 2, level, X2_X_2)
    if not ring.is_field():
        ring._kring = _X2_X_2_FIELD
    return ring


_X2_X_2_FIELD = WittRing(3, 2, 1, X2_X_2)

# both families, f = 1, 2, 3 at levels 1-3, as make_ring builds them; the
# ring property suites run on these
GRID = tuple(
    make_ring(family, p, f, level)
    for family in ("witt", "dual_numbers")
    for p, f in ((5, 1), (3, 2), (3, 3))
    for level in (1, 2, 3)
)

CATALOGUE = (
    *GRID,
    # Z/p^n at p = 2 and 3, and the fields whose +, - and x run by table
    make_field(2),
    make_ring("witt", 3, 1, 2),
    *(make_field(q) for q in (4, 8, 16, 25, 49, 121, 169)),
    # fields above the table cap, f = 2 and 3, and more chain rings
    make_field(67**2),
    make_field(17**3),
    make_ring("witt", 5, 2, 2),
    make_ring("witt", 5, 3, 2),
    make_ring("dual_numbers", 3, 1, 2),
    make_ring("dual_numbers", 3, 1, 3),
    make_ring("dual_numbers", 5, 2, 2),
    make_ring("dual_numbers", 13, 2, 3),
    make_ring("dual_numbers", 5, 3, 2),
    _X2_X_2_FIELD,
    x2_x_2_model(WittRing, 2),
    x2_x_2_model(WittRing, 3),
    x2_x_2_model(DualNumbersRing, 2),
    x2_x_2_model(DualNumbersRing, 3),
)


def ring_id(ring):
    """A test id that tells a model apart from the standard ring."""
    name = f"{ring.family}-{ring.p}-{ring.f}-{ring.level}"
    return name + "-x2+x+2" if ring.minimal_poly == X2_X_2 else name


def ring_subclasses():
    """Every subclass of Ring, at any depth."""
    found, todo = [], list(Ring.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


# ---------------------------------------------------------------------------
# the reference


def _poly_ring(m, mp):
    """(add, sub, mul) on length-f vectors over Z/m, products reduced mod
    the monic mp (lowest degree first) after every step."""
    f = len(mp) - 1

    def add(a, b):
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(a, b):
        return tuple((x - y) % m for x, y in zip(a, b))

    def mul(a, b):
        conv = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] = (conv[i + j] + ai * bj) % m
        for d in range(2 * f - 2, f - 1, -1):
            c, conv[d] = conv[d], 0
            for i in range(f):
                conv[d - f + i] = (conv[d - f + i] - c * mp[i]) % m
        return tuple(conv[:f])

    return add, sub, mul


def reference(ring):
    """(add, sub, mul) on the raw data of ring."""
    if ring.family == "witt":
        return _poly_ring(ring.p**ring.level, ring.minimal_poly)
    kadd, ksub, kmul = _poly_ring(ring.p, ring.minimal_poly)
    n, kzero = ring.level, (0,) * ring.f

    def add(a, b):
        return tuple(map(kadd, a, b))

    def sub(a, b):
        return tuple(map(ksub, a, b))

    def mul(a, b):
        out = [kzero] * n
        for i in range(n):
            for j in range(n - i):
                out[i + j] = kadd(out[i + j], kmul(a[i], b[j]))
        return tuple(out)

    return add, sub, mul
