"""Cyclic modules M(h; i), tensor decomposition, and summand embeddings.

M(h; i) has basis e_n indexed by Z/hZ, weight i_n at e_n, and jump maps
phi^{i_n}(e_n) = e_{n-1}; the weight function must have minimal period
exactly h.  A tensor product M(h; i) (x) M(h'; i') splits along the orbits
of the index shift into gcd(h, h') cyclic pieces of rank lcm(h, h'), the
s-th piece carrying the weight function i''(r) = i_r + i'_{s+r}.  When i''
has minimal period h_s, the s-th piece further splits into
d_s = lcm(h, h') / h_s rank-h_s summands.

Over F_q the d_s summands are distinguished by a d_s-th root of unity: copy
j embeds by e_w |-> sum_m zeta^{jm} e_{w+m h_s} (x) e'_{w+m h_s+s} with zeta
a fixed primitive d_s-th root, and its source is the cyclic module whose
wraparound map is scaled by zeta^j.  Copy 0 is the plain diagonal embedding;
the other copies exist in F_q exactly when d_s divides q - 1, and then the
images of all summand embeddings jointly form a basis of the tensor module.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add

from .errors import (
    IndexOutOfRange,
    InternalRankFailure,
    InvalidInput,
    NonMinimalPeriod,
)
from .gf import field_generator
from .linalg import Matrix
from .modules import FLBlock, FLModule, _pair_order, tensor
from .rings import make_field


def minimal_period(values):
    """Smallest divisor d of len(values) with values periodic of period d.

    n - border is the smallest period of any length, border being the
    longest proper prefix of values that is also a suffix (the KMP failure
    function at n).  By Fine and Wilf a smaller divisor period would be a
    multiple of it, so it is the answer when it divides n, and n otherwise.
    """
    values = tuple(values)
    n = len(values)
    if n == 0:
        raise InvalidInput("minimal_period of an empty weight list")
    fail = [0] * n
    border = 0
    for idx in range(1, n):
        while border and values[idx] != values[border]:
            border = fail[border - 1]
        if values[idx] == values[border]:
            border += 1
        fail[idx] = border
    d = n - border
    return d if n % d == 0 else n


class SimpleSpec:
    """Combinatorial datum (h, i) of the cyclic module M(h; i)."""

    __slots__ = ("h", "i")

    def __init__(self, h, i):
        h = int(h)
        i = tuple(int(w) for w in i)
        if h < 1 or len(i) != h:
            raise InvalidInput("weight function must list exactly h integers")
        if minimal_period(i) != h:
            raise NonMinimalPeriod(
                f"weight function {i} has period {minimal_period(i)} < {h}"
            )
        self.h = h
        self.i = i

    @classmethod
    def _minimal(cls, i):
        """Spec for a weight tuple already known to have minimal period len(i)."""
        spec = object.__new__(cls)
        spec.h = len(i)
        spec.i = i
        return spec

    def __eq__(self, other):
        return (
            isinstance(other, SimpleSpec) and self.h == other.h and self.i == other.i
        )

    def __hash__(self):
        return hash((self.h, self.i))

    def __repr__(self):
        return f"M({self.h};{self.i})"


class Summand:
    """One s-component of a tensor decomposition."""

    __slots__ = ("s", "weights", "period", "copies", "spec")

    def __init__(self, s, weights, period, copies, spec):
        self.s = s
        self.weights = weights
        self.period = period
        self.copies = copies
        self.spec = spec

    def as_dict(self):
        return {
            "s": self.s,
            "weights": list(self.weights),
            "period": self.period,
            "copies": self.copies,
            "summand_h": self.spec.h,
            "summand_i": list(self.spec.i),
        }


class DecompositionResult:
    __slots__ = ("h", "h2", "gcd", "lcm", "summands")

    def __init__(self, h, h2, summands):
        self.h = h
        self.h2 = h2
        self.gcd = gcd(h, h2)
        self.lcm = lcm(h, h2)
        self.summands = tuple(summands)

    @property
    def total_rank(self):
        return sum(sm.copies * sm.period for sm in self.summands)

    def as_dict(self):
        return {
            "h": self.h,
            "h2": self.h2,
            "gcd": self.gcd,
            "lcm": self.lcm,
            "total_rank": self.total_rank,
            "summands": [sm.as_dict() for sm in self.summands],
        }


def tensor_decompose(a, b):
    """Split M(h;i) (x) M(h';i') into cyclic summands with multiplicities."""
    period = lcm(a.h, b.h)
    # piece s reads i_r + i'_{s+r}, r < period: slices of the repeated weights
    ia = a.i * (period // a.h)
    ib = b.i * (period // b.h + 1)
    summands = []
    for s in range(gcd(a.h, b.h)):
        weights = tuple(map(add, ia, ib[s:s + period]))
        hs = minimal_period(weights)
        # a prefix of one minimal period is itself of minimal period
        summands.append(
            Summand(s, weights, hs, period // hs, SimpleSpec._minimal(weights[:hs]))
        )
    result = DecompositionResult(a.h, b.h, summands)
    if result.total_rank != a.h * b.h:
        raise InternalRankFailure("decomposition rank count failed")
    return result


def _as_field(q):
    ring = make_field(q) if isinstance(q, int) else q
    if not ring.is_field():
        raise InvalidInput("simple modules are built over fields")
    return ring


def _positions(weights):
    """Sorted-basis position of each cyclic index (stable in the weights)."""
    order = sorted(range(len(weights)), key=lambda n: (weights[n], n))
    pos = [0] * len(weights)
    for idx, n in enumerate(order):
        pos[n] = idx
    return pos


def _build_cyclic(ring, weights, twist):
    """Cyclic module on a weight-sorted basis; the e_0 column scaled by twist.

    Valid by construction, so validate is not called: it is one block, so no
    block rank differs; its bounds are the min and max of the weights, so no
    weight lies outside them; and Φ is monomial with unit entries, so it is
    invertible.  Column pos[n] of Φ has exactly one nonzero entry, 1 or the
    unit twist, in row pos[n - 1], and n -> n - 1 and pos are bijections.
    """
    h = len(weights)
    pos = _positions(weights)
    one = ring.one.data
    rows = [[ring.zero.data] * h for _ in range(h)]
    for n in range(h):
        rows[pos[(n - 1) % h]][pos[n]] = twist.data if n == 0 else one
    return FLModule(
        ring,
        (min(weights), max(weights)),
        [FLBlock(tuple(sorted(weights)), Matrix._from_data(ring, rows, h))],
    )


def build_simple(spec, q):
    """The module M(h; i) over F_q, basis sorted by weight."""
    ring = _as_field(q)
    return _build_cyclic(ring, spec.i, ring.one)


class Embedding:
    """A verified injective morphism of one tensor summand copy."""

    __slots__ = ("source", "target", "matrix", "s", "copy")

    def __init__(self, source, target, matrix, s, copy):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.s = s
        self.copy = copy


def summand_embedding(a, b, s, j, q):
    """Copy j of summand s inside build_simple(a) (x) build_simple(b).

    Copy 0 is the diagonal embedding e_w |-> sum_m e_{w+m h_s} (x)
    e'_{w+m h_s+s}; copy j scales the m-th term by the j-th power of a fixed
    primitive d_s-th root of unity, and its source has the wraparound map
    scaled to match.  Raises InvalidInput when F_q has no such root.
    """
    [emb] = _embeddings(a, b, q, [(s, j)])
    return emb


def _embeddings(a, b, q, copies=None):
    """The embeddings of the (s, j) in copies, or of every copy in order; the
    decomposition, the target and its row of each index pair are built once."""
    ring = _as_field(q)
    dec = tensor_decompose(a, b)
    ma, mb = build_simple(a, ring), build_simple(b, ring)
    target = tensor(ma, mb)
    order, _ = _pair_order(ma.blocks[0].weights, mb.blocks[0].weights)
    tpos = {pair: idx for idx, pair in enumerate(order)}
    # row_of[n][n'] is the row of e_n (x) e'_n' in the target's sorted basis
    row_of = [[tpos[pa, pb] for pb in _positions(b.i)] for pa in _positions(a.i)]
    if copies is None:
        copies = [(s, j) for s, summand in enumerate(dec.summands) for j in range(summand.copies)]
    out = []
    for s, j in copies:
        if not 0 <= s < len(dec.summands):
            raise IndexOutOfRange(f"summand index {s} not below gcd = {len(dec.summands)}")
        summand = dec.summands[s]
        if not 0 <= j < summand.copies:
            raise IndexOutOfRange(f"copy index {j} not below d_s = {summand.copies}")
        twist = ring.one
        if j:
            if (ring.size - 1) % summand.copies:
                raise InvalidInput(
                    f"F_{ring.size} has no primitive root of unity of order {summand.copies}"
                )
            twist = field_generator(ring) ** ((ring.size - 1) // summand.copies * j)
        source = _build_cyclic(ring, summand.spec.i, twist)
        pos_src = _positions(summand.spec.i)
        hs = summand.period
        rows = [[ring.zero.data] * hs for _ in range(target.rank)]
        coeff = ring.one.data
        for m in range(summand.copies):
            for w in range(hs):
                # r < lcm(h, h') is fixed by r mod h and r mod h', so each row is hit once
                r = w + m * hs
                rows[row_of[r % a.h][(r + s) % b.h]][pos_src[w]] = coeff
            coeff = ring._mul(coeff, twist.data)
        matrix = Matrix._from_data(ring, rows, hs)
        _check_embedding(matrix, source, target)
        out.append(Embedding(source, target, matrix, s, j))
    return out


def _monomial_columns(phi):
    """The one nonzero entry of each column of a monomial matrix, as (row,
    raw value)."""
    zero = phi.ring.zero.data
    out = []
    for col in zip(*phi._raw):
        [entry] = [(u, x) for u, x in enumerate(col) if x != zero]
        out.append(entry)
    return out


def _check_embedding(matrix, source, target):
    """Raise InternalRankFailure unless matrix E is an injective morphism of
    the one-block modules source -> target over a field, checked by index.

    Morphism: every nonzero entry of E joins equal weights, as a summand's
    embedding does, so divided(E) = E and the equations of is_morphism read
    Φ_tgt E = E Φ_src.  The Φ of a cyclic module and of a tensor product of
    two is monomial.  For a nonzero E[k][n] = x, with z at row k' the one
    entry of column k of Φ_tgt and y at row m the one entry of column n of
    Φ_src, entry (k', n) reads z x on the left and E[k'][m] y on the right,
    one term each.  Checking these equations at every nonzero of E suffices:
    they make (k', m) a nonzero of E, and (k, n) -> (k', m) is a bijection of
    the index pairs, so it maps the nonzeros of E onto themselves, and every
    entry of either side that is not compared is zero.  Injective: no column
    is zero and no row is hit twice, so the columns have disjoint supports.
    The messages are those of the is_morphism and rank_field checks this
    replaces.
    """
    ring = matrix.ring
    mul = ring._mul
    zero = ring.zero.data
    rows = matrix._raw
    w_src = source.blocks[0].weights
    w_tgt = target.blocks[0].weights
    src_cols = _monomial_columns(source.blocks[0].phi)
    tgt_cols = _monomial_columns(target.blocks[0].phi)
    entries = [(k, n, x) for k, row in enumerate(rows) for n, x in enumerate(row) if x != zero]
    for k, n, x in entries:
        k2, z = tgt_cols[k]
        m, y = src_cols[n]
        if w_tgt[k] != w_src[n] or mul(z, x) != mul(rows[k2][m], y):
            raise InternalRankFailure("summand embedding failed the morphism equations")
    hit_rows = {k for k, _, _ in entries}
    hit_cols = {n for _, n, _ in entries}
    if len(hit_rows) != len(entries) or len(hit_cols) != matrix.ncols:
        raise InternalRankFailure("summand embedding is not injective")


def all_embeddings(a, b, q):
    """Every summand embedding, summands in order and copies ascending."""
    return _embeddings(a, b, q)


def change_of_basis(a, b, q):
    """Matrix whose columns are the images of all summand embeddings."""
    ring = _as_field(q)
    mats = [emb.matrix for emb in all_embeddings(a, b, ring)]
    # row r is row r of every embedding matrix in turn
    rows = [[x for row in parts for x in row] for parts in zip(*(m._raw for m in mats))]
    return Matrix._from_data(ring, rows, sum(m.ncols for m in mats))
