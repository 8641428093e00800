"""Filtered semilinear modules with block decomposition.

An FLModule over a coefficient ring R stores, for each block τ ∈ Z/f′Z
(f′ must divide the degree f of R):

* an ascending weight list w_{τ,1} <= ... <= w_{τ,r} attached to an adapted
  basis e_{τ,1}, ..., e_{τ,r} -- the filtration step Fil^j of block τ is the
  span of the e_{τ,i} with w_{τ,i} >= j;
* an r x r matrix Φ_τ over R whose column i expresses φ^{w_{τ,i}}(e_{τ,i})
  in the adapted basis of block στ = τ + 1.

Lower divided maps are reconstructed, never stored: φ^j(e_{τ,i}) =
p^{w_{τ,i} - j} * (column i of Φ_τ) for j <= w_{τ,i}.  The semilinearity of φ
is exhausted by the τ -> τ+1 block shift, so each Φ_τ is an honest R-linear
matrix.

A filtered map A between adapted bases is read through this divided
Frobenius: entry (u, a) must vanish when w_u < w_a and is otherwise scaled by
p^{w_u - w_a}.  first_unadapted and divided are the one home of that weight
shift; morphisms, changes of basis and Gram matrices (row weights s - w_i)
all go through them.

Operations: validation of the axioms, tensor product, dual
relative to a rank-1 twisting datum, base change along level maps, and
morphism spaces.
"""

from __future__ import annotations

from .errors import (
    BlockRankMismatch,
    InvalidInput,
    MultiplicityNotFree,
    RangeViolation,
    RingMismatch,
    SingularPhi,
    WeightOutOfBounds,
)
from .linalg import Matrix, _coerce_entry, _gauss_jordan
from .rings import Ring, SmallSurj


class FLBlock:
    """One τ-block: ascending weights plus the jump-map matrix Φ_τ; _phi_inv,
    not part of its value, is Φ_τ^{-1} if dual built it, else None."""

    __slots__ = ("weights", "phi", "_phi_inv")

    def __init__(self, weights, phi):
        weights = tuple(int(w) for w in weights)
        if not isinstance(phi, Matrix):
            raise InvalidInput("phi must be a Matrix")
        if phi.nrows != phi.ncols:
            raise InvalidInput("phi must be square")
        if phi.ncols == 0:
            raise InvalidInput("blocks must have positive rank")
        if len(weights) != phi.ncols:
            raise InvalidInput("one weight per basis vector required")
        if any(weights[i] > weights[i + 1] for i in range(len(weights) - 1)):
            raise InvalidInput("weights must be ascending")
        self.weights = weights
        self.phi = phi
        self._phi_inv = None

    @property
    def rank(self):
        return self.phi.nrows

    def __eq__(self, other):
        if not isinstance(other, FLBlock):
            return NotImplemented
        return self.weights == other.weights and self.phi == other.phi

    def __hash__(self):
        return hash((self.weights, self.phi))

    def __repr__(self):
        return f"FLBlock(weights={self.weights}, phi={self.phi!r})"


def check_block_count(ring, count):
    """Raise InvalidInput unless the block count is a positive divisor of f."""
    if not count:
        raise InvalidInput("at least one block required")
    if ring.f % count:
        raise InvalidInput(f"block count {count} does not divide the ring degree f = {ring.f}")


class FLModule:
    """Filtered module in adapted form; immutable."""

    __slots__ = ("ring", "bounds", "blocks")

    def __init__(self, ring, bounds, blocks):
        blocks = tuple(blocks)
        check_block_count(ring, len(blocks))
        a, b = bounds
        a, b = int(a), int(b)
        if a > b:
            raise InvalidInput(f"empty weight interval [{a}, {b}]")
        for blk in blocks:
            if blk.phi.ring != ring:
                raise RingMismatch("block matrix over the wrong ring")
        self.ring = ring
        self.bounds = (a, b)
        self.blocks = blocks

    @property
    def witt_degree(self):
        return len(self.blocks)

    @property
    def rank(self):
        return self.blocks[0].rank

    def block(self, tau):
        return self.blocks[tau % len(self.blocks)]

    def __eq__(self, other):
        if not isinstance(other, FLModule):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.bounds == other.bounds
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ring, self.bounds, self.blocks))

    def __repr__(self):
        return (
            f"FLModule(ring={self.ring!r}, bounds={self.bounds}, "
            f"rank={self.rank}, blocks={self.witt_degree})"
        )


class MorphismSpace:
    """Solutions of the morphism equations between two modules.

    basis holds per-block matrix tuples; over a residue field it is a basis,
    over a higher-level ring a generating set of the Hom module.
    """

    __slots__ = ("domain", "codomain", "basis")

    def __init__(self, domain, codomain, basis):
        self.domain = domain
        self.codomain = codomain
        self.basis = tuple(basis)

    @property
    def dimension(self):
        return len(self.basis)

    def __repr__(self):
        return f"MorphismSpace(dimension={self.dimension})"


# ---------------------------------------------------------------------------
# validation and reconstruction


def validate(module):
    """Check all axioms; raise a specific error naming the first violation."""
    a, b = module.bounds
    rank = module.blocks[0].rank
    for tau, blk in enumerate(module.blocks):
        if blk.rank != rank:
            raise BlockRankMismatch(
                f"block {tau} has rank {blk.rank}, expected {rank}"
            )
    for tau, blk in enumerate(module.blocks):
        for w in blk.weights:
            if not a <= w <= b:
                raise WeightOutOfBounds(
                    f"block {tau} weight {w} outside [{a}, {b}]"
                )
    for tau, blk in enumerate(module.blocks):
        if not blk.phi.is_invertible():
            raise SingularPhi(f"block {tau}")


def check_multiplicity_free(module):
    """Raise MultiplicityNotFree unless each block has distinct weights."""
    for tau, blk in enumerate(module.blocks):
        if len(set(blk.weights)) != blk.rank:
            raise MultiplicityNotFree(f"block {tau} has repeated weights")


def check_weight_spread(module):
    """Raise RangeViolation unless 2 · (max weight − min weight) <= p − 2."""
    weights = [w for blk in module.blocks for w in blk.weights]
    spread = max(weights) - min(weights)
    p = module.ring.p
    if 2 * spread > p - 2:
        raise RangeViolation(
            f"weight spread {spread} exceeds (p-2)/2 for p = {p}"
        )


# ---------------------------------------------------------------------------
# tensor, dual, base change


def _pair_order(weights1, weights2):
    pairs = sorted(
        (weights1[i] + weights2[j], i, j)
        for i in range(len(weights1))
        for j in range(len(weights2))
    )
    return [(i, j) for _, i, j in pairs], [w for w, _, _ in pairs]


def tensor(m1, m2):
    """Tensor product, adapted basis sorted by total weight.

    Φ_τ is the Kronecker product of the factors' blocks in that order, formed
    from products of nonzero entries only: a product with a zero factor is
    the ring's zero on every family.
    """
    if m1.ring != m2.ring:
        raise RingMismatch("tensor factors over different rings")
    if m1.witt_degree != m2.witt_degree:
        raise InvalidInput("tensor factors with different block counts")
    ring = m1.ring
    a = m1.bounds[0] + m2.bounds[0]
    b = m1.bounds[1] + m2.bounds[1]
    if b - a > ring.p - 2:
        raise RangeViolation(
            f"weight interval length {b - a} exceeds p-2 = {ring.p - 2}"
        )
    fprime = m1.witt_degree
    orders = []
    sums = []
    for tau in range(fprime):
        order, weight_sums = _pair_order(
            m1.blocks[tau].weights, m2.blocks[tau].weights
        )
        orders.append(order)
        sums.append(weight_sums)
    mul = ring._mul
    zero = ring.zero.data
    blocks = []
    for tau in range(fprime):
        stau = (tau + 1) % fprime
        nz1, nz2 = (
            [[(i, x) for i, x in enumerate(row) if x != zero] for row in m.blocks[tau].phi._raw]
            for m in (m1, m2)
        )
        col = {pair: k for k, pair in enumerate(orders[tau])}
        rows = []
        for u, v in orders[stau]:
            row = [zero] * len(col)
            for i, x in nz1[u]:
                for j, y in nz2[v]:
                    row[col[i, j]] = mul(x, y)
            rows.append(row)
        blocks.append(FLBlock(tuple(sums[tau]), Matrix._from_data(ring, rows, len(col))))
    return FLModule(ring, (a, b), blocks)


def dual(module, L):
    """Dual relative to the rank-1 twisting datum L (shifts L.s, units L.c).

    Block τ gets weights {s_τ - w : w ∈ weights_τ}, and on the
    ascending-sorted dual basis Φ^∨_τ = J (c_τ (Φ_τ^{-1})^T) J with J the
    index reversal, read off by index: for rank r,
    (Φ^∨_τ)[i][j] = c_τ · (Φ_τ^{-1})[r-1-j][r-1-i].  Output bounds are tight.

    Its inverse needs no elimination: (Φ^∨_τ)^{-1} = c_τ^{-1} J Φ_τ^T J, so
    entry (i, j) is c_τ^{-1} · Φ_τ[r-1-j][r-1-i].  Each output block carries
    it for dual and hom_mf to read when c_τ is a unit; the blocks of the
    input are eliminated on every call and nothing is stored on them.
    """
    ring = module.ring
    fprime = module.witt_degree
    if len(L.s) != fprime or len(L.c) != fprime:
        raise InvalidInput("twisting datum has the wrong number of blocks")
    blocks = []
    seen = []
    for tau in range(fprime):
        blk = module.blocks[tau]
        inv = _phi_inverse(blk, SingularPhi(f"block {tau}"))
        c = _coerce_entry(ring, L.c[tau])
        weights = tuple(L.s[tau] - w for w in reversed(blk.weights))
        seen.extend(weights)
        dual_blk = FLBlock(weights, _reversed_transpose(ring, inv, c))
        if ring._is_unit(c):
            dual_blk._phi_inv = _reversed_transpose(ring, blk.phi._raw, ring._inv(c))
        blocks.append(dual_blk)
    return FLModule(ring, (min(seen), max(seen)), blocks)


def _reversed_transpose(ring, rows, c):
    # c · J rows^T J: row i is c times column r-1-i of rows, read bottom to top
    r = len(rows)
    out = [ring._row_scale([row[k] for row in reversed(rows)], c) for k in reversed(range(r))]
    return Matrix._from_data(ring, out, r)


def _phi_inverse(blk, error=None):
    """Raw rows of Φ_τ^{-1}: the closed form dual attached, else an elimination."""
    if blk._phi_inv is not None:
        return blk._phi_inv._raw
    return blk.phi.inverse(error=error)._raw


def base_change(module, target):
    """Lift canonically along a small surjection (or to a higher-level ring)."""
    if isinstance(target, SmallSurj):
        if module.ring != target.target:
            raise RingMismatch("module is not over the quotient of the surjection")
        upper = target.source
    elif isinstance(target, Ring):
        upper = target
    else:
        raise InvalidInput("base_change expects a SmallSurj or a ring")
    low = module.ring
    upper._check_lift(low)
    return _map_module(module, lambda x: upper._lift_data(low, x), upper)


def reduce(module, surj):
    """Push a module down a small surjection by entrywise reduction."""
    if module.ring != surj.source:
        raise RingMismatch("module is not over the source of the surjection")
    source, target = surj.source, surj.target
    return _map_module(module, lambda x: source._reduce_data(x, target), target)


def _map_module(module, fn, ring):
    # the module over ring with fn applied to the raw data of every Φ entry
    blocks = [FLBlock(blk.weights, blk.phi._map_data(fn, ring)) for blk in module.blocks]
    return FLModule(ring, module.bounds, blocks)


# ---------------------------------------------------------------------------
# morphisms


def first_unadapted(A, row_weights, col_weights):
    """First (u, a) in row-major order with A[u, a] != 0 although
    row_weights[u] < col_weights[a]; None when A respects the weights."""
    zero = A.ring.zero.data
    for u, row in enumerate(A._raw):
        wu = row_weights[u]
        for a, x in enumerate(row):
            if wu < col_weights[a] and x != zero:
                return u, a
    return None


def divided(A, row_weights, col_weights):
    """The divided matrix p^{row_weights[u] - col_weights[a]} A[u, a].

    Entries with a negative gap become zero; callers that need them to
    vanish check first_unadapted.  Entries with a gap of at least the level
    are zero as well, since p^gap (or t^gap) vanishes there.
    """
    ring = A.ring
    mul = ring._mul
    zero = ring.zero.data
    level = ring.level
    scales = {}
    rows = []
    for u, row in enumerate(A._raw):
        wu = row_weights[u]
        out = []
        for a, x in enumerate(row):
            gap = wu - col_weights[a]
            if gap < 0 or gap >= level or x == zero:
                out.append(zero)
                continue
            if gap not in scales:
                scales[gap] = ring.pi_pow(gap).data
            out.append(mul(scales[gap], x))
        rows.append(out)
    return Matrix._from_data(ring, rows, A.ncols)


def is_morphism(maps, domain, codomain):
    """Check filtration preservation and φ-intertwining of per-block matrices."""
    if domain.ring != codomain.ring:
        raise RingMismatch("morphism between modules over different rings")
    fprime = domain.witt_degree
    if codomain.witt_degree != fprime or len(maps) != fprime:
        raise InvalidInput("block count mismatch")
    # maps[tau] sends the domain basis (columns) to the codomain basis (rows)
    weights = [(codomain.block(t).weights, domain.block(t).weights) for t in range(fprime)]
    for tau in range(fprime):
        if first_unadapted(maps[tau], *weights[tau]) is not None:
            return False
    for tau in range(fprime):
        lhs = maps[(tau + 1) % fprime] * domain.blocks[tau].phi
        if lhs != codomain.blocks[tau].phi * divided(maps[tau], *weights[tau]):
            return False
    return True


def hom_mf(domain, codomain):
    """Solve the morphism equations; basis over a field, generators otherwise.

    Unknowns are the entries A_τ[u,a] with w^cod_{τ,u} >= w^dom_{τ,a} (all
    others vanish by filtration preservation); the equations are
    A_{στ} Φ^dom_τ = Φ^cod_τ · (p-power divided action of A_τ) per block,
    and the result is the one kernel_gens gives on this full system.

    Over a field p^gap = 0 for gap >= 1, so the divided action keeps only the
    graded part gr(A_τ), the equal-weight entries.  If every Φ^dom_τ is
    invertible, A_{στ} = P_τ = Φ^cod_τ gr(A_τ) (Φ^dom_τ)^{-1}, and _hom_on_gr
    solves for the graded entries alone: P_τ vanishes where
    w^cod_{στ,v} < w^dom_{στ,b} and equals gr(A_{στ}) on equal weights.
    A singular Φ^dom_τ, or a ring that is not a field, takes the full system.

    The basis is the same.  kernel_gens gives, per free column f ascending,
    the kernel vector that is 1 at f, 0 at the other free columns and 0 after
    f (the reduced row of a later pivot is 0 before that pivot).  Column j is
    free iff it lies in the span of the columns before it, iff some kernel
    vector has its last nonzero entry at j.  So the kernel maps isomorphically
    onto the free coordinates, and that basis, the one that is the identity
    there, is the reduced echelon form of any kernel basis with columns
    scanned right to left and rows sorted by pivot.
    """
    if domain.ring != codomain.ring:
        raise RingMismatch("hom between modules over different rings")
    fprime = domain.witt_degree
    if codomain.witt_degree != fprime:
        raise InvalidInput("block count mismatch")
    ring = domain.ring
    if ring.is_field() and (basis := _hom_on_gr(domain, codomain)) is not None:
        return MorphismSpace(domain, codomain, basis)
    rM = domain.rank
    rN = codomain.rank
    unknowns = []
    index = {}
    for tau in range(fprime):
        wM = domain.blocks[tau].weights
        wN = codomain.blocks[tau].weights
        for u in range(rN):
            for a in range(rM):
                if wN[u] >= wM[a]:
                    index[(tau, u, a)] = len(unknowns)
                    unknowns.append((tau, u, a))
    add, sub, mul = ring._add, ring._sub, ring._mul
    zero = ring.zero.data
    scales = {}
    rows = []
    for tau in range(fprime):
        stau = (tau + 1) % fprime
        phiM = domain.blocks[tau].phi._raw
        phiN = codomain.blocks[tau].phi._raw
        wM = domain.blocks[tau].weights
        wN = codomain.blocks[tau].weights
        for v in range(rN):
            for a in range(rM):
                coeffs = [zero] * len(unknowns)
                for u in range(rM):
                    pos = index.get((stau, v, u))
                    if pos is not None and phiM[u][a] != zero:
                        coeffs[pos] = add(coeffs[pos], phiM[u][a])
                for u in range(rN):
                    pos = index.get((tau, u, a))
                    if pos is not None:
                        gap = wN[u] - wM[a]
                        if gap not in scales:
                            scales[gap] = ring.pi_pow(gap).data
                        c = mul(phiN[v][u], scales[gap])
                        if c != zero:
                            coeffs[pos] = sub(coeffs[pos], c)
                rows.append(coeffs)
    system = Matrix._from_data(ring, rows, len(unknowns))
    basis = []
    for gen in system.kernel_gens():
        per_block = [[[zero] * rM for _ in range(rN)] for _ in range(fprime)]
        for pos, (tau, u, a) in enumerate(unknowns):
            per_block[tau][u][a] = gen[pos].data
        basis.append(tuple(Matrix._from_data(ring, m, rM) for m in per_block))
    return MorphismSpace(domain, codomain, basis)


def _hom_on_gr(domain, codomain):
    """hom_mf's basis over a field from the graded part; None if a Φ^dom_τ is
    singular.  Each (Φ^dom_τ)^{-1} is the one dual attached, else eliminated."""
    try:
        inverses = [_phi_inverse(blk) for blk in domain.blocks]
    except InvalidInput:
        return None
    ring = domain.ring
    sub, mul, dot = ring._sub, ring._mul, ring._dot
    zero, one = ring.zero.data, ring.one.data
    fprime, rM, rN = len(inverses), domain.rank, codomain.rank
    weights = [(n.weights, m.weights) for n, m in zip(codomain.blocks, domain.blocks)]
    graded = [[(u, a) for u in range(rN) for a in range(rM) if n[u] == m[a]] for n, m in weights]
    offsets = [sum(map(len, graded[:t])) for t in range(fprime + 1)]
    width = offsets[-1]
    if not width:
        return ()
    # cells: per entry of A_{στ}, στ = 0, 1, ..., row-major, its coefficients
    # in the graded entries of A_τ and their offset, or None where it vanishes
    cells, rows = [], []
    for stau in range(fprime):
        tau = (stau - 1) % fprime
        phiN, inv = codomain.blocks[tau].phi._raw, inverses[tau]
        wN, wM = weights[stau]
        j = offsets[stau]
        for v in range(rN):
            for b in range(rM):
                form = [mul(phiN[v][u], inv[a][b]) for u, a in graded[tau]]
                cells.append((form, offsets[tau]) if wN[v] >= wM[b] else None)
                if wN[v] <= wM[b]:
                    row = [zero] * width
                    row[offsets[tau]:offsets[tau + 1]] = form
                    if wN[v] == wM[b]:
                        row[j] = sub(row[j], one)
                        j += 1
                    rows.append(row)
    flats = []
    for gen in Matrix._from_data(ring, rows, width).kernel_gens():
        gen = [x.data for x in gen]
        flats.append([dot(cell[0], gen[cell[1]:]) if cell else zero for cell in reversed(cells)])
    # right-to-left reduced echelon form; a lone solution whose last nonzero entry is 1 has it
    if len(flats) > 1 or flats and next(x for x in flats[0] if x != zero) != one:
        flats, _ = _gauss_jordan(ring, flats, len(cells))
    size = rN * rM
    return tuple(
        tuple(
            Matrix._from_data(ring, [vec[s:s + rM] for s in range(t, t + size, rM)], rM)
            for t in range(0, fprime * size, size)
        )
        for vec in (flat[::-1] for flat in reversed(flats))
    )
