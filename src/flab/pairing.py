"""ε-symmetric perfect pairings valued in a rank-1 twisting module.

A PairedFLModule couples an FLModule with per-block Gram matrices G_τ
(recording ⟨e_{τ,i}, e_{τ,j}⟩ against a fixed basis vector of L_τ) and the
twisting datum LData: per-block weights s_τ, units c_τ = φ^{s_τ}_L on the
fixed bases, and the sign ε (+1 orthogonal, -1 symplectic).

The axioms checked by validate_pairing:

* filtration: G_τ[i,j] = 0 whenever w_{τ,i} + w_{τ,j} > s_τ;
* ε-symmetry: G_τ^T = ε G_τ;
* perfectness: G_τ invertible, which with the filtration support forces the
  weight multiset to be self-dual ({w} = {s_τ - w});
* Φ-compatibility: Φ_τ^T G_{στ} Φ_τ = c_τ · (p^{s_τ-w_i-w_j} G_τ[i,j])_{ij}.
  The filtration check and this divided Gram are modules.first_unadapted
  and modules.divided with row weights s_τ - w_i and column weights w_j.
  It is decided on the entries i <= j only, and runs after the symmetry
  check has passed on every block: then G_{στ}^T = ε G_{στ} makes the left
  side ε-symmetric, and the weight gap s_τ - w_i - w_j, symmetric in (i, j),
  makes the right side ε-symmetric, so the two sides agree everywhere
  exactly when they agree on and above the diagonal.  The left side is
  linalg._form on raw data.

normalize_standard turns any multiplicity-free valid pairing into an exact
unit multiple ω_τ of the standard anti-diagonal form by a weight-adapted
change of basis, clearing Gram entries with exact unit divisions so the
result holds over every level of the ring tower.
"""

from __future__ import annotations

import functools

from .errors import (
    FiltrationViolation,
    InternalRankFailure,
    InvalidInput,
    NotPerfect,
    OddRankSymplectic,
    PhiIncompatible,
    RingMismatch,
    SymmetryViolation,
)
from .linalg import Matrix, _form
from .modules import (
    FLBlock,
    FLModule,
    _map_module,
    check_multiplicity_free,
    divided,
    first_unadapted,
)
from .rings import RingElem


class LData:
    """Twisting datum: per-block weight s_τ and unit c_τ, plus the sign ε."""

    __slots__ = ("epsilon", "s", "c")

    def __init__(self, epsilon, s, c):
        if epsilon not in (1, -1):
            raise InvalidInput("epsilon must be +1 or -1")
        s = tuple(int(x) for x in s)
        c = tuple(c)
        if len(s) != len(c) or not s:
            raise InvalidInput("s and c must be equal-length nonempty tuples")
        for unit in c:
            if not isinstance(unit, RingElem):
                raise InvalidInput("c entries must be ring elements")
            if not unit.ring.is_unit(unit):
                raise InvalidInput("c entries must be units")
        self.epsilon = epsilon
        self.s = s
        self.c = c

    def __eq__(self, other):
        if not isinstance(other, LData):
            return NotImplemented
        return (self.epsilon, self.s, self.c) == (other.epsilon, other.s, other.c)

    def __hash__(self):
        return hash((self.epsilon, self.s, self.c))

    def __repr__(self):
        return f"LData(epsilon={self.epsilon}, s={self.s})"


class PairedFLModule:
    """An FLModule together with per-block Gram matrices against L."""

    __slots__ = ("module", "L", "gram")

    def __init__(self, module, L, gram):
        gram = tuple(gram)
        fprime = module.witt_degree
        if len(L.s) != fprime:
            raise InvalidInput("twisting datum has the wrong number of blocks")
        if len(gram) != fprime:
            raise InvalidInput("one Gram matrix per block required")
        for tau, g in enumerate(gram):
            if not isinstance(g, Matrix):
                raise InvalidInput("gram entries must be matrices")
            if g.ring != module.ring:
                raise RingMismatch(f"Gram block {tau} over the wrong ring")
            r = module.blocks[tau].rank
            if (g.nrows, g.ncols) != (r, r):
                raise InvalidInput(f"Gram block {tau} must be {r}x{r}")
        for unit in L.c:
            if unit.ring != module.ring:
                raise RingMismatch("twisting units over the wrong ring")
        self.module = module
        self.L = L
        self.gram = gram

    def __eq__(self, other):
        if not isinstance(other, PairedFLModule):
            return NotImplemented
        return (
            self.module == other.module
            and self.L == other.L
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.module, self.L, self.gram))

    def __repr__(self):
        return f"PairedFLModule({self.module!r}, epsilon={self.L.epsilon})"


class NormalizationResult:
    """Output of normalize_standard.

    pairing is the re-assembled PairedFLModule in the new basis (Gram exactly
    omega_τ times the standard form); change_of_basis holds the per-block
    matrices V_τ whose columns are the new basis vectors in the old basis.
    """

    __slots__ = ("pairing", "change_of_basis", "omega", "_old_phi")

    def __init__(self, pairing, change_of_basis, omega, old_phi):
        self.pairing = pairing
        self.change_of_basis = tuple(change_of_basis)
        self.omega = tuple(omega)
        self._old_phi = tuple(old_phi)

    def m_matrix(self, tau):
        """Coordinates of φ^{w_i}(new v_i) in the old basis of block στ."""
        module = self.pairing.module
        old_phi = self._old_phi[tau]
        weights = module.blocks[tau].weights
        return old_phi * divided(self.change_of_basis[tau], weights, weights)

    def __repr__(self):
        return f"NormalizationResult(omega={self.omega})"


# ---------------------------------------------------------------------------
# standard forms


@functools.lru_cache
def standard_gram(ring, rank, epsilon):
    """Antidiagonal ones for ε=+1; [[0, J],[-J, 0]] layout for ε=-1.

    Cached per (ring, rank, ε): the Matrix is immutable, and errors are
    raised again on every call."""
    if epsilon not in (1, -1):
        raise InvalidInput("epsilon must be +1 or -1")
    if epsilon == -1 and rank % 2:
        raise OddRankSymplectic(f"rank {rank} is odd")
    one = ring.one.data
    minus_one = (-ring.one).data
    rows = [[ring.zero.data] * rank for _ in range(rank)]
    for a in range(rank):
        value = one
        if epsilon == -1 and a >= rank // 2:
            value = minus_one
        rows[a][rank - 1 - a] = value
    return Matrix._from_data(ring, rows, rank)


def sign_function(rank, epsilon):
    """η_h = std[h, h*] as plain ±1 integers."""
    if epsilon == 1:
        return (1,) * rank
    if rank % 2:
        raise OddRankSymplectic(f"rank {rank} is odd")
    return tuple(1 if h < rank // 2 else -1 for h in range(rank))


def gram_transform(G, C):
    """Congruence transform C^T G C for an invertible change of basis C."""
    if not C.is_invertible():
        raise InvalidInput("change of basis must be invertible")
    return C.transpose() * G * C


# ---------------------------------------------------------------------------
# validation


def validate_pairing(paired):
    """Check all pairing axioms; module validity is the caller's precondition.

    The public entry points call it: once on each input pairing
    (normalize_standard, LiftProblem, delta_space) and once on each pairing
    they return (normalize_standard, lift_small).  Private paths between
    them, such as _normalize, do not repeat it.
    """
    module = paired.module
    L = paired.L
    eps = L.epsilon
    rank = module.rank
    if eps == -1 and rank % 2:
        raise OddRankSymplectic(f"rank {rank} is odd")
    ring = module.ring
    zero = ring.zero.data
    for tau, blk in enumerate(module.blocks):
        G = paired.gram[tau]
        w = blk.weights
        s = L.s[tau]
        bad = first_unadapted(G, [s - x for x in w], w)
        if bad is not None:
            i, j = bad
            raise FiltrationViolation(
                f"block {tau} entry ({i + 1}, {j + 1}): "
                f"weights {w[i]}+{w[j]} exceed s = {s}"
            )
        g = G._raw
        for i in range(rank):
            for j in range(i, rank):
                mirrored = g[i][j] if eps == 1 else ring._sub(zero, g[i][j])
                if g[j][i] != mirrored:
                    raise SymmetryViolation(
                        f"block {tau} entry ({j + 1}, {i + 1})"
                    )
        if sorted(s - x for x in w) != list(w):
            raise NotPerfect(f"block {tau} weights are not self-dual for s = {s}")
        if not G.is_invertible():
            raise NotPerfect(f"block {tau}")
    # every Gram block is ε-symmetric by now, so i <= j decides (module docstring)
    for tau, blk in enumerate(module.blocks):
        stau = (tau + 1) % module.witt_degree
        lhs = _form(blk.phi, paired.gram[stau], blk.phi, upper=True)
        w = blk.weights
        rhs = (L.c[tau] * divided(paired.gram[tau], [L.s[tau] - x for x in w], w))._raw
        if any(lhs[i][j] != rhs[i][j] for i in range(rank) for j in range(i, rank)):
            raise PhiIncompatible(f"block {tau}")


# ---------------------------------------------------------------------------
# basis change


def change_basis(paired, vs):
    """Re-express a paired module in new weight-adapted bases v'_a = V columns.

    Per block: Gram becomes V_τ^T G_τ V_τ and Φ becomes
    V_{στ}^{-1} Φ_τ W_τ with W_τ[u,a] = p^{w_u - w_a} V_τ[u,a].
    """
    module = paired.module
    ring = module.ring
    fprime = module.witt_degree
    vs = tuple(vs)
    if len(vs) != fprime:
        raise InvalidInput("one change of basis per block required")
    for tau, V in enumerate(vs):
        weights = module.blocks[tau].weights
        if first_unadapted(V, weights, weights) is not None:
            raise InvalidInput(f"block {tau} change of basis is not weight-adapted")
    inverses = [V.inverse(error=InvalidInput("change of basis must be invertible")) for V in vs]
    blocks = []
    grams = []
    for tau in range(fprime):
        stau = (tau + 1) % fprime
        blk = module.blocks[tau]
        V = vs[tau]
        W = divided(V, blk.weights, blk.weights)
        blocks.append(FLBlock(blk.weights, inverses[stau] * (blk.phi * W)))
        grams.append(Matrix._from_data(ring, _form(V, paired.gram[tau], V), V.ncols))
    new_module = FLModule(ring, module.bounds, blocks)
    return PairedFLModule(new_module, paired.L, grams)


def reduce_paired(paired, surj):
    """Push a paired module through a small surjection coefficientwise."""
    source = surj.source
    target = surj.target
    if paired.module.ring != source:
        raise RingMismatch("paired module must live over the source ring")
    return _map_paired(paired, lambda x: source._reduce_data(x, target), target)


def _map_paired(paired, fn, ring):
    # the paired module over ring with fn applied to all raw data: Φ, the
    # twisting units and the Gram matrices
    L = paired.L
    return PairedFLModule(
        _map_module(paired.module, fn, ring),
        LData(L.epsilon, L.s, tuple(RingElem(ring, fn(c.data)) for c in L.c)),
        tuple(g._map_data(fn, ring) for g in paired.gram),
    )


# ---------------------------------------------------------------------------
# normalization


def _col_update(ring, G, V, target, source, coeff):
    # v_target <- v_target - coeff * v_source, on raw data
    sub, mul = ring._sub, ring._mul
    for row in G:
        row[target] = sub(row[target], mul(coeff, row[source]))
    G[target] = [sub(a, mul(coeff, b)) for a, b in zip(G[target], G[source])]
    for row in V:
        row[target] = sub(row[target], mul(coeff, row[source]))


def _col_scale(ring, G, V, target, unit):
    mul = ring._mul
    for row in G:
        row[target] = mul(row[target], unit)
    G[target] = [mul(a, unit) for a in G[target]]
    for row in V:
        row[target] = mul(row[target], unit)


def normalize_standard(paired, unit_reduce=False):
    """Weight-adapted change of basis making each Gram exactly ω_τ · standard.

    Requires multiplicity-free weights per block.  The anti-triangular Gram
    support makes every anti-diagonal entry a unit, so the elimination order
    j = 1, ..., ceil(r/2) with exact coefficients G[j,h]/G[j,j*] clears all
    off-anti-diagonal entries at every ring level; even ranks rescale to
    ω_τ = 1, odd ranks keep the middle self-pairing as ω_τ.  With unit_reduce
    the odd-rank ω_τ is further scaled by a unit square to the canonical lift
    of its residue.

    validate_pairing runs here on the input and on the result; module
    validity stays the caller's precondition.  Callers holding an already
    validated pairing use _normalize.
    """
    validate_pairing(paired)
    result = _normalize(paired, unit_reduce)
    validate_pairing(result.pairing)
    return result


def _normalize(paired, unit_reduce=False):
    """normalize_standard without the pairing checks; paired must be valid.

    Keeps the multiplicity check and the exact standard-form comparison.  A
    pairing already in standard form is returned as it is, with identity
    changes of basis.
    """
    module = paired.module
    ring = module.ring
    eps = paired.L.epsilon
    rank = module.rank
    check_multiplicity_free(module)
    identity = Matrix.identity(ring, rank)
    add, mul = ring._add, ring._mul
    zero, one = ring.zero.data, ring.one.data

    def inv(x):
        return ring.inv(RingElem(ring, x)).data

    vs = []
    omegas = []
    for tau, blk in enumerate(module.blocks):
        G = [list(row) for row in paired.gram[tau]._raw]
        V = [list(row) for row in identity._raw]
        for j in range((rank + 1) // 2):
            js = rank - 1 - j
            pivot = G[j][js]
            if eps == 1 and j != js and G[j][j] != zero:
                mu = mul(G[j][j], inv(add(pivot, pivot)))
                _col_update(ring, G, V, j, js, mu)
            for h in range(j + 1, js):
                if G[j][h] != zero:
                    _col_update(ring, G, V, h, js, mul(G[j][h], inv(pivot)))
        if rank % 2 == 0:
            omega = one
            for a in range(rank // 2):
                g = G[a][rank - 1 - a]
                if g != one:
                    _col_scale(ring, G, V, a, inv(g))
        else:
            mid = rank // 2
            omega = G[mid][mid]
            if unit_reduce:
                canonical = ring._lift_data(ring.residue_ring(), ring._residue_data(omega))
                if canonical != omega:
                    ratio = RingElem(ring, mul(canonical, inv(omega)))
                    _col_scale(ring, G, V, mid, ring.unit_sqrt(ratio).data)
                    omega = G[mid][mid]
            for a in range(mid):
                g = G[a][rank - 1 - a]
                if g != omega:
                    _col_scale(ring, G, V, a, mul(omega, inv(g)))
        vs.append(Matrix._from_data(ring, V, rank))
        omegas.append(RingElem(ring, omega))
    if all(V == identity for V in vs):
        normalized = paired
    else:
        normalized = change_basis(paired, vs)
    for tau in range(module.witt_degree):
        expected = omegas[tau] * standard_gram(ring, rank, eps)
        if normalized.gram[tau] != expected:
            raise InternalRankFailure(
                f"normalization of block {tau} missed the standard form"
            )
    return NormalizationResult(
        normalized, vs, omegas, (blk.phi for blk in module.blocks)
    )
