"""Module validation, twists, tensor, dual, base change, and morphisms."""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import pytest

from flab.errors import (
    BlockRankMismatch,
    InvalidInput,
    RangeViolation,
    RingMismatch,
    SingularPhi,
    WeightOutOfBounds,
)
from flab.linalg import Matrix
from flab.modules import (
    FLBlock,
    FLModule,
    base_change,
    dual,
    hom_mf,
    is_morphism,
    reduce,
    tensor,
    validate,
)
from flab.pairing import LData
from flab.rings import make_field, make_ring, make_small_surjection
from flab.simples import (
    SimpleSpec,
    _build_cyclic,
    all_embeddings,
    minimal_period,
    tensor_decompose,
)
from flab.testing import random_fl_module, random_invertible_matrix


def rank1(ring, weight, scalar=1):
    return FLModule(
        ring, (weight, weight), [FLBlock((weight,), Matrix(ring, [[scalar]]))]
    )


def sample_rings():
    return [
        make_field(5),
        make_ring("witt", 5, 1, 2),
        make_ring("witt", 5, 2, 2),
        make_ring("dual_numbers", 7, 1, 3),
    ]


# -- validation ----------------------------------------------------------------


def test_validate_canonical_module(canon2):
    validate(canon2)


def test_validate_rejects_singular_phi(F5):
    m = FLModule(F5, (0, 1), [FLBlock((0, 1), Matrix(F5, [[1, 0], [0, 0]]))])
    with pytest.raises(SingularPhi, match="block 0"):
        validate(m)


def test_validate_rejects_weight_out_of_bounds(F5):
    m = FLModule(F5, (0, 1), [FLBlock((0, 4), Matrix.identity(F5, 2))])
    with pytest.raises(WeightOutOfBounds):
        validate(m)


def test_validate_rejects_rank_mismatch():
    F25 = make_field(25)
    m = FLModule(
        F25,
        (0, 1),
        [
            FLBlock((0, 1), Matrix.identity(F25, 2)),
            FLBlock((0,), Matrix.identity(F25, 1)),
        ],
    )
    with pytest.raises(BlockRankMismatch):
        validate(m)


def test_block_count_must_divide_ring_degree(F5):
    with pytest.raises(InvalidInput):
        FLModule(
            F5,
            (0, 1),
            [FLBlock((0,), Matrix.identity(F5, 1)) for _ in range(2)],
        )


def test_malformed_blocks_are_rejected(F5):
    with pytest.raises(InvalidInput):
        FLBlock((1, 0), Matrix.identity(F5, 2))
    with pytest.raises(InvalidInput):
        FLBlock((0,), Matrix.identity(F5, 2))
    with pytest.raises(InvalidInput):
        FLModule(F5, (1, 0), [FLBlock((0,), Matrix.identity(F5, 1))])


# -- twist ----------------------------------------------------------------------


def tate_twist(module, s):
    """Shift the filtration: weights and bounds move by +s, Φ is unchanged."""
    blocks = [FLBlock(tuple(w + s for w in blk.weights), blk.phi) for blk in module.blocks]
    a, b = module.bounds
    return FLModule(module.ring, (a + s, b + s), blocks)


def test_tate_twist(canon2):
    t = tate_twist(canon2, 3)
    assert t.block(0).weights == (3, 4)
    assert t.bounds == (3, 4)
    assert t.block(0).phi == canon2.block(0).phi
    assert tate_twist(t, -3) == canon2
    assert tate_twist(canon2, 0) == canon2
    validate(t)


# -- tensor -----------------------------------------------------------------------


def test_tensor_canonical_square(canon2):
    t = tensor(canon2, canon2)
    assert t.rank == 4
    assert t.block(0).weights == (0, 1, 1, 2)
    assert t.bounds == (0, 2)
    validate(t)


def test_tensor_unit_object(F5, canon2):
    unit = rank1(F5, 0)
    assert tensor(canon2, unit) == canon2
    assert tensor(unit, canon2) == canon2


def test_tensor_rank_one(F5):
    t = tensor(rank1(F5, 1, 2), rank1(F5, 2, 3))
    assert t.block(0).weights == (3,)
    assert t.block(0).phi[0, 0] == 6


def test_tensor_range_violation(F5, canon2):
    wide = FLModule(F5, (0, 3), [FLBlock((0, 3), Matrix.identity(F5, 2))])
    with pytest.raises(RangeViolation):
        tensor(wide, canon2)


def test_tensor_ring_mismatch(canon2):
    other = rank1(make_field(7), 0)
    with pytest.raises(RingMismatch):
        tensor(canon2, other)


def test_tensor_weight_multiset():
    rng = random.Random(43)
    for ring in sample_rings():
        m1 = random_fl_module(rng, ring, 2, weight_range=(0, 1))
        m2 = random_fl_module(rng, ring, 3, weight_range=(0, 2))
        t = tensor(m1, m2)
        expected = sorted(
            w1 + w2 for w1 in m1.block(0).weights for w2 in m2.block(0).weights
        )
        assert list(t.block(0).weights) == expected
        validate(t)


# -- dual -------------------------------------------------------------------------


def l_data(ring, fprime, s, c=1):
    return SimpleNamespace(
        s=(s,) * fprime, c=(ring.from_int(c),) * fprime
    )


def test_dual_canonical(canon2, F5):
    d = dual(canon2, l_data(F5, 1, 1))
    assert d.block(0).weights == (0, 1)
    assert d.block(0).phi == Matrix.identity(F5, 2)
    assert d.bounds == (0, 1)


def test_dual_of_rank_one_twisting_module(F5):
    L = rank1(F5, 2, 3)
    d = dual(L, SimpleNamespace(s=(2,), c=(F5.from_int(3),)))
    assert d.block(0).weights == (0,)
    validate(d)


def test_dual_weight_multiset_and_involution():
    rng = random.Random(47)
    for ring in sample_rings():
        for _ in range(12):
            m = random_fl_module(rng, ring, 3, witt_degree=1, weight_range=(0, 3))
            L = SimpleNamespace(s=(4,), c=(ring.random_unit(rng),))
            d = dual(m, L)
            validate(d)
            assert sorted(d.block(0).weights) == sorted(
                4 - w for w in m.block(0).weights
            )
            assert dual(d, L) == m


def test_dual_multi_block():
    F25 = make_field(25)
    rng = random.Random(53)
    m = random_fl_module(rng, F25, 2, witt_degree=2, weight_range=(0, 2))
    L = SimpleNamespace(
        s=(3, 2), c=(F25.random_unit(rng), F25.random_unit(rng))
    )
    d = dual(m, L)
    validate(d)
    for tau in range(2):
        assert sorted(d.block(tau).weights) == sorted(
            L.s[tau] - w for w in m.block(tau).weights
        )
    assert dual(d, L) == m


# -- base change ---------------------------------------------------------------------


def test_base_change_round_trip(canon2, Z25):
    surj = make_small_surjection(Z25)
    lifted = base_change(canon2, surj)
    assert lifted.ring is Z25
    assert lifted.block(0).phi == Matrix.identity(Z25, 2)
    validate(lifted)
    assert reduce(lifted, surj) == canon2


def test_base_change_random_round_trip():
    rng = random.Random(59)
    for source in [make_ring("witt", 5, 2, 3), make_ring("dual_numbers", 5, 1, 2)]:
        surj = make_small_surjection(source)
        m = random_fl_module(rng, surj.target, 2, weight_range=(0, 2))
        lifted = base_change(m, surj)
        validate(lifted)
        assert reduce(lifted, surj) == m
    with pytest.raises(RingMismatch):
        reduce(m, surj)


# -- morphisms ----------------------------------------------------------------------


def test_hom_canonical_is_two_dimensional(canon2):
    space = hom_mf(canon2, canon2)
    assert space.dimension == 2
    for maps in space.basis:
        assert is_morphism(maps, canon2, canon2)
        assert maps[0][0, 1] == 0 and maps[0][1, 0] == 0


def test_hom_weight_gap_kills_maps(F5):
    assert hom_mf(rank1(F5, 0), rank1(F5, 1)).dimension == 0
    assert hom_mf(rank1(F5, 1), rank1(F5, 0)).dimension == 0


def test_identity_is_always_a_morphism():
    rng = random.Random(61)
    for ring in sample_rings():
        m = random_fl_module(rng, ring, 3, weight_range=(0, 3))
        ident = [Matrix.identity(ring, 3) for _ in range(m.witt_degree)]
        assert is_morphism(ident, m, m)
        assert hom_mf(m, m).dimension >= 1


def test_hom_basis_elements_are_morphisms():
    rng = random.Random(67)
    rings = [make_field(5), make_field(25), make_ring("witt", 5, 1, 2)]
    for ring in rings:
        fprime = ring.f
        m1 = random_fl_module(rng, ring, 2, witt_degree=fprime, weight_range=(0, 2))
        m2 = random_fl_module(rng, ring, 3, witt_degree=fprime, weight_range=(0, 2))
        space = hom_mf(m1, m2)
        for maps in space.basis:
            assert is_morphism(maps, m1, m2)
            assert any(m[u, a] for m in maps for u in range(3) for a in range(2))


def diagonal_module(ring, scalars):
    """Weight-0 module with Φ = diag(scalars): Hom between two of them is
    supported on the coordinates where the scalars agree."""
    n = len(scalars)
    return FLModule(ring, (0, 0), [FLBlock((0,) * n, Matrix.diagonal(ring, scalars))])


def test_hom_between_diagonal_modules_lives_where_the_scalars_agree():
    F5 = make_field(5)
    space = hom_mf(diagonal_module(F5, [1, 1, 2]), diagonal_module(F5, [1, 1, 3]))
    assert space.dimension == 4
    for (m,) in space.basis:
        assert not any(m[2, a] for a in range(3)) and not any(m[u, 2] for u in range(3))


def _tensor_order(weights1, weights2):
    """Basis order of tensor: e_i ⊗ f_j sorted by (w_i + w'_j, i, j)."""
    return sorted(
        ((i, j) for i in range(len(weights1)) for j in range(len(weights2))),
        key=lambda ij: (weights1[ij[0]] + weights2[ij[1]], ij[0], ij[1]),
    )


def test_tensor_commutes_up_to_isomorphism():
    rng = random.Random(71)
    F5 = make_field(5)
    for _ in range(5):
        m1 = random_fl_module(rng, F5, 2, weight_range=(0, 1))
        m2 = random_fl_module(rng, F5, 2, weight_range=(0, 2))
        t12 = tensor(m1, m2)
        t21 = tensor(m2, m1)
        w1, w2 = m1.block(0).weights, m2.block(0).weights
        order12 = _tensor_order(w1, w2)
        order21 = _tensor_order(w2, w1)
        # P sends e_i ⊗ f_j (column) to f_j ⊗ e_i (row)
        P = Matrix(
            F5,
            [[int(order12[col] == (i, j)) for col in range(4)] for j, i in order21],
        )
        assert is_morphism((P,), t12, t21)
        assert P.is_invertible()


def test_operations_preserve_validity_randomized():
    rng = random.Random(73)
    for ring in sample_rings():
        for _ in range(60):
            m = random_fl_module(
                rng, ring, rng.randint(1, 3), weight_range=(0, rng.randint(0, 2))
            )
            validate(m)
            validate(tate_twist(m, rng.randint(-3, 3)))
            n = random_fl_module(rng, ring, rng.randint(1, 2), weight_range=(0, 1))
            validate(tensor(m, n))
            L = SimpleNamespace(
                s=(rng.randint(0, 4),), c=(ring.random_unit(rng),)
            )
            validate(dual(m, L))


# -- frozen outputs and the dual oracle -----------------------------------------------


def _reference_dual(module, L):
    """dual by its definition: J (c_τ (Φ_τ^{-1})^T) J, J the index reversal."""
    ring = module.ring
    blocks = []
    for tau, blk in enumerate(module.blocks):
        r = blk.rank
        rev = Matrix(ring, [[1 if i + j == r - 1 else 0 for j in range(r)] for i in range(r)])
        phi = rev * (blk.phi.inverse().transpose() * L.c[tau]) * rev
        blocks.append(FLBlock(tuple(L.s[tau] - w for w in reversed(blk.weights)), phi))
    weights = [w for blk in blocks for w in blk.weights]
    return FLModule(ring, (min(weights), max(weights)), blocks)


def test_dual_matches_the_reversal_products():
    rng = random.Random(79)
    rings = [make_field(q) for q in (5, 7, 25)] + [
        make_ring("witt", 5, 1, 2),
        make_ring("witt", 3, 2, 3),
        make_ring("dual_numbers", 5, 1, 3),
        make_ring("dual_numbers", 3, 2, 2),
    ]
    for ring in rings:
        for _ in range(20):
            fprime = rng.choice((1, ring.f))
            m = random_fl_module(
                rng, ring, rng.randint(1, 4), witt_degree=fprime, weight_range=(0, 3)
            )
            L = SimpleNamespace(
                s=tuple(rng.randint(0, 5) for _ in range(fprime)),
                c=tuple(ring.random_unit(rng) for _ in range(fprime)),
            )
            assert dual(m, L) == _reference_dual(m, L)


# -- the inverse dual attaches, and the sparse tensor ----------------------------------

# F_5, F_25, F_49, Z/125, W(F_9)/9, F_5[t]/t^3 and F_9[t]/t^2
SLOT_RINGS = [make_field(q) for q in (5, 25, 49)] + [
    make_ring("witt", 5, 1, 3),
    make_ring("witt", 3, 2, 2),
    make_ring("dual_numbers", 5, 1, 3),
    make_ring("dual_numbers", 3, 2, 2),
]


def _slot_cases():
    rng = random.Random(83)
    for ring in SLOT_RINGS:
        for fprime in (1, 2) if ring.f == 2 else (1,):
            for rank in (1, 2, 3, 4):
                m = random_fl_module(rng, ring, rank, witt_degree=fprime, weight_range=(0, 3))
                L = LData(
                    1,
                    tuple(rng.randint(3, 5) for _ in range(fprime)),
                    tuple(ring.random_unit(rng) for _ in range(fprime)),
                )
                yield m, L


def _without_inverses(module):
    return FLModule(module.ring, module.bounds, [FLBlock(b.weights, b.phi) for b in module.blocks])


def test_dual_attaches_the_inverse_of_each_block():
    cases = 0
    for m, L in _slot_cases():
        d = dual(m, L)
        dd = dual(d, L)
        assert dd == m
        for tau in range(m.witt_degree):
            assert d.blocks[tau]._phi_inv == d.blocks[tau].phi.inverse()
            assert dd.blocks[tau]._phi_inv == m.blocks[tau].phi.inverse()
            assert m.blocks[tau]._phi_inv is None
        # the slot is not part of a block's value
        assert _without_inverses(dd) == dd and hash(_without_inverses(dd)) == hash(dd)
        assert hom_mf(dd, m).basis == hom_mf(_without_inverses(dd), m).basis
        assert hom_mf(d, d).basis == hom_mf(_without_inverses(d), d).basis
        cases += 1
    assert cases == 44


def test_dual_with_a_non_unit_twist_attaches_nothing():
    ring = make_ring("witt", 5, 1, 3)
    m = random_fl_module(random.Random(89), ring, 2, weight_range=(0, 1))
    d = dual(m, SimpleNamespace(s=(2,), c=(ring.from_int(5),)))
    assert d.blocks[0]._phi_inv is None
    with pytest.raises(SingularPhi, match="block 0"):
        dual(d, SimpleNamespace(s=(2,), c=(ring.one,)))


def _count_inverses(monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counting(self, error=None):
        calls.append(self.nrows)
        return inverse(self, error)

    monkeypatch.setattr(Matrix, "inverse", counting)
    return calls


def test_a_double_dual_and_its_hom_eliminate_once_per_block(monkeypatch):
    F25 = make_field(25)
    rng = random.Random(97)
    m = random_fl_module(rng, F25, 4, witt_degree=2, weight_range=(0, 3), distinct_weights=True)
    L = LData(1, (4, 4), (F25.random_unit(rng),) * 2)
    calls = _count_inverses(monkeypatch)
    space = hom_mf(dual(dual(m, L), L), m)
    assert space.dimension >= 1
    assert calls == [4, 4]


def test_dual_eliminates_the_caller_blocks_on_every_call(monkeypatch):
    ring = make_field(7)
    m = random_fl_module(random.Random(101), ring, 3, weight_range=(0, 3))
    L = LData(1, (3,), (ring.from_int(2),))
    calls = _count_inverses(monkeypatch)
    assert dual(m, L) == dual(m, L)
    assert calls == [3, 3]


def _dense_tensor(m1, m2):
    """Reference for tensor: every entry of the Kronecker product multiplied,
    zero or not."""
    ring = m1.ring
    fprime = m1.witt_degree
    orders = [_tensor_order(m1.blocks[t].weights, m2.blocks[t].weights) for t in range(fprime)]
    mul = ring._mul
    blocks = []
    for tau in range(fprime):
        phi1 = m1.blocks[tau].phi._raw
        phi2 = m2.blocks[tau].phi._raw
        rows = [
            [mul(phi1[u][i], phi2[v][j]) for i, j in orders[tau]]
            for u, v in orders[(tau + 1) % fprime]
        ]
        w1, w2 = m1.blocks[tau].weights, m2.blocks[tau].weights
        weights = tuple(w1[i] + w2[j] for i, j in orders[tau])
        blocks.append(FLBlock(weights, Matrix._from_data(ring, rows, len(rows))))
    bounds = (m1.bounds[0] + m2.bounds[0], m1.bounds[1] + m2.bounds[1])
    return FLModule(ring, bounds, blocks)


def _nilpotent_heavy(rng, ring, rank, fprime, weights):
    """Unit diagonal, every other entry pi^(level-1) times a random element,
    so products of two off-diagonal entries are nonzero x nonzero = 0."""
    top = ring.pi_pow(ring.level - 1)
    blocks = []
    for _ in range(fprime):
        rows = [
            [ring.random_unit(rng) if u == a else top * ring.random_element(rng) for a in range(rank)]
            for u in range(rank)
        ]
        blocks.append(FLBlock(weights, Matrix(ring, rows)))
    return FLModule(ring, (min(weights), max(weights)), blocks)


def test_sparse_tensor_equals_the_dense_product():
    rng = random.Random(103)
    zero_products = 0
    cases = 0
    for ring in SLOT_RINGS:
        hi = 1 if ring.p == 3 else 2
        for fprime in (1, 2) if ring.f == 2 else (1,):
            pairs = []
            for _ in range(3):
                pairs.append(tuple(
                    random_fl_module(rng, ring, rng.randint(1, 3), witt_degree=fprime,
                                     weight_range=(0, w))
                    for w in (hi - 1, 1)
                ))
            if ring.level > 1:
                pairs.append(tuple(
                    _nilpotent_heavy(rng, ring, rank, fprime, weights)
                    for rank, weights in ((3, (0, 0, 1)), (2, (0, 0)))
                ))
            if fprime == 1 and hi == 2:
                for weights in ((0, 1), (0, 0, 1)):
                    cyclic = _build_cyclic(ring, weights, ring.random_unit(rng))
                    pairs.append((cyclic, _build_cyclic(ring, (1, 0), ring.one)))
            for m1, m2 in pairs:
                # equal modules have equal raw data, so zeros are canonical
                assert tensor(m1, m2) == _dense_tensor(m1, m2)
                for b1, b2 in zip(m1.blocks, m2.blocks):
                    nz1, nz2 = (
                        [x for row in b.phi._raw for x in row if x != ring.zero.data]
                        for b in (b1, b2)
                    )
                    zero_products += sum(ring._mul(x, y) == ring.zero.data for x in nz1 for y in nz2)
                cases += 1
    assert cases >= 45
    # the chain rings reach products of two nonzero entries that vanish
    assert zero_products >= 50


# sha256 of the outputs below, recorded while dual still multiplied by the
# reversal, hom_mf looked up a π-power per equation term and the cyclic
# modules and embeddings were built through the coercing Matrix constructor
FROZEN_MODULE_ALGEBRA_SHA256 = "af7828e3add39e9af02e0ba49474c7347b9210f0ca3c190b12a7480ec967f863"

DIGEST_RINGS = [make_field(q) for q in (5, 7, 25)] + [
    make_ring("witt", 5, 1, 2),
    make_ring("witt", 3, 2, 2),
    make_ring("dual_numbers", 5, 1, 2),
    make_ring("dual_numbers", 3, 2, 2),
]
DIGEST_FIELDS = [make_field(q) for q in (5, 7, 11, 13, 25, 49)]


def _encoded(matrix):
    return [[matrix.ring.encode(x) for x in row] for row in matrix.rows]


def _encoded_module(module):
    return [module.bounds, [(blk.weights, _encoded(blk.phi)) for blk in module.blocks]]


def _unipotent(rng, module):
    """module with each Φ_τ replaced by 1 + N_τ, N_τ random and strictly
    lower triangular.  The weights ascend, so N_τ maps across weight gaps and
    the endomorphisms have entries there; their equations carry the π-power
    scales of hom_mf at nonzero values."""
    ring = module.ring
    blocks = []
    for blk in module.blocks:
        rows = [
            [ring.random_element(rng) if a < u else int(a == u) for a in range(blk.rank)]
            for u in range(blk.rank)
        ]
        blocks.append(FLBlock(blk.weights, Matrix(ring, rows)))
    return FLModule(ring, module.bounds, blocks)


def _random_spec(rng, h):
    while True:
        i = tuple(rng.randint(0, 2) for _ in range(h))
        if minimal_period(i) == h:
            return SimpleSpec(h, i)


def _embedding_fields(a, b):
    """The DIGEST_FIELDS holding the tensor weights and every root of unity
    the summand copies need."""
    spread = max(a.i) - min(a.i) + max(b.i) - min(b.i)
    copies = [sm.copies for sm in tensor_decompose(a, b).summands]
    return [
        field
        for field in DIGEST_FIELDS
        if spread <= field.p - 2 and all((field.size - 1) % d == 0 for d in copies)
    ]


# pairs whose summands split into 2, 3 and 4 copies, so the twisted sources
# and the root-of-unity coefficients are covered
TWISTED_PAIRS = [((0, 1), (0, 1)), ((0, 1, 2), (2, 1, 0)), ((0, 1, 2, 3), (3, 2, 1, 0))]


def _module_algebra_digest():
    """Digest of dual, the double dual, the hom_mf(dd, M) generators and the
    sources and matrices of all_embeddings, case by case.  Distinct weights
    from 0..rank put gaps of 1 among the unknowns, so the π-power scales of
    hom_mf are nonzero over the level-2 chain rings."""
    digest = hashlib.sha256()
    rng = random.Random(2026)
    for ring in DIGEST_RINGS:
        for rank in (2, 3, 4):
            for fprime in (1, 2) if ring.f == 2 else (1,):
                m = random_fl_module(
                    rng, ring, rank, witt_degree=fprime, weight_range=(0, rank),
                    distinct_weights=True,
                )
                for module in (m, _unipotent(rng, m)):
                    L = LData(
                        1,
                        tuple(rng.randint(rank, rank + 2) for _ in range(fprime)),
                        tuple(ring.random_unit(rng) for _ in range(fprime)),
                    )
                    d = dual(module, L)
                    dd = dual(d, L)
                    space = hom_mf(dd, module)
                    digest.update(repr(_encoded_module(d)).encode())
                    digest.update(repr(_encoded_module(dd)).encode())
                    digest.update(
                        repr([[_encoded(x) for x in maps] for maps in space.basis]).encode()
                    )
                    digest.update(b"|")
    pairs = [
        (_random_spec(rng, h), _random_spec(rng, h2)) for h in (1, 2, 3) for h2 in (1, 2, 3, 4)
    ]
    pairs += [(SimpleSpec(len(i), i), SimpleSpec(len(i2), i2)) for i, i2 in TWISTED_PAIRS]
    for a, b in pairs:
        for field in _embedding_fields(a, b):
            for emb in all_embeddings(a, b, field):
                digest.update(repr((emb.s, emb.copy, _encoded_module(emb.source))).encode())
                digest.update(repr(_encoded(emb.matrix)).encode())
            digest.update(b"|")
    return digest.hexdigest()


def test_module_algebra_outputs_are_frozen():
    assert _module_algebra_digest() == FROZEN_MODULE_ALGEBRA_SHA256


# -- hom_mf on the graded part: the full system as differential oracle ---------


def _full_system_hom(domain, codomain):
    """The basis of hom_mf as the full system gives it: the field branch of
    hom_mf before it solved on the graded part, verbatim past the checks."""
    fprime = domain.witt_degree
    ring = domain.ring
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
    return basis


def _direct_sum(m, x):
    """m ⊕ x in adapted form: each block's basis sorted by weight, m first
    among equal weights."""
    fprime = m.witt_degree
    orders = [
        sorted(
            [(w, 0, i) for i, w in enumerate(m.blocks[t].weights)]
            + [(w, 1, i) for i, w in enumerate(x.blocks[t].weights)]
        )
        for t in range(fprime)
    ]
    blocks = []
    for t in range(fprime):
        phis = (m.blocks[t].phi, x.blocks[t].phi)
        rows = [
            [phis[s][i, j] if s == s2 else 0 for _, s2, j in orders[t]]
            for _, s, i in orders[(t + 1) % fprime]
        ]
        blocks.append(FLBlock(tuple(w for w, _, _ in orders[t]), Matrix(m.ring, rows)))
    bounds = (min(m.bounds[0], x.bounds[0]), max(m.bounds[1], x.bounds[1]))
    return FLModule(m.ring, bounds, blocks)


def _isomorphic_copy(rng, m):
    """N with Φ^N_τ = V_{στ} Φ_τ gr(V_τ)^{-1} for random filtered V_τ with
    gr(V_τ) invertible, so that V is an invertible morphism m -> N."""
    ring = m.ring
    fprime = m.witt_degree
    vs, grs = [], []
    for blk in m.blocks:
        w = blk.weights
        while True:
            rows = [
                [ring.random_element(rng) if w[u] >= w[a] else 0 for a in range(blk.rank)]
                for u in range(blk.rank)
            ]
            gr = Matrix(ring, [
                [x if w[u] == w[a] else 0 for a, x in enumerate(row)] for u, row in enumerate(rows)
            ])
            if gr.is_invertible():
                vs.append(Matrix(ring, rows))
                grs.append(gr.inverse())
                break
    blocks = [
        FLBlock(blk.weights, vs[(t + 1) % fprime] * blk.phi * grs[t])
        for t, blk in enumerate(m.blocks)
    ]
    return FLModule(ring, m.bounds, blocks)


def _singular_copy(rng, m):
    """m with the first column of one Φ_τ replaced by a multiple of the
    second (rank >= 2) or by zero."""
    tau = rng.randrange(m.witt_degree)
    blocks = list(m.blocks)
    phi = blocks[tau].phi
    c = m.ring.random_element(rng)
    rows = [[c * row[1] if phi.ncols > 1 else 0] + list(row[1:]) for row in phi.rows]
    blocks[tau] = FLBlock(blocks[tau].weights, Matrix(m.ring, rows))
    return FLModule(m.ring, m.bounds, blocks)


# F_8 and F_27 with three blocks; every other f' that divides f
GRADED_RINGS = [(2, 1), (4, 1), (4, 2), (8, 3), (9, 1), (9, 2), (25, 1), (25, 2),
                (27, 3), (49, 1), (49, 2)]


def _graded_cases(rng, ring, fprime):
    """(domain, codomain) pairs: N = M, isomorphic copies, direct sums both
    ways (rM != rN) and a copy of one, independent modules (mostly a zero
    Hom), disjoint weights (no equal-weight pair) and singular domains."""
    def module(rank, weight_range=(0, 3), distinct=False):
        return random_fl_module(rng, ring, rank, witt_degree=fprime,
                                weight_range=weight_range, distinct_weights=distinct)

    for rank in (1, 2, 3):
        for distinct, weight_range in ((True, (0, 3)), (False, (0, 1))):
            m = module(rank, weight_range, distinct)
            x = module(rng.randint(1, 2), weight_range)
            yield m, m
            yield m, _isomorphic_copy(rng, m)
            yield _unipotent(rng, m), _unipotent(rng, m)
            yield m, _direct_sum(m, x)
            yield _direct_sum(x, m), m
            # a copy of the sum mixes rows, so solutions can end past gr
            yield m, _isomorphic_copy(rng, _direct_sum(m, x))
            yield m, module(rng.randint(1, 3), weight_range)
    yield module(2, (0, 1)), module(2, (2, 3))
    yield module(2, (2, 3)), module(3, (0, 1))
    m = module(3, (0, 1))
    yield _singular_copy(rng, m), _isomorphic_copy(rng, m)
    yield _singular_copy(rng, m), m


def test_hom_on_the_graded_part_matches_the_full_system():
    rng = random.Random(2024)
    cases = 0
    dims = []
    for q, fprime in GRADED_RINGS:
        ring = make_field(q)
        for domain, codomain in _graded_cases(rng, ring, fprime):
            got = hom_mf(domain, codomain).basis
            assert list(got) == _full_system_hom(domain, codomain), (q, fprime, cases)
            cases += 1
            dims.append(len(got))
    assert cases >= 300
    # the comparison is not carried by empty spaces alone
    assert dims.count(0) >= 50 and sum(d >= 2 for d in dims) >= 50
