"""Pairing validation and standard-form normalization."""

from __future__ import annotations

import random

import pytest

import flab.pairing
from flab.errors import (
    FiltrationViolation,
    FlabError,
    InvalidInput,
    MultiplicityNotFree,
    NotPerfect,
    OddRankSymplectic,
    PhiIncompatible,
    SymmetryViolation,
)
from flab.linalg import Matrix
from flab.modules import FLBlock, FLModule, divided, validate
from flab.pairing import (
    LData,
    PairedFLModule,
    change_basis,
    normalize_standard,
    standard_gram,
    validate_pairing,
)
from flab.rings import make_field, make_ring
from flab.testing import pcanon2, random_paired_module


def with_gram(paired, rows):
    ring = paired.module.ring
    return PairedFLModule(
        paired.module, paired.L, (Matrix(ring, rows, ncols=paired.module.rank),)
    )


# -- validation -----------------------------------------------------------------


def test_canonical_symplectic_pairing_is_valid():
    p = pcanon2()
    validate(p.module)
    validate_pairing(p)


def test_symmetry_violation():
    with pytest.raises(SymmetryViolation):
        validate_pairing(with_gram(pcanon2(), [[0, 1], [1, 0]]))


def test_filtration_violation_takes_precedence():
    # the (2,2) entry breaks both skew-symmetry and the filtration bound;
    # the filtration is reported
    with pytest.raises(FiltrationViolation):
        validate_pairing(with_gram(pcanon2(), [[0, 1], [-1, 1]]))


def test_not_perfect_singular_gram():
    with pytest.raises(NotPerfect):
        validate_pairing(with_gram(pcanon2(), [[0, 0], [0, 0]]))


def test_not_perfect_weights_not_self_dual():
    base = pcanon2()
    ring = base.module.ring
    shifted = PairedFLModule(
        base.module, LData(-1, (3,), (ring.one,)), base.gram
    )
    with pytest.raises(NotPerfect):
        validate_pairing(shifted)


def test_odd_rank_symplectic_rejected():
    ring = make_field(5)
    module = FLModule(ring, (0, 0), [FLBlock((0,), Matrix(ring, [[1]]))])
    paired = PairedFLModule(
        module, LData(-1, (0,), (ring.one,)), (Matrix(ring, [[1]]),)
    )
    with pytest.raises(OddRankSymplectic):
        validate_pairing(paired)


def test_phi_incompatible():
    base = pcanon2()
    ring = base.module.ring
    module = FLModule(
        ring, (0, 1), [FLBlock((0, 1), Matrix(ring, [[1, 0], [0, 2]]))]
    )
    with pytest.raises(PhiIncompatible):
        validate_pairing(PairedFLModule(module, base.L, base.gram))


def _phi_equation_fails(paired):
    # the full-matrix Φ-compatibility equation of each block, in block order,
    # through the general product
    module = paired.module
    L = paired.L
    for tau, blk in enumerate(module.blocks):
        stau = (tau + 1) % module.witt_degree
        w = blk.weights
        lhs = blk.phi.transpose() * paired.gram[stau] * blk.phi
        if lhs != L.c[tau] * divided(paired.gram[tau], [L.s[tau] - x for x in w], w):
            return f"PhiIncompatible block {tau}"
    return None


def _with_phi_entry(paired, tau, u, a, delta):
    blocks = list(paired.module.blocks)
    rows = [list(row) for row in blocks[tau].phi.rows]
    rows[u][a] = rows[u][a] + delta
    blocks[tau] = FLBlock(blocks[tau].weights, Matrix(paired.module.ring, rows))
    module = FLModule(paired.module.ring, paired.module.bounds, blocks)
    return PairedFLModule(module, paired.L, paired.gram)


def test_phi_check_on_the_upper_triangle_decides_the_full_equation():
    # one entry of one Φ_τ perturbed at every position, on, above and below
    # the diagonal: the check raises exactly when the full equation fails
    rng = random.Random(89)
    rings = [
        make_field(5),
        make_field(25),
        make_ring("witt", 5, 1, 2),
        make_ring("dual_numbers", 5, 2, 2),
    ]
    for ring in rings:
        deltas = [ring.one, ring.from_int(2)] + ([ring.pi()] if ring.level > 1 else [])
        for epsilon, rank in [(-1, 2), (-1, 4), (1, 2), (1, 3)]:
            for scramble in (True, False):
                paired = random_paired_module(
                    rng, ring, rank, epsilon, witt_degree=ring.f, scramble=scramble
                )
                assert _phi_equation_fails(paired) is None
                validate_pairing(paired)
                for tau in range(ring.f):
                    for u in range(rank):
                        for a in range(rank):
                            for delta in deltas:
                                bad = _with_phi_entry(paired, tau, u, a, delta)
                                expected = _phi_equation_fails(bad)
                                assert _outcome(lambda: validate_pairing(bad)) == expected


# -- validate_pairing's weight shortcuts ----------------------------------------

SHORTCUT_RINGS = (
    make_field(5),
    make_field(9),
    make_ring("witt", 5, 1, 2),
    make_ring("witt", 3, 2, 2),
    make_ring("witt", 3, 1, 3),
    make_ring("dual_numbers", 3, 1, 2),
    make_ring("dual_numbers", 3, 2, 3),
)


def _self_dual_weights(rng):
    """(s, ascending weights w with {w} = {s - w}), classes of 1 to 3 equal
    weights, mirrored classes of the same size."""
    s = rng.randint(1, 7)
    low = sorted(rng.sample(range((s + 1) // 2), rng.randint(s % 2, (s + 1) // 2)))
    sizes = [rng.randint(1, 3) for _ in low]
    middle = [s // 2] * rng.randint(1, 3) if s % 2 == 0 and (rng.random() < 0.5 or not low) else []
    weights = [v for v, m in zip(low, sizes) for _ in range(m)] + middle
    weights += [s - v for v, m in reversed(list(zip(low, sizes))) for _ in range(m)]
    return s, weights


def _entry(ring, rng):
    # zero, a non-unit or a random element, so both verdicts come up
    c = rng.random()
    if c < 0.25:
        return ring.zero
    if c < 0.45 and ring.level > 1:
        return ring.pi() * ring.random_element(rng)
    return ring.random_element(rng)


def test_weight_block_verdict_equals_is_invertible():
    # Grams that respect self-dual weights, symmetric or not, over fields and
    # chain rings: the anti-diagonal blocks decide invertibility
    rng = random.Random(2808)
    for ring in SHORTCUT_RINGS:
        seen = {True: 0, False: 0}
        repeated = 0
        for _ in range(150):
            s, w = _self_dual_weights(rng)
            r = len(w)
            assert sorted(s - x for x in w) == w
            rows = [
                [_entry(ring, rng) if w[i] + w[j] <= s else ring.zero for j in range(r)]
                for i in range(r)
            ]
            G = Matrix(ring, rows)
            verdict = flab.pairing._antidiagonal_blocks_invertible(G, w)
            assert verdict == G.is_invertible(), (ring, w, s, rows)
            seen[verdict] += 1
            repeated += len(set(w)) < r
        assert seen[True] and seen[False] and repeated, (ring, seen, repeated)


def test_singular_weight_block_of_units_is_not_perfect():
    # weights (0, 0, 1, 1) against s = 1: the 2x2 anti-diagonal blocks are all
    # units and singular, so G is; the message is the one is_invertible gave
    for ring in (make_field(5), make_ring("witt", 5, 1, 2), make_ring("dual_numbers", 5, 1, 2)):
        module = FLModule(ring, (0, 1), [FLBlock((0, 0, 1, 1), Matrix.identity(ring, 4))])
        L = LData(1, (1,), (ring.one,))
        for block, expected in (([[1, 1], [1, 1]], False), ([[1, 2], [2, 1]], True)):
            rows = [[0, 0] + row for row in block] + [row + [0, 0] for row in block]
            G = Matrix(ring, rows)
            assert flab.pairing._antidiagonal_blocks_invertible(G, (0, 0, 1, 1)) is expected
            assert G.is_invertible() is expected
            if not expected:
                with pytest.raises(NotPerfect, match="^block 0$"):
                    validate_pairing(PairedFLModule(module, L, (G,)))


def test_divided_is_the_power_of_pi_times_the_entry_past_the_level():
    # gaps from -2 to level + 2: p^gap x (t^gap x) entry by entry, zero for a
    # negative gap, by ring arithmetic rather than the skip
    rng = random.Random(31)
    for ring in SHORTCUT_RINGS + (make_ring("dual_numbers", 5, 1, 3),):
        n = ring.level
        for _ in range(20):
            rw = [rng.randint(0, n + 2) for _ in range(3)]
            cw = [rng.randint(0, 2) for _ in range(4)]
            A = Matrix(ring, [[ring.random_element(rng) for _ in cw] for _ in rw])
            expected = tuple(
                tuple(
                    ring.pi_pow(u - a) * x if u >= a else ring.zero
                    for x, a in zip(row, cw)
                )
                for row, u in zip(A.rows, rw)
            )
            assert divided(A, rw, cw).rows == expected, (ring, rw, cw)


def test_ldata_validation():
    ring = make_field(5)
    with pytest.raises(InvalidInput):
        LData(2, (0,), (ring.one,))
    with pytest.raises(InvalidInput):
        LData(1, (0,), (ring.zero,))
    with pytest.raises(InvalidInput):
        LData(1, (0, 1), (ring.one,))


def test_random_paired_modules_are_valid():
    rng = random.Random(83)
    rings = [
        make_field(5),
        make_ring("witt", 5, 1, 2),
        make_field(25),
        make_ring("dual_numbers", 7, 1, 3),
    ]
    for ring in rings:
        for epsilon, rank in [(-1, 2), (-1, 4), (1, 2), (1, 3)]:
            fprime = ring.f
            paired = random_paired_module(
                rng, ring, rank, epsilon, witt_degree=fprime
            )
            validate(paired.module)
            validate_pairing(paired)


# -- standard forms ----------------------------------------------------------------


def test_standard_gram_shapes():
    ring = make_field(5)
    sym = standard_gram(ring, 3, 1)
    assert all(sym[i, 2 - i] == 1 for i in range(3))
    assert sym.transpose() == sym
    alt = standard_gram(ring, 4, -1)
    assert alt[0, 3] == 1 and alt[1, 2] == 1
    assert alt[2, 1] == -1 and alt[3, 0] == -1
    assert alt.transpose() == -1 * alt
    with pytest.raises(OddRankSymplectic):
        standard_gram(ring, 3, -1)


def test_standard_gram_is_cached_per_key():
    assert standard_gram(make_field(5), 4, -1) is standard_gram(make_field(5), 4, -1)
    ring = make_ring("witt", 5, 1, 2)
    assert standard_gram(ring, 3, 1) is standard_gram(make_ring("witt", 5, 1, 2), 3, 1)
    assert standard_gram(ring, 2, 1) != standard_gram(ring, 2, -1)
    # errors are not cached: each call raises again
    for _ in range(2):
        with pytest.raises(OddRankSymplectic, match="^rank 3 is odd$"):
            standard_gram(ring, 3, -1)


def test_gram_transform():
    p = pcanon2()
    ring = p.module.ring
    G = standard_gram(ring, 2, -1)
    assert change_basis(p, [Matrix.identity(ring, 2)]).gram[0] == G
    C = Matrix.diagonal(ring, [ring.from_int(2), ring.from_int(3)])
    assert change_basis(p, [C]).gram[0] == G
    with pytest.raises(InvalidInput, match="^change of basis must be invertible$"):
        change_basis(p, [Matrix(ring, [[1, 0], [0, 0]])])


# -- normalization ------------------------------------------------------------------


def test_normalize_is_identity_on_standard_input():
    p = pcanon2()
    result = normalize_standard(p)
    assert result.omega == (p.module.ring.one,)
    assert result.change_of_basis[0] == Matrix.identity(p.module.ring, 2)
    assert result.pairing == p


def test_normalize_rescales_scaled_symplectic_gram():
    p = with_gram(pcanon2(), [[0, 2], [-2, 0]])
    validate_pairing(p)
    result = normalize_standard(p)
    ring = p.module.ring
    assert result.omega == (ring.one,)
    assert result.change_of_basis[0] == Matrix.diagonal(
        ring, [ring.from_int(3), ring.one]
    )
    assert result.pairing.gram[0] == standard_gram(ring, 2, -1)


def test_normalize_odd_orthogonal_over_f7():
    rng = random.Random(89)
    ring = make_field(7)
    for _ in range(20):
        paired = random_paired_module(rng, ring, 3, 1, s=2, weight_lo=0)
        result = normalize_standard(paired)
        omega = result.omega[0]
        assert ring.is_unit(omega)
        assert result.pairing.gram[0] == omega * standard_gram(ring, 3, 1)
        # exact congruence transform
        C = result.change_of_basis[0]
        assert C.transpose() * paired.gram[0] * C == result.pairing.gram[0]
        # new basis vectors have unit leading coefficient at their own weight
        for a in range(3):
            assert ring.is_unit(C[a, a])
            for u in range(3):
                if paired.module.block(0).weights[u] < paired.module.block(0).weights[a]:
                    assert C[u, a] == ring.zero


def test_normalize_across_rings_and_signs():
    rng = random.Random(97)
    rings = [
        make_field(5),
        make_ring("witt", 5, 1, 2),
        make_ring("dual_numbers", 5, 1, 3),
        make_field(25),
    ]
    for ring in rings:
        for epsilon, rank in [(-1, 2), (-1, 4), (1, 2), (1, 3), (1, 4)]:
            paired = random_paired_module(
                rng, ring, rank, epsilon, witt_degree=ring.f
            )
            result = normalize_standard(paired)
            std = standard_gram(ring, rank, epsilon)
            for tau in range(ring.f):
                assert result.pairing.gram[tau] == result.omega[tau] * std
                C = result.change_of_basis[tau]
                assert C.transpose() * paired.gram[tau] * C == result.pairing.gram[tau]
                if rank % 2 == 0:
                    assert result.omega[tau] == ring.one
            validate_pairing(result.pairing)


def test_normalize_m_gram_matches_divided_new_gram():
    rng = random.Random(101)
    ring = make_ring("witt", 5, 1, 2)
    paired = random_paired_module(rng, ring, 3, 1)
    result = normalize_standard(paired)
    # coordinates of φ^{w_i}(new v_i) in the old basis
    weights = paired.module.blocks[0].weights
    m = paired.module.blocks[0].phi * divided(result.change_of_basis[0], weights, weights)
    h = m.transpose() * paired.gram[0] * m
    expected = (paired.L.c[0] * result.omega[0]) * standard_gram(ring, 3, 1)
    assert h == expected


def test_normalize_requires_distinct_weights():
    ring = make_field(5)
    module = FLModule(
        ring, (0, 1), [FLBlock((0, 0, 1, 1), Matrix.identity(ring, 4))]
    )
    gram = standard_gram(ring, 4, -1)
    paired = PairedFLModule(module, LData(-1, (1,), (ring.one,)), (gram,))
    validate_pairing(paired)
    with pytest.raises(MultiplicityNotFree):
        normalize_standard(paired)


def test_normalize_unit_reduce_canonicalizes_omega():
    rng = random.Random(103)
    for ring in [make_ring("witt", 5, 1, 3), make_ring("dual_numbers", 5, 1, 2)]:
        for _ in range(10):
            paired = random_paired_module(rng, ring, 3, 1)
            result = normalize_standard(paired, unit_reduce=True)
            omega = result.omega[0]
            assert omega == ring.lift_from(ring.residue(omega))
            assert result.pairing.gram[0] == omega * standard_gram(ring, 3, 1)
            validate_pairing(result.pairing)


def test_change_basis_rejects_non_adapted():
    p = pcanon2()
    ring = p.module.ring
    bad = Matrix(ring, [[1, 1], [0, 1]])  # sends weight-0 vector into weight 1 slot
    with pytest.raises(InvalidInput):
        change_basis(p, [bad])


def test_normalize_keeps_standard_input_without_a_basis_change(monkeypatch):
    odd = normalize_standard(
        random_paired_module(random.Random(107), make_field(7), 3, 1, s=2)
    ).pairing
    cases = [pcanon2(), pcanon2(make_ring("witt", 5, 1, 3)), odd]
    calls = []

    def counting(paired):
        calls.append(paired)
        return validate_pairing(paired)

    monkeypatch.setattr(flab.pairing, "validate_pairing", counting)
    monkeypatch.setattr(
        flab.pairing, "change_basis", lambda *args: pytest.fail("change_basis called")
    )
    for paired in cases:
        calls.clear()
        result = normalize_standard(paired)
        ring = paired.module.ring
        rank = paired.module.rank
        assert result.pairing == paired
        assert result.change_of_basis == (Matrix.identity(ring, rank),)
        assert result.pairing.gram[0] == result.omega[0] * standard_gram(
            ring, rank, paired.L.epsilon
        )
        assert len(calls) == 2  # the input and the result, once each


def _outcome(call):
    try:
        call()
    except FlabError as exc:
        return f"{type(exc).__name__} {exc}"
    return None


def test_normalize_invalid_input_errors_are_frozen():
    ring = make_field(5)

    def paired(weights, phi, s, gram=None):
        module = FLModule(
            ring, (min(weights), max(weights)), [FLBlock(weights, Matrix(ring, phi))]
        )
        if gram is None:
            gram = standard_gram(ring, 2, -1)
        return PairedFLModule(module, LData(-1, (s,), (ring.one,)), (gram,))

    cases = [
        (
            paired((0, 1), [[1, 0], [0, 1]], 1, Matrix(ring, [[0, 1], [1, 0]])),
            "SymmetryViolation block 0 entry (2, 1)",
        ),
        (paired((0, 1), [[1, 0], [0, 0]], 1), "PhiIncompatible block 0"),
        (
            paired((0, 0), [[1, 0], [0, 1]], 0),
            "MultiplicityNotFree block 0 has repeated weights",
        ),
        # the weight spread only matters for lifting
        (paired((0, 2), [[1, 0], [0, 1]], 2), None),
    ]
    for case, expected in cases:
        for unit_reduce in (False, True):
            assert _outcome(lambda: normalize_standard(case, unit_reduce)) == expected
