"""Lifting paired modules through one-level surjections and up towers."""

import hashlib
import random

import pytest

import flab.lifting
import flab.pairing
from flab.errors import (
    FlabError,
    InternalRankFailure,
    InvalidInput,
    MultiplicityNotFree,
    RangeViolation,
    RingMismatch,
)
from flab.lifting import (
    LiftProblem,
    build_correction_system,
    lift_small,
    lift_tower,
    solve_correction,
)
from flab.io import dumps_canonical, paired_to_dict
from flab.linalg import Matrix, _form
from flab.modules import FLBlock, FLModule
from flab.pairing import (
    LData,
    PairedFLModule,
    normalize_standard,
    reduce_paired,
    standard_gram,
    validate_pairing,
)
from flab.rings import make_field, make_ring, make_small_surjection
from flab.testing import random_paired_module


def _paired(ring, weights, phi_rows, epsilon, s, bounds=None):
    phi = Matrix(ring, phi_rows)
    if bounds is None:
        bounds = (min(weights), max(weights))
    module = FLModule(ring, bounds, [FLBlock(weights, phi)])
    gram = standard_gram(ring, len(weights), epsilon)
    return PairedFLModule(module, LData(epsilon, (s,), (ring.one,)), (gram,))


def test_zero_defect_lifts_canonically(pcanon2):
    upper = make_ring("witt", 5, 1, 2)
    prob = LiftProblem(pcanon2, make_small_surjection(upper))
    system = build_correction_system(prob)
    assert system.defect[0] == Matrix.zero(system.kring, 2, 2)
    deltas = solve_correction(system)
    assert deltas[0] == Matrix.zero(system.kring, 2, 2)
    lifted = lift_small(prob)
    assert lifted.module.blocks[0].phi == Matrix.identity(upper, 2)
    assert lifted.gram[0] == standard_gram(upper, 2, -1)
    assert lifted.L.c == (upper.one,)


def test_hand_computed_correction():
    # phi = diag(2, 3) over F_5 pairs with itself: phi^T S phi = 6 S = S.
    # The canonical lift to Z/25 has defect S - 6S = -5S, and the unique
    # weight-ordered correction moves the (1,1) entry from 2 to 17.
    k = make_field(5)
    paired = _paired(k, (0, 1), [[2, 0], [0, 3]], -1, 1)
    upper = make_ring("witt", 5, 1, 2)
    prob = LiftProblem(paired, make_small_surjection(upper))
    system = build_correction_system(prob)
    kr = system.kring
    assert system.defect[0] == Matrix(kr, [[0, 4], [1, 0]])
    deltas = solve_correction(system)
    assert deltas[0] == Matrix(kr, [[3, 0], [0, 0]])
    lifted = lift_small(prob)
    assert lifted.module.blocks[0].phi == Matrix(upper, [[17, 0], [0, 3]])
    assert lifted.gram[0] == standard_gram(upper, 2, -1)


SHAPES = [
    ("witt", 5, 1, 2, -1, 1),
    ("witt", 7, 1, 2, 1, 1),
    ("dual_numbers", 7, 1, 3, 1, 2),
    ("witt", 11, 1, 4, -1, 3),
    ("dual_numbers", 13, 1, 4, 1, 3),
    ("witt", 7, 2, 2, -1, 1),
]


def test_lift_small_random_instances():
    rng = random.Random(5)
    for family, p, f, rank, eps, s in SHAPES:
        upper = make_ring(family, p, f, 2)
        surj = make_small_surjection(upper)
        lower = surj.target
        for _ in range(6):
            paired = random_paired_module(rng, lower, rank, eps, witt_degree=f, s=s)
            lifted = lift_small(LiftProblem(paired, surj))
            assert lifted.module.ring == upper
            validate_pairing(lifted)
            assert reduce_paired(lifted, surj) == normalize_standard(paired).pairing


def test_lift_step_between_higher_levels():
    rng = random.Random(9)
    z25 = make_ring("witt", 5, 1, 2)
    surj = make_small_surjection(make_ring("witt", 5, 1, 3))
    for _ in range(4):
        paired = random_paired_module(rng, z25, 2, -1, s=1)
        lifted = lift_small(LiftProblem(paired, surj))
        assert lifted.module.ring == surj.source
        assert reduce_paired(lifted, surj) == normalize_standard(paired).pairing


def test_correction_blocks_are_lower_triangular_with_full_rank(block_grid):
    rng = random.Random(17)
    cases = [(5, 2, -1, 1), (7, 3, 1, 2), (11, 4, -1, 3), (7, 2, 1, 1)]
    for p, rank, eps, s in cases:
        upper = make_ring("witt", p, 1, 2)
        paired = random_paired_module(rng, make_field(p), rank, eps, s=s)
        system = build_correction_system(
            LiftProblem(paired, make_small_surjection(upper))
        )
        grid = block_grid(system, 0)
        for i in range(rank):
            height = i + 1 if eps == 1 else i
            for j in range(rank):
                assert grid[i][j].nrows == height
                assert grid[i][j].ncols == rank
                if i < j:
                    assert grid[i][j] == Matrix.zero(system.kring, height, rank)
            diag = system.diagonal_block(0, rank - 1 - i)
            assert diag == grid[i][i]
            assert diag.rank_field() == height
        # one equation per (a, b) with a <= b, a < b when symplectic
        assert sum(grid[i][0].nrows for i in range(rank)) == rank * (rank + eps) // 2


def residual(system, deltas):
    """Per-block E(Δ) - D = Δ^T S C + C^T S Δ - D over k; all zero exactly
    when Δ solves the system.  It forms E from the standard form itself, not
    from functionals, so it checks solve_correction independently."""
    k = system.kring
    r = system.rank
    std_k = standard_gram(k, r, system.epsilon)

    def form(X, Y):
        return Matrix._from_data(k, _form(X, std_k, Y), r)

    out = []
    for tau in range(system.witt_degree):
        delta = deltas[tau]
        if delta.ring != k:
            raise RingMismatch(f"correction block {tau} is not over the residue field")
        C = system.coeff[tau]
        out.append(form(delta, C) + form(C, delta) - system.defect[tau])
    return tuple(out)


def test_solver_clears_all_residuals():
    rng = random.Random(23)
    cases = [(5, 2, -1, 1), (7, 3, 1, 2), (11, 4, -1, 3), (13, 4, 1, 3)]
    for p, rank, eps, s in cases:
        for family in ("witt", "dual_numbers"):
            upper = make_ring(family, p, 1, 2)
            surj = make_small_surjection(upper)
            paired = random_paired_module(rng, surj.target, rank, eps, s=s)
            system = build_correction_system(LiftProblem(paired, surj))
            deltas = solve_correction(system)
            zero = Matrix.zero(system.kring, rank, rank)
            for res in residual(system, deltas):
                assert res == zero
            with pytest.raises(RingMismatch, match="^correction block 0 is not over"):
                residual(
                    system,
                    tuple(
                        Matrix(upper, [[upper.lift_from(x) for x in row] for row in d.rows])
                        for d in deltas
                    ),
                )


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
@pytest.mark.parametrize("p, rank, eps, s", [(7, 3, 1, 2), (11, 4, -1, 3), (5, 2, -1, 1)])
def test_residual_sees_a_changed_correction(family, p, rank, eps, s):
    # E is linear in Δ, and Δ[u][c] enters E only through row c and column c
    # of Δ^T S C + C^T S Δ: there it adds (S·C)[u][b] at (c, b) and
    # ε (S·C)[u][b] at (b, c), which cancel at (c, c) when ε = -1
    rng = random.Random(19)
    surj = make_small_surjection(make_ring(family, p, 1, 2))
    paired = random_paired_module(rng, surj.target, rank, eps, s=s)
    system = build_correction_system(LiftProblem(paired, surj))
    (delta,) = solve_correction(system)
    k = system.kring
    sc = standard_gram(k, rank, eps) * system.coeff[0]
    for u in range(rank):
        for c in range(rank):
            rows = [list(row) for row in delta.rows]
            rows[u][c] = rows[u][c] + k.one
            (res,) = residual(system, (Matrix(k, rows),))
            changed = {(a, b) for a in range(rank) for b in range(rank) if res[a, b] != k.zero}
            assert all(c in pos for pos in changed)
            if eps == 1 or any(sc[u, b] != k.zero for b in range(rank) if b != c):
                assert changed


@pytest.mark.parametrize("eps, rank, s", [(1, 3, 2), (-1, 2, 1), (-1, 4, 3), (1, 2, 1)])
def test_defect_symmetry_check_reads_both_triangles(monkeypatch, eps, rank, s):
    # a kernel element added to one entry of the form C^T S C, at every
    # position: the defect stays in the kernel, and only the ε-symmetry
    # check can see the change
    rng = random.Random(13)
    paired = random_paired_module(rng, make_field(11), rank, eps, s=s)
    upper = make_ring("witt", 11, 1, 2)
    prob = LiftProblem(paired, make_small_surjection(upper))
    base = build_correction_system(prob).defect[0]
    g = prob.surj.kernel_gen.data
    form = flab.lifting._form
    for i in range(rank):
        for j in range(rank):

            def perturbed(X, G, Y, upper=False):
                out = form(X, G, Y, upper)
                out[i][j] = X.ring._add(out[i][j], g)
                return out

            monkeypatch.setattr(flab.lifting, "_form", perturbed)
            if i == j and eps == 1:
                defect = build_correction_system(prob).defect[0]
                assert [(a, b) for a in range(rank) for b in range(rank)
                        if defect[a, b] != base[a, b]] == [(i, i)]
            else:
                with pytest.raises(
                    InternalRankFailure, match="^defect of block 0 lost ε-symmetry$"
                ):
                    build_correction_system(prob)


# sha256 of the solve_correction outputs and the lift_tower chains of
# _lift_cases(), recorded when the lift still paired through the per-index
# signs of the standard form
FROZEN_LIFT_SHA256 = "03220ef32a07fe085acb44c6815af6c8ad7e98cd51d7bdcf33fe2b4b6fc8a704"

# the least prime p with weights 0..rank-1 inside the spread (p-2)/2
LIFT_PRIMES = {1: 3, 2: 5, 3: 7, 4: 11, 5: 11, 6: 13}


def _lift_cases():
    """(family, base, depth) over F_p and F_{p^2}: both families, ε = ±1,
    f' = f <= 2, ranks 1-6 (even when ε = -1), two bases per shape, depths
    2-4."""
    rng = random.Random(2026)
    for family in ("witt", "dual_numbers"):
        for eps in (1, -1):
            for fprime in (1, 2):
                for rank in range(1, 7) if eps == 1 else (2, 4, 6):
                    field = make_field(LIFT_PRIMES[rank] ** fprime)
                    for _ in range(2):
                        base = random_paired_module(
                            rng, field, rank, eps, witt_degree=fprime, s=rank - 1
                        )
                        yield family, base, rng.choice((2, 3, 4))


def _lift_digest():
    """Digest of every correction Δ and every stage of every chain."""
    digest = hashlib.sha256()
    for family, base, depth in _lift_cases():
        chain = lift_tower(base, depth, family=family)
        for lower, stage in zip(chain, chain[1:]):
            surj = make_small_surjection(stage.module.ring)
            deltas = solve_correction(build_correction_system(LiftProblem(lower, surj)))
            k = surj.source.residue_ring()
            digest.update(repr([[k.encode(x) for x in d.entries()] for d in deltas]).encode())
            digest.update(b"|")
        for stage in chain:
            digest.update(dumps_canonical(paired_to_dict(stage)).encode())
            digest.update(b"|")
    return digest.hexdigest()


def test_lift_outputs_are_frozen():
    assert _lift_digest() == FROZEN_LIFT_SHA256


# -- one operator and one postcondition per tower ------------------------------


def _tower_cases():
    """(family, base) over F_p and F_{p^2}: both families, ε = ±1, f' = 1, 2."""
    rng = random.Random(61)
    for family in ("witt", "dual_numbers"):
        for eps, rank in ((1, 3), (-1, 2), (-1, 4)):
            for fprime in (1, 2):
                field = make_field(LIFT_PRIMES[rank] ** fprime)
                base = random_paired_module(
                    rng, field, rank, eps, witt_degree=fprime, s=rank - 1
                )
                yield family, base


def test_tower_equals_the_chain_of_checked_lifts():
    # each stage lifted by the public, checked lift_small from a fresh
    # LiftProblem, which rebuilds its own residue operator
    for family, base in _tower_cases():
        ring = base.module.ring
        reference = lift_tower(base, 1, family=family)
        for level in range(2, 7):
            surj = make_small_surjection(make_ring(family, ring.p, ring.f, level))
            reference.append(lift_small(LiftProblem(reference[-1], surj)))
        expected = [dumps_canonical(paired_to_dict(stage)) for stage in reference]
        for n in range(1, 7):
            chain = lift_tower(base, n, family=family)
            assert chain == reference[:n]
            assert [dumps_canonical(paired_to_dict(stage)) for stage in chain] == expected[:n]


def test_functionals_are_the_product_with_the_standard_form():
    for family, base in _tower_cases():
        ring = base.module.ring
        surj = make_small_surjection(make_ring(family, ring.p, ring.f, 2))
        (start,) = lift_tower(base, 1, family=family)
        system = build_correction_system(LiftProblem(start, surj))
        std_k = standard_gram(system.kring, system.rank, system.epsilon)
        for C, F in zip(system.coeff, system.functionals):
            assert F == std_k * C


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
def test_tower_eliminates_each_diagonal_block_once(monkeypatch, family):
    base = random_paired_module(random.Random(67), make_field(11**2), 4, -1, witt_degree=2, s=3)
    calls = []
    original = flab.lifting._gauss_jordan

    def counting(ring, rows, width, forward_only=False):
        calls.append(len(rows))
        return original(ring, rows, width, forward_only)

    monkeypatch.setattr(flab.lifting, "_gauss_jordan", counting)
    for n in (2, 5):
        calls.clear()
        assert len(lift_tower(base, n, family=family)) == n
        # blocks (τ, a) of heights 3, 2, 1, 0 in each of the two blocks τ
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
@pytest.mark.parametrize("corrupted", [2, 3])
def test_tower_catches_a_corrupted_unchecked_stage(monkeypatch, family, corrupted):
    # the private step adds a kernel element to one Φ entry of one level
    # below the top: the stage still reduces to the one below it, and its
    # axioms are never checked, but the next lift can no longer be built
    step = flab.lifting._lift_step

    def corrupting(prob):
        lifted = step(prob)
        ring = lifted.module.ring
        if ring.level != corrupted:
            return lifted
        blk = lifted.module.blocks[0]
        rows = [list(row) for row in blk.phi.rows]
        rows[0][0] = rows[0][0] + make_small_surjection(ring).kernel_gen
        module = FLModule(ring, lifted.module.bounds, [FLBlock(blk.weights, Matrix(ring, rows))])
        return PairedFLModule(module, lifted.L, lifted.gram)

    monkeypatch.setattr(flab.lifting, "_lift_step", corrupting)
    for eps, rank in ((1, 3), (-1, 2), (-1, 4)):
        base = random_paired_module(random.Random(71), make_field(LIFT_PRIMES[rank]), rank, eps, s=rank - 1)
        with pytest.raises(InternalRankFailure, match=r"^defect entry \(1, \d\) of block 0 is not in the kernel$"):
            lift_tower(base, 4, family=family)


def test_tower_witt_chain(pcanon2):
    chain = lift_tower(pcanon2, 3)
    assert [P.module.ring for P in chain] == [
        make_ring("witt", 5, 1, m) for m in (1, 2, 3)
    ]
    assert chain[0] == pcanon2
    for m in (2, 3):
        validate_pairing(chain[m - 1])
        surj = make_small_surjection(make_ring("witt", 5, 1, m))
        assert reduce_paired(chain[m - 1], surj) == chain[m - 2]


def test_tower_dual_chain():
    rng = random.Random(3)
    base = random_paired_module(rng, make_field(7), 3, 1, s=2)
    chain = lift_tower(base, 3, family="dual_numbers")
    rings = [make_ring("dual_numbers", 7, 1, m) for m in (1, 2, 3)]
    assert [P.module.ring for P in chain] == rings
    for m in (2, 3):
        validate_pairing(chain[m - 1])
        surj = make_small_surjection(rings[m - 1])
        assert reduce_paired(chain[m - 1], surj) == chain[m - 2]


def test_tower_input_checks(pcanon2):
    rng = random.Random(7)
    over_z25 = random_paired_module(rng, make_ring("witt", 5, 1, 2), 2, -1, s=1)
    with pytest.raises(InvalidInput):
        lift_tower(over_z25, 3)
    with pytest.raises(InvalidInput):
        lift_tower(pcanon2, 0)
    with pytest.raises(InvalidInput):
        lift_tower(pcanon2, 2, family="polynomial")


def test_problem_rejects_repeated_weights():
    k = make_field(5)
    paired = _paired(k, (0, 0), [[1, 0], [0, 1]], -1, 0)
    validate_pairing(paired)
    surj = make_small_surjection(make_ring("witt", 5, 1, 2))
    with pytest.raises(MultiplicityNotFree):
        LiftProblem(paired, surj)


def test_problem_rejects_wide_weight_spread():
    k = make_field(5)
    paired = _paired(k, (0, 2), [[1, 0], [0, 1]], -1, 2)
    validate_pairing(paired)
    surj = make_small_surjection(make_ring("witt", 5, 1, 2))
    with pytest.raises(RangeViolation):
        LiftProblem(paired, surj)


def test_problem_rejects_mismatched_rings(pcanon2):
    surj = make_small_surjection(make_ring("witt", 7, 1, 2))
    with pytest.raises(RingMismatch):
        LiftProblem(pcanon2, surj)


# -- validate once --------------------------------------------------------------


def _count_validate_pairing(monkeypatch):
    calls = []

    def counting(paired):
        calls.append(paired)
        return validate_pairing(paired)

    monkeypatch.setattr(flab.pairing, "validate_pairing", counting)
    monkeypatch.setattr(flab.lifting, "validate_pairing", counting)
    return calls


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tower_validates_each_pairing_once(monkeypatch, n, family):
    base = random_paired_module(random.Random(31), make_field(7), 3, 1, s=2)
    calls = _count_validate_pairing(monkeypatch)
    chain = lift_tower(base, n, family=family)
    assert len(chain) == n
    # the base, then the top stage: its normal form at n = 1, else the last
    # lift, whose check certifies the levels below it
    assert len(calls) == 2 and calls[0] == base
    if n > 1:
        assert calls[1] == chain[-1]


def test_lift_small_checks_only_its_result(monkeypatch):
    paired = random_paired_module(random.Random(37), make_field(5), 2, -1, s=1)
    prob = LiftProblem(paired, make_small_surjection(make_ring("witt", 5, 1, 2)))
    calls = _count_validate_pairing(monkeypatch)
    lifted = lift_small(prob)
    assert calls == [lifted]


# -- normalize once -------------------------------------------------------------


def _count_normalize(monkeypatch):
    calls = []
    original = flab.pairing._normalize

    def counting(paired, unit_reduce=False):
        calls.append(paired)
        return original(paired, unit_reduce)

    monkeypatch.setattr(flab.pairing, "_normalize", counting)
    monkeypatch.setattr(flab.lifting, "_normalize", counting)
    return calls


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
def test_tower_normalizes_its_base_once(monkeypatch, family):
    base = random_paired_module(random.Random(41), make_field(7), 3, 1, s=2)
    calls = _count_normalize(monkeypatch)
    chain = lift_tower(base, 3, family=family)
    assert len(chain) == 3
    assert calls == [base]


def test_problem_stores_the_standard_form_and_the_lift_normalizes_nothing(monkeypatch):
    paired = random_paired_module(random.Random(43), make_field(5), 2, -1, s=1)
    surj = make_small_surjection(make_ring("witt", 5, 1, 2))
    prob = LiftProblem(paired, surj)
    assert prob.base != paired
    assert prob.base == normalize_standard(paired).pairing
    calls = _count_normalize(monkeypatch)
    build_correction_system(prob)
    lift_small(prob)
    assert calls == []


def _invalid_bases():
    k = make_field(5)
    symmetric = _paired(k, (0, 1), [[1, 0], [0, 1]], -1, 1)
    return {
        "symmetry": PairedFLModule(
            symmetric.module, symmetric.L, (Matrix(k, [[0, 1], [1, 0]]),)
        ),
        "singular_phi": _paired(k, (0, 1), [[1, 0], [0, 0]], -1, 1),
        "repeated_weights": _paired(k, (0, 0), [[1, 0], [0, 1]], -1, 0),
        "weight_spread": _paired(k, (0, 2), [[1, 0], [0, 1]], -1, 2),
        "weight_bounds": _paired(k, (0, 1), [[1, 0], [0, 1]], -1, 1, bounds=(1, 1)),
    }


def _outcome(call):
    try:
        call()
    except FlabError as exc:
        return f"{type(exc).__name__} {exc}"
    return None


_SYMMETRY = "SymmetryViolation block 0 entry (2, 1)"
_PHI = "PhiIncompatible block 0"
_REPEATED = "MultiplicityNotFree block 0 has repeated weights"
_SPREAD = "RangeViolation weight spread 2 exceeds (p-2)/2 for p = 5"
_BOUNDS = "WeightOutOfBounds block 0 weight 0 outside [1, 1]"

# case -> outcome of lift_tower at n = 1, 2, 3 and of LiftProblem; depth 1
# runs no LiftProblem checks, and a singular Φ fails Φ-compatibility before
# the tower ever validates the module
FROZEN_ERRORS = {
    "symmetry": (_SYMMETRY, _SYMMETRY, _SYMMETRY, _SYMMETRY),
    "singular_phi": (_PHI, _PHI, _PHI, "SingularPhi block 0"),
    "repeated_weights": (_REPEATED, _REPEATED, _REPEATED, _REPEATED),
    "weight_spread": (None, _SPREAD, _SPREAD, _SPREAD),
    "weight_bounds": (None, _BOUNDS, _BOUNDS, _BOUNDS),
}


@pytest.mark.parametrize("case", sorted(FROZEN_ERRORS))
def test_invalid_input_errors_are_frozen(case):
    base = _invalid_bases()[case]
    *tower, problem = FROZEN_ERRORS[case]
    for n, expected in enumerate(tower, start=1):
        for family in ("witt", "dual_numbers"):
            assert _outcome(lambda: lift_tower(base, n, family=family)) == expected
    surj = make_small_surjection(make_ring("witt", 5, 1, 2))
    assert _outcome(lambda: LiftProblem(base, surj)) == problem


# -- distinct weights checked once ----------------------------------------------


def _count_multiplicity_checks(monkeypatch):
    calls = []
    original = flab.pairing.check_multiplicity_free

    def counting(module):
        calls.append(module)
        return original(module)

    monkeypatch.setattr(flab.pairing, "check_multiplicity_free", counting)
    monkeypatch.setattr(flab.lifting, "check_multiplicity_free", counting)
    return calls


def test_problem_checks_distinct_weights_once(monkeypatch):
    paired = random_paired_module(random.Random(47), make_field(5), 2, -1, s=1)
    surj = make_small_surjection(make_ring("witt", 5, 1, 2))
    calls = _count_multiplicity_checks(monkeypatch)
    LiftProblem(paired, surj)
    assert calls == [paired.module]


def test_normalize_standard_checks_distinct_weights_once(monkeypatch):
    paired = random_paired_module(random.Random(53), make_field(7), 3, 1, s=2)
    calls = _count_multiplicity_checks(monkeypatch)
    normalize_standard(paired)
    assert calls == [paired.module]


@pytest.mark.parametrize("family", ["witt", "dual_numbers"])
def test_tower_checks_distinct_weights_once(monkeypatch, family):
    base = random_paired_module(random.Random(59), make_field(7), 3, 1, s=2)
    calls = _count_multiplicity_checks(monkeypatch)
    chain = lift_tower(base, 3, family=family)
    assert len(chain) == 3
    assert calls == [base.module]


def test_repeated_weights_fail_before_normalizing(monkeypatch):
    paired = _invalid_bases()["repeated_weights"]
    calls = _count_normalize(monkeypatch)
    assert _outcome(lambda: normalize_standard(paired)) == _REPEATED
    assert calls == []
