"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints exactly one PASS/FAIL line (undisturbed by capture) and
enforces its runtime budget where one is stated.  All arithmetic is exact;
every expected value is either hand-derived or checked by an independent
oracle inside the test.
"""

from __future__ import annotations

import random
import time
from itertools import product
from math import lcm

import pytest

from flab.feasibility import GroupType, feasibility_report, root_data
from flab.gf import find_nonvanishing_pair, p_polynomial_value, q_power_frobenius
from flab.lifting import LiftProblem, build_correction_system, lift_small, lift_tower
from flab.linalg import Matrix
from flab.modules import FLBlock, FLModule, dual, hom_mf, is_morphism, tensor, validate
from flab.pairing import (
    LData,
    PairedFLModule,
    normalize_standard,
    reduce_paired,
    standard_gram,
    validate_pairing,
)
from flab.rings import make_field, make_ring, make_small_surjection
from flab.simples import (
    SimpleSpec,
    all_embeddings,
    build_simple,
    change_of_basis,
    minimal_period,
    tensor_decompose,
)
from flab.tangent import deformation_count, tangent_report
from flab.testing import pcanon2, random_fl_module, random_paired_module


def _emit(capsys, line):
    with capsys.disabled():
        print(line)


def _checked(capsys, label):
    """Context manager printing one PASS/FAIL line for the criterion."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        @property
        def elapsed(self):
            return time.perf_counter() - self.t0

        def __exit__(self, exc_type, exc, tb):
            word = "PASS" if exc_type is None else "FAIL"
            _emit(capsys, f"{word} {label} ({self.elapsed:.2f}s)")
            return False

    return _Ctx()


# ---------------------------------------------------------------------------
# shared instance grid for criteria 1 and 2

# (rank, epsilon, pairing weight s, low weight); spread = s - 2*lo must stay
# within (p-2)/2, which rules out r = 3 at p = 5 and r = 4 below p = 11
def _shapes(p):
    shapes = [(2, -1, 1, 0), (2, 1, 1, 0)]
    if p >= 7:
        shapes.append((3, 1, 2, 0))
    if p >= 11:
        shapes.extend([(4, -1, 3, 0), (4, 1, 3, 0)])
    return shapes


@pytest.fixture(scope="module")
def paired_instances():
    combos = [
        (p, fprime, shape)
        for p in (5, 7, 11, 13)
        for fprime in (1, 2)
        for shape in _shapes(p)
    ]
    rng = random.Random(2026)
    instances = []
    i = 0
    while len(instances) < 200:
        p, fprime, (r, eps, s, lo) = combos[i % len(combos)]
        i += 1
        ring = make_field(p**fprime)
        paired = random_paired_module(
            rng, ring, r, eps, witt_degree=fprime, s=s, weight_lo=lo
        )
        instances.append((p, fprime, r, eps, paired))
    return instances


def _to_dual_level1(paired):
    """Rebuild a residue-field pairing over k[t]/(t), entry for entry."""
    ring = paired.module.ring
    d1 = make_ring("dual_numbers", ring.p, ring.f, 1)

    def move(x):
        return d1.elem((x.data,))

    def move_mat(m):
        rows = [[move(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]
        return Matrix(d1, rows, ncols=m.ncols)

    blocks = [FLBlock(b.weights, move_mat(b.phi)) for b in paired.module.blocks]
    module = FLModule(d1, paired.module.bounds, blocks)
    L = LData(paired.L.epsilon, paired.L.s, tuple(move(c) for c in paired.L.c))
    return PairedFLModule(module, L, tuple(move_mat(g) for g in paired.gram))


def test_01_tangent_dimension_formula(paired_instances, capsys):
    with _checked(capsys, "criterion 01 tangent dimension formula, 200 instances") as ctx:
        for p, fprime, r, eps, paired in paired_instances:
            g = GroupType("GSp" if eps == -1 else "GO", r)
            rep = tangent_report(paired)
            expected = fprime * root_data(g).num_pos_roots
            assert rep.dim_tangent - rep.dim_end_mf_pairing == expected
            assert rep.formula_check is True
        assert ctx.elapsed < 5.0


def test_02_one_step_lifts_both_families(paired_instances, capsys):
    with _checked(capsys, "criterion 02 one-step lifts, witt and dual numbers") as ctx:
        for p, fprime, r, eps, paired in paired_instances:
            f = paired.module.ring.f
            for family, base in (("witt", paired), ("dual_numbers", _to_dual_level1(paired))):
                surj = make_small_surjection(make_ring(family, p, f, 2))
                lifted = lift_small(LiftProblem(base, surj))
                validate(lifted.module)
                validate_pairing(lifted)
                assert reduce_paired(lifted, surj) == normalize_standard(base).pairing
        assert ctx.elapsed < 10.0


def test_03_witt_tower_to_level_six(capsys):
    with _checked(capsys, "criterion 03 witt tower to level 6") as ctx:
        chain = lift_tower(pcanon2(), 6)
        rings = [make_ring("witt", 5, 1, m) for m in range(1, 7)]
        assert [stage.module.ring for stage in chain] == rings
        for m, stage in enumerate(chain, start=1):
            validate(stage.module)
            validate_pairing(stage)
            if m > 1:
                surj = make_small_surjection(rings[m - 1])
                assert reduce_paired(stage, surj) == chain[m - 2]
        assert ctx.elapsed < 1.0


def test_04_correction_system_structure(capsys, block_grid):
    with _checked(capsys, "criterion 04 correction-system block structure, 100 systems") as ctx:
        rng = random.Random(404)
        cases = [
            (5, 1, 2, -1, 1),
            (7, 1, 3, 1, 2),
            (11, 1, 4, -1, 3),
            (7, 1, 2, 1, 1),
            (13, 1, 4, 1, 3),
            (5, 2, 2, -1, 1),
            (7, 2, 3, 1, 2),
        ]
        built = 0
        while built < 100:
            p, fprime, rank, eps, s = cases[built % len(cases)]
            family = "witt" if built % 2 == 0 else "dual_numbers"
            lower = make_field(p**fprime)
            paired = random_paired_module(rng, lower, rank, eps, witt_degree=fprime, s=s)
            if family == "dual_numbers":
                paired = _to_dual_level1(paired)
            upper = make_ring(family, p, fprime, 2)
            system = build_correction_system(
                LiftProblem(paired, make_small_surjection(upper))
            )
            for tau in range(fprime):
                grid = block_grid(system, tau)
                for i in range(rank):
                    height = i + 1 if eps == 1 else i
                    for j in range(rank):
                        if i < j:
                            assert grid[i][j] == Matrix.zero(system.kring, height, rank)
                    diag = system.diagonal_block(tau, rank - 1 - i)
                    assert diag.rank_field() == height
            built += 1
        assert built == 100


def _specs_up_to(max_h, max_w):
    out = []
    for h in range(1, max_h + 1):
        for tup in product(range(max_w + 1), repeat=h):
            if minimal_period(tup) == h:
                out.append(SimpleSpec(h, tup))
    return out


def _check_decomposition_counts(a, b):
    dec = tensor_decompose(a, b)
    assert dec.total_rank == a.h * b.h
    pair_sums = sorted(
        a.i[r % a.h] + b.i[(s + r) % b.h]
        for s in range(dec.gcd)
        for r in range(dec.lcm)
    )
    assert pair_sums == sorted(w for sm in dec.summands for w in sm.weights)


# smallest prime q with lcm | q - 1 and q >= 11 so that [0,3] tensor weights
# stay within p - 2 and every copy count has its root of unity in F_q
_EMBED_Q = {1: 11, 2: 11, 3: 13, 4: 13, 5: 11, 6: 13, 8: 17, 10: 11, 12: 13, 15: 31, 20: 41}


def test_05_tensor_decomposition_and_embeddings(capsys):
    label = "criterion 05 tensor decomposition, multiplicities and embeddings"
    with _checked(capsys, label) as ctx:
        for spec_pool in (_specs_up_to(4, 3), _specs_up_to(5, 1)):
            for a in spec_pool:
                for b in spec_pool:
                    _check_decomposition_counts(a, b)
        pattern_a = (0, 1, 2, 3)
        pattern_b = (3, 2, 1, 0)
        for h in range(1, 6):
            for h2 in range(1, 6):
                A = SimpleSpec(h, tuple(pattern_a[j % 4] for j in range(h)))
                A2 = SimpleSpec(h2, tuple(pattern_a[j % 4] for j in range(h2)))
                B2 = SimpleSpec(h2, tuple(pattern_b[j % 4] for j in range(h2)))
                q = _EMBED_Q[lcm(h, h2)]
                for a, b in ((A, A2), (A, B2)):
                    dec = tensor_decompose(a, b)
                    target = tensor(build_simple(a, q), build_simple(b, q))
                    validate(target)
                    embs = all_embeddings(a, b, q)
                    assert len(embs) == sum(sm.copies for sm in dec.summands)
                    for emb in embs:
                        assert emb.target == target
                        assert is_morphism((emb.matrix,), emb.source, emb.target)
                        assert emb.matrix.rank_field() == emb.matrix.ncols
                    cob = change_of_basis(a, b, q)
                    assert cob.nrows == cob.ncols == h * h2
                    assert cob.is_invertible()
        assert ctx.elapsed < 5.0


def test_06_product_nonvanishing_search(capsys):
    with _checked(capsys, "criterion 06 subfield product nonvanishing") as ctx:
        for q in (2, 3, 5):
            # 5^12 exceeds the default ambient-size guard; raised explicitly
            guard = 5**12 if q == 5 else None
            for h in range(1, 5):
                for h2 in range(1, 5):
                    big_deg = lcm(h, h2)
                    for period in range(1, big_deg + 1):
                        if big_deg % period:
                            continue
                        z, z2 = find_nonvanishing_pair(q, h, h2, period, size_guard=guard)
                        copies = big_deg // period
                        assert p_polynomial_value(z * z2, q, period, copies)
                        assert q_power_frobenius(z, q, h) == z
                        assert q_power_frobenius(z2, q, h2) == z2


def _iso_via_hom(dd, m):
    space = hom_mf(dd, m)
    for cand in space.basis:
        if all(mat.is_invertible() for mat in cand):
            return cand
    acc = None
    for cand in space.basis:
        acc = cand if acc is None else tuple(x + y for x, y in zip(acc, cand))
        if all(mat.is_invertible() for mat in acc):
            return acc
    return None


def test_07_duality_involution(capsys):
    with _checked(capsys, "criterion 07 duality on 1000 modules") as ctx:
        rings = [make_field(5), make_field(7), make_field(11), make_field(25)]
        rng = random.Random(1031)
        for idx in range(1000):
            ring = rings[idx % 4]
            fprime = 2 if (ring.f == 2 and idx % 3 == 0) else 1
            r = 2 + (idx // 4) % 2
            m = random_fl_module(rng, ring, r, witt_degree=fprime, weight_range=(0, 3))
            L = LData(1, (4,) * fprime, (ring.random_unit(rng),) * fprime)
            d = dual(m, L)
            validate(d)
            for tau in range(fprime):
                assert sorted(d.blocks[tau].weights) == sorted(
                    4 - w for w in m.blocks[tau].weights
                )
            dd = dual(d, L)
            validate(dd)
            iso = _iso_via_hom(dd, m)
            assert iso is not None
            assert is_morphism(iso, dd, m)
            assert all(mat.is_invertible() for mat in iso)


def test_08_pairing_normalization(capsys):
    with _checked(capsys, "criterion 08 normalization of 100 pairings") as ctx:
        rng = random.Random(88)
        cases = [
            (make_field(5), 2, -1),
            (make_field(5), 3, 1),
            (make_field(7), 4, -1),
            (make_field(7), 2, 1),
            (make_ring("witt", 5, 1, 2), 2, -1),
            (make_ring("witt", 5, 1, 2), 3, 1),
            (make_ring("dual_numbers", 5, 1, 3), 4, 1),
            (make_ring("dual_numbers", 5, 1, 3), 2, -1),
        ]
        for count in range(100):
            ring, r, eps = cases[count % len(cases)]
            paired = random_paired_module(rng, ring, r, eps)
            norm = normalize_standard(paired)
            std = standard_gram(ring, r, eps)
            for tau in range(paired.module.witt_degree):
                assert norm.pairing.gram[tau] == norm.omega[tau] * std
                C = norm.change_of_basis[tau]
                assert C.transpose() * paired.gram[tau] * C == norm.omega[tau] * std


def test_09_brute_force_deformation_count(capsys):
    with _checked(capsys, "criterion 09 brute-force deformation counts") as ctx:
        for p in (5, 7):
            ring = make_field(p)
            instances = [pcanon2(ring)] + [
                random_paired_module(random.Random(p + i), ring, 2, -1, s=1)
                for i in range(3)
            ]
            for paired in instances:
                rep = tangent_report(paired)
                n = deformation_count(paired, enumerate_check=True)
                assert n == ring.size**rep.dim_tangent
        assert ctx.elapsed < 30.0


def test_10_feasibility_fixtures(capsys):
    with _checked(capsys, "criterion 10 feasibility fixtures") as ctx:
        gsp4 = GroupType("GSp", 4)
        good = feasibility_report(gsp4, p=19, degree=1, h0=[4])
        assert good.accept is True and good.binding() == []

        p17 = feasibility_report(gsp4, p=17)
        assert p17.accept is False
        assert "p > max(17, 2(m−1))" in p17.binding()

        go6 = feasibility_report(GroupType("GO", 6), p=19)
        assert go6.accept is False
        assert "m ≢ 2 (mod 4)" in go6.binding()

        wide = feasibility_report(gsp4, p=5, weights=[[0, 1, 2, 3]])
        assert wide.accept is False
        assert "(p−2)/2" in wide.binding()

        p2 = feasibility_report(gsp4, p=2)
        assert p2.accept is False
        assert "very-good" in p2.binding()
