"""Tangent-space dimensions, the exact sequence, the orbit-count oracle, the
Lie-system kernel as the oracle of delta_space's closed form, the Fil^0
kernel solve as the oracle of fil0_subspace's pick, and the three spaces as
the oracle of tangent_report's counts over a field."""

import hashlib
import json
import random
import sys

import pytest

from flab.errors import (
    EnumerationTooLarge,
    FlabError,
    InvalidInput,
    MultiplicityNotFree,
    RangeViolation,
)
from flab.feasibility import GroupType, root_data
from flab.linalg import Matrix
from flab.modules import FLBlock, FLModule, check_weight_spread, validate
from flab.pairing import (
    LData,
    PairedFLModule,
    change_basis,
    standard_gram,
    validate_pairing,
)
from flab.tangent import (
    TangentReport,
    deformation_count,
    delta_space,
    end_mf_pairing,
    fil0_subspace,
    tangent_report,
)
from flab.rings import make_field, make_ring
from flab.testing import random_paired_module, random_weight_adapted, self_dual_weights


def _flatten(elem):
    out = []
    for m in elem:
        out.extend(m.entries())
    return out


def _contains(kring, basis, elem):
    flat = _flatten(elem)
    if not basis:
        return all(not x for x in flat)
    vecs = [_flatten(b) for b in basis]
    stacked = Matrix(kring, vecs, ncols=len(flat))
    extended = Matrix(kring, vecs + [flat], ncols=len(flat))
    return stacked.rank_field() == extended.rank_field()


def _simple_paired(ring, weights, phi_rows, epsilon, s):
    phi = Matrix(ring, phi_rows)
    module = FLModule(ring, (min(weights), max(weights)), [FLBlock(weights, phi)])
    gram = standard_gram(ring, len(weights), epsilon)
    return PairedFLModule(module, LData(epsilon, (s,), (ring.one,)), (gram,))


def test_canonical_symplectic_rank2_dimensions(pcanon2):
    report = tangent_report(pcanon2)
    assert report.dim_pairing_lie == 3
    assert report.dim_fil0 == 2
    assert report.dim_end_mf_pairing == 1
    assert report.dim_tangent == 2
    assert report.formula_check
    end = end_mf_pairing(pcanon2, fil0_subspace(pcanon2, delta_space(pcanon2)))
    (elem,) = end
    A = elem[0]
    k = pcanon2.module.ring
    assert A[0, 1] == k.zero and A[1, 0] == k.zero
    assert A[0, 0] == -A[1, 1] and A[0, 0] != k.zero


def test_rank4_symplectic_dimensions():
    rng = random.Random(2)
    paired = random_paired_module(rng, make_field(11), 4, -1, s=3)
    delta = delta_space(paired)
    assert len(delta) == 10
    assert len(fil0_subspace(paired, delta)) == 6


def test_rank3_orthogonal_delta_dimension():
    rng = random.Random(4)
    paired = random_paired_module(rng, make_field(7), 3, 1, s=2)
    assert len(delta_space(paired)) == 3


def test_identity_is_not_a_pairing_lie_element(pcanon2):
    k = pcanon2.module.ring
    G = pcanon2.gram[0]
    eye = Matrix.identity(k, 2)
    assert eye.transpose() * G + G * eye == 2 * G
    assert 2 * G != Matrix.zero(k, 2, 2)
    assert not _contains(k, delta_space(pcanon2), (eye,))


def test_space_inclusions_and_group_dimensions():
    rng = random.Random(6)
    shapes = [
        (make_field(5), 2, -1, 1, 1),
        (make_field(7), 2, 1, 1, 1),
        (make_field(7), 3, 1, 1, 2),
        (make_field(11), 4, -1, 1, 3),
        (make_field(13), 4, 1, 1, 3),
        (make_field(25), 2, -1, 2, 1),
    ]
    for ring, rank, eps, fprime, s in shapes:
        for _ in range(3):
            paired = random_paired_module(
                rng, ring, rank, eps, witt_degree=fprime, s=s
            )
            delta = delta_space(paired)
            fil0 = fil0_subspace(paired, delta)
            end = end_mf_pairing(paired, fil0)
            group = GroupType("GSp" if eps == -1 else "GO", rank)
            data = root_data(group)
            assert len(delta) == fprime * (data.dim_g - 1)
            assert len(fil0) == fprime * (data.dim_b - 1)
            kring = paired.module.ring
            for elem in fil0:
                assert _contains(kring, delta, elem)
            for elem in end:
                assert _contains(kring, fil0, elem)
                for tau, blk in enumerate(paired.module.blocks):
                    phi = blk.phi
                    diag = Matrix.diagonal(
                        kring, [elem[tau][a, a] for a in range(phi.nrows)]
                    )
                    assert elem[(tau + 1) % fprime] * phi == phi * diag
            report = tangent_report(paired)
            assert report.formula_check
            assert (
                report.dim_tangent
                == report.dim_pairing_lie
                - report.dim_fil0
                + report.dim_end_mf_pairing
            )


def test_generic_rank4_has_no_pairing_endomorphisms():
    rng = random.Random(8)
    zeros = 0
    for _ in range(20):
        paired = random_paired_module(rng, make_field(11), 4, -1, s=3)
        dim = len(end_mf_pairing(paired, fil0_subspace(paired, delta_space(paired))))
        if dim == 0:
            zeros += 1
        report = tangent_report(paired)
        assert report.dim_tangent - report.dim_end_mf_pairing == 4
    assert zeros >= 15


def test_end_space_is_closed_under_brackets(pcanon2):
    rng = random.Random(10)
    cases = [pcanon2, random_paired_module(rng, make_field(25), 2, -1, witt_degree=2, s=1)]
    for paired in cases:
        kring = paired.module.ring
        end = end_mf_pairing(paired, fil0_subspace(paired, delta_space(paired)))
        for left in end:
            for right in end:
                bracket = tuple(
                    a * b - b * a for a, b in zip(left, right)
                )
                assert _contains(kring, end, bracket)


def test_deformation_count_oracles(pcanon2):
    assert deformation_count(pcanon2, enumerate_check=True) == 25
    k7 = make_field(7)
    analogue = _simple_paired(k7, (0, 1), [[1, 0], [0, 1]], -1, 1)
    assert deformation_count(analogue, enumerate_check=True) == 49


def test_deformation_count_rank_one():
    k = make_field(5)
    paired = _simple_paired(k, (1,), [[1]], 1, 2)
    assert deformation_count(paired, enumerate_check=True) == 1


def _count_calls(monkeypatch, fn):
    """Record the calls of fn through every flab namespace that binds it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "flab" or name.startswith("flab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_deformation_count_validates_each_pairing_once(monkeypatch, pcanon2):
    pairings = _count_calls(monkeypatch, validate_pairing)
    modules = _count_calls(monkeypatch, validate)
    assert deformation_count(pcanon2, enumerate_check=True) == 25
    # the input in tangent_report, then its normal form in the enumeration
    assert len(pairings) == 2
    assert len(modules) == 2


def test_deformation_count_guards(pcanon2):
    rng = random.Random(12)
    big = random_paired_module(rng, make_field(37), 4, -1, s=3)
    with pytest.raises(EnumerationTooLarge):
        deformation_count(big)
    over_chain = random_paired_module(rng, make_ring("witt", 5, 1, 2), 2, -1, s=1)
    with pytest.raises(InvalidInput):
        deformation_count(over_chain)


def test_tangent_preconditions():
    k = make_field(5)
    repeated = _simple_paired(k, (0, 0), [[1, 0], [0, 1]], -1, 0)
    with pytest.raises(MultiplicityNotFree):
        tangent_report(repeated)
    with pytest.raises(MultiplicityNotFree):
        fil0_subspace(repeated, delta_space(repeated))
    wide = _simple_paired(k, (0, 2), [[1, 0], [0, 1]], -1, 2)
    with pytest.raises(RangeViolation):
        tangent_report(wide)


# sha256 of the delta, Fil^0 and End bases of _basis_cases(), recorded when
# delta_space still built all r^2 Lie equations and fil0_subspace and
# end_mf_pairing still formed their systems with matrix products
FROZEN_BASES_SHA256 = "afefbb45cf69af4f04d6174031191744a7501eab767def20af1806a8eba18719"

BASIS_RINGS = [make_field(q) for q in (5, 7, 11, 13, 25, 49)] + [
    make_ring("witt", 5, 1, 2),
    make_ring("witt", 3, 2, 2),
    make_ring("dual_numbers", 5, 1, 2),
    make_ring("dual_numbers", 3, 2, 2),
]
BASIS_SHAPES = [(2, -1), (2, 1), (3, 1), (4, -1), (4, 1)]


def _near_identity_paired(rng, ring, rank, epsilon, witt_degree):
    """Pairing over a level-2 ring with Φ_τ = 1 + π N_τ, N_τ in the Lie
    algebra of the standard form S, scrambled by a weight-adapted change of
    basis.  Its End system mixes unit and non-unit entries, so the kernel
    sweep meets non-unit pivots and its generators depend on the row order.
    """
    k = ring.residue_ring()
    s = rank - 1 if epsilon == -1 else rank
    weights = self_dual_weights(rng, rank, s, 0)
    std = standard_gram(k, rank, epsilon)
    blocks = []
    for _ in range(witt_degree):
        # N = ε S X with X^T = −ε X solves N^T S + S N = 0
        X = [[k.zero] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                x = k.random_element(rng)
                if i == j and epsilon == 1:
                    continue
                X[i][j] = x
                X[j][i] = -epsilon * x
        N = epsilon * (std * Matrix(k, X))
        lifted = Matrix(ring, [[ring.lift_from(x) for x in row] for row in N.rows])
        blocks.append(FLBlock(weights, Matrix.identity(ring, rank) + ring.pi() * lifted))
    module = FLModule(ring, (min(weights), max(weights)), blocks)
    paired = PairedFLModule(
        module,
        LData(epsilon, (s,) * witt_degree, (ring.one,) * witt_degree),
        (standard_gram(ring, rank, epsilon),) * witt_degree,
    )
    return change_basis(
        paired, [random_weight_adapted(ring, weights, rng) for _ in range(witt_degree)]
    )


def _basis_cases():
    rng = random.Random(2024)
    for ring in BASIS_RINGS:
        for rank, eps in BASIS_SHAPES:
            for fprime in (1, 2) if ring.f == 2 else (1,):
                yield random_paired_module(rng, ring, rank, eps, witt_degree=fprime)
    for ring in BASIS_RINGS[6:]:
        for rank, eps in ((2, -1), (4, -1), (4, 1)):
            for fprime in (1, 2) if ring.f == 2 else (1,):
                for _ in range(3):
                    yield _near_identity_paired(rng, ring, rank, eps, fprime)


def _encoded(ring, basis):
    """Canonical encodings of every basis entry, as bytes."""
    encoded = [[[ring.encode(x) for x in m.entries()] for m in elem] for elem in basis]
    return repr(encoded).encode()


def _bases_digest():
    """Digest of the canonical encodings of every basis entry, case by case."""
    digest = hashlib.sha256()
    for paired in _basis_cases():
        ring = paired.module.ring
        delta = delta_space(paired)
        fil0 = fil0_subspace(paired, delta)
        end = end_mf_pairing(paired, fil0)
        for basis in (delta, fil0, end):
            digest.update(_encoded(ring, basis))
            digest.update(b"|")
    return digest.hexdigest()


def test_tangent_bases_are_frozen():
    assert _bases_digest() == FROZEN_BASES_SHA256


def _lie_system_basis(paired):
    """Reference for delta_space: kernel_gens of the Lie system itself.

    One row per equation (i, j) of A^T G_τ + G_τ A = 0 on the r² unknowns
    A[u][a] at u r + a, for i <= j (i < j for ε = −1): row (j, i) is ε times
    row (i, j) once G_τ is ε-symmetric, and for ε = −1 the diagonal rows
    vanish.  Over W/p^n and k[t]/t^n the kept rows have full row rank mod π,
    so the sweep's pivots are units and its generators are a basis.
    """
    kring = paired.module.ring
    zeros = [Matrix.zero(kring, blk.rank, blk.rank) for blk in paired.module.blocks]
    skip_diagonal = 1 if paired.L.epsilon == -1 else 0
    add = kring._add
    zero = kring.zero.data
    basis = []
    for tau, gram in enumerate(paired.gram):
        G = gram._raw
        r = len(G)
        rows = []
        for i in range(r):
            for j in range(i + skip_diagonal, r):
                row = [zero] * (r * r)
                for u in range(r):
                    row[u * r + i] = add(row[u * r + i], G[u][j])
                    row[u * r + j] = add(row[u * r + j], G[i][u])
                rows.append(row)
        system = Matrix._from_data(kring, rows, r * r)
        for vec in system.kernel_gens():
            mats = list(zeros)
            mats[tau] = Matrix(kring, [vec[u * r : (u + 1) * r] for u in range(r)])
            basis.append(tuple(mats))
    return basis


def _differential_cases():
    rng = random.Random(31)
    rings = [make_field(q) for q in (2, 4, 8, 5, 9, 27)] + [
        make_ring("witt", 3, 1, 3),
        make_ring("witt", 3, 3, 2),
        make_ring("dual_numbers", 5, 1, 2),
        make_ring("dual_numbers", 3, 2, 3),
    ]
    for ring in rings:
        for rank, eps in ((1, 1), (2, -1), (3, 1), (4, -1), (4, 1)):
            for fprime in sorted({1, ring.f}):
                yield random_paired_module(rng, ring, rank, eps, witt_degree=fprime)
        if ring.level == 2:
            for rank, eps in ((2, -1), (4, 1)):
                yield _near_identity_paired(rng, ring, rank, eps, ring.f)


def test_delta_space_matches_the_lie_system_kernel():
    for paired in _differential_cases():
        assert delta_space(paired) == _lie_system_basis(paired)


# sha256 of the delta bases of _char2_cases(), recorded when delta_space
# still solved the Lie system with kernel_gens
FROZEN_CHAR2_SHA256 = "b354bcb457b9fa0bf650b45d6db806eec288e815eb936372a1204b72b1a33c13"


def _char2_cases():
    rng = random.Random(2)
    for q in (2, 4, 8):
        ring = make_field(q)
        for rank, eps in ((1, 1), (2, 1), (2, -1), (3, 1), (4, 1), (4, -1)):
            yield random_paired_module(rng, ring, rank, eps)


def test_characteristic_two_keeps_the_diagonal():
    # in characteristic 2, G E_ii is (−ε)-symmetric for both signs, so
    # dim Δ = r(r + 1)/2 whatever ε is
    digest = hashlib.sha256()
    for paired in _char2_cases():
        delta = delta_space(paired)
        rank = paired.module.rank
        assert len(delta) == rank * (rank + 1) // 2
        digest.update(_encoded(paired.module.ring, delta))
    assert digest.hexdigest() == FROZEN_CHAR2_SHA256


def _fil0_by_solve(paired, delta_basis):
    """Reference for fil0_subspace: kernel_gens of the Fil^0 system.

    One row per position (τ, u, a) with w_u < w_a, one unknown per element
    of delta_basis; each kernel generator gives the combination of
    delta_basis with those coefficients.
    """
    kring = paired.module.ring
    blocks = paired.module.blocks
    rows = [
        [elem[tau][u, a] for elem in delta_basis]
        for tau, blk in enumerate(blocks)
        for u in range(blk.rank)
        for a in range(blk.rank)
        if blk.weights[u] < blk.weights[a]
    ]
    if not rows or not delta_basis:
        return list(delta_basis)
    system = Matrix(kring, rows, ncols=len(delta_basis))
    out = []
    for combo in system.kernel_gens():
        out.append(
            tuple(
                sum(
                    (c * elem[tau] for c, elem in zip(combo, delta_basis)),
                    Matrix.zero(kring, blk.rank, blk.rank),
                )
                for tau, blk in enumerate(blocks)
            )
        )
    return out


def test_fil0_pick_matches_the_kernel_solve():
    cases = [*_differential_cases(), *_basis_cases(), *_char2_cases()]
    for paired in cases:
        delta = delta_space(paired)
        assert fil0_subspace(paired, delta) == _fil0_by_solve(paired, delta)


def test_fil0_subspace_solves_nothing(monkeypatch):
    kernel_gens = Matrix.kernel_gens
    calls = []

    def counting(self):
        calls.append(self)
        return kernel_gens(self)

    cases = [(paired, delta_space(paired)) for paired in _differential_cases()]
    monkeypatch.setattr(Matrix, "kernel_gens", counting)
    for paired, delta in cases:
        fil0_subspace(paired, delta)
    assert calls == []
    paired, delta = cases[-1]
    end_mf_pairing(paired, fil0_subspace(paired, delta))  # the End solve is seen
    assert calls


def _diagonal_phi_paired(rng, ring, rank, epsilon, witt_degree):
    """Pairing with each Φ_τ a torus element of the similitudes of ν_τ S, S
    the standard form, scrambled by a weight-adapted change of basis.

    End is the torus vectors d with d_i + d_{r−1−i} = 0 that are equal in
    every block, so for p odd it has dimension ⌊rank/2⌋.
    """
    s = rank - 1
    weights = self_dual_weights(rng, rank, s, 0)
    std = standard_gram(ring, rank, epsilon)
    nus = [ring.random_unit(rng) for _ in range(witt_degree)]
    blocks = []
    cs = []
    for tau in range(witt_degree):
        half = [ring.random_unit(rng) for _ in range(rank // 2)]
        if rank % 2:
            root = ring.random_unit(rng)
            lam, middle = root * root, [root]
        else:
            lam, middle = ring.random_unit(rng), []
        diag = half + middle + [lam * ring.inv(t) for t in reversed(half)]
        blocks.append(FLBlock(weights, Matrix.diagonal(ring, diag)))
        cs.append(lam * nus[(tau + 1) % witt_degree] * ring.inv(nus[tau]))
    module = FLModule(ring, (min(weights), max(weights)), blocks)
    paired = PairedFLModule(
        module,
        LData(epsilon, (s,) * witt_degree, cs),
        tuple(nu * std for nu in nus),
    )
    return change_basis(
        paired, [random_weight_adapted(ring, weights, rng) for _ in range(witt_degree)]
    )


def _diagonal_phi_cases():
    rng = random.Random(77)
    shapes = [
        (7, 2, -1, 1), (7, 2, 1, 1), (7, 3, 1, 1),
        (11, 4, -1, 1), (11, 4, 1, 1), (11, 5, 1, 1),
        (13, 6, -1, 1), (13, 6, 1, 1),
        (17, 8, -1, 1), (17, 8, 1, 1),
        (25, 2, -1, 2), (49, 3, 1, 2), (121, 4, -1, 2), (125, 2, -1, 3), (125, 2, 1, 1),
    ]
    for q, rank, eps, fprime in shapes:
        for _ in range(2):
            yield _diagonal_phi_paired(rng, make_field(q), rank, eps, fprime)


def _outcome(fn, paired):
    """fn(paired)'s dimensions, or the name and message of its error."""
    try:
        return fn(paired).as_dict()
    except FlabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _report_from_spaces(paired):
    """Reference for tangent_report: the lengths of the three bases, with
    each check in the first space that needs it."""
    delta = delta_space(paired)
    fil0 = fil0_subspace(paired, delta)
    check_weight_spread(paired.module)
    end = end_mf_pairing(paired, fil0)
    module = paired.module
    eps = paired.L.epsilon
    if eps == 1 and module.rank < 2:
        npos = 0
    else:
        npos = root_data(GroupType("GSp" if eps == -1 else "GO", module.rank)).num_pos_roots
    dim_tangent = len(delta) - len(fil0) + len(end)
    return TangentReport(
        dim_pairing_lie=len(delta),
        dim_fil0=len(fil0),
        dim_end_mf_pairing=len(end),
        dim_tangent=dim_tangent,
        formula_check=(dim_tangent - len(end) == module.witt_degree * npos),
    )


def _field_cases():
    cases = [*_basis_cases(), *_differential_cases(), *_char2_cases()]
    return [paired for paired in cases if paired.module.ring.is_field()]


def test_field_report_counts_what_the_spaces_hold():
    errors = 0
    for paired in _field_cases():
        expected = _outcome(_report_from_spaces, paired)
        assert _outcome(tangent_report, paired) == expected
        errors += isinstance(expected, str)
    assert errors


def test_field_report_counts_torus_endomorphisms():
    dims = set()
    for paired in _diagonal_phi_cases():
        report = tangent_report(paired)
        assert report.as_dict() == _report_from_spaces(paired).as_dict()
        assert report.formula_check
        dims.add(report.dim_end_mf_pairing)
    assert dims == {1, 2, 3, 4}


def test_field_report_builds_no_space(monkeypatch):
    fields = _field_cases()
    chain = random_paired_module(random.Random(5), make_ring("dual_numbers", 5, 1, 2), 2, -1, s=1)
    spaces = [_count_calls(monkeypatch, fn) for fn in (delta_space, fil0_subspace, end_mf_pairing)]
    kernel_gens = Matrix.kernel_gens
    kernels = []

    def counting(self):
        kernels.append(self)
        return kernel_gens(self)

    monkeypatch.setattr(Matrix, "kernel_gens", counting)
    for paired in fields:
        _outcome(tangent_report, paired)
    assert spaces == [[], [], []] and kernels == []
    tangent_report(chain)  # off a field the three spaces are built
    assert all(spaces) and kernels


# sha256 of tangent_report on the chain-ring members of _basis_cases(): each
# outcome's sorted-key JSON or its error's name and message, recorded before
# tangent_report counted over fields
FROZEN_CHAIN_REPORTS_SHA256 = "f110fac71284ae8a57408c1bd97d0b99c88889be07564f100f9b75d470f5e8b8"


def test_chain_ring_reports_are_frozen():
    digest = hashlib.sha256()
    for paired in _basis_cases():
        if paired.module.ring.is_field():
            continue
        out = _outcome(tangent_report, paired)
        if isinstance(out, dict):
            out = json.dumps(out, sort_keys=True)
        digest.update(out.encode() + b"|")
    assert digest.hexdigest() == FROZEN_CHAIN_REPORTS_SHA256
