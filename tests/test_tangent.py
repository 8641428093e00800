"""Tangent-space dimensions, the exact sequence, and the orbit-count oracle."""

import hashlib
import random
import sys

import pytest

from flab.errors import (
    EnumerationTooLarge,
    InvalidInput,
    MultiplicityNotFree,
    RangeViolation,
)
from flab.feasibility import GroupType, root_data
from flab.linalg import Matrix
from flab.modules import FLBlock, FLModule, validate
from flab.pairing import (
    LData,
    PairedFLModule,
    change_basis,
    standard_gram,
    validate_pairing,
)
from flab.tangent import (
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
    end = end_mf_pairing(pcanon2)
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
            end = end_mf_pairing(paired)
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
        dim = len(end_mf_pairing(paired))
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
        end = end_mf_pairing(paired)
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


def _bases_digest():
    """Digest of the canonical encodings of every basis entry, case by case."""
    digest = hashlib.sha256()
    for paired in _basis_cases():
        ring = paired.module.ring
        delta = delta_space(paired)
        fil0 = fil0_subspace(paired, delta)
        end = end_mf_pairing(paired, fil0)
        for basis in (delta, fil0, end):
            encoded = [
                [[ring.encode(x) for x in m.entries()] for m in elem] for elem in basis
            ]
            digest.update(repr(encoded).encode())
            digest.update(b"|")
    return digest.hexdigest()


def test_tangent_bases_are_frozen():
    assert _bases_digest() == FROZEN_BASES_SHA256
