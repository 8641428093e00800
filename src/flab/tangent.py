"""Tangent space of the paired deformation condition over the dual numbers.

Spaces of endomorphism data are represented as lists of elements, one
element being a tuple of per-block matrices over the residue field.  Three
nested spaces are computed by exact kernel calculations:

* delta_space: A_τ^T G_τ + G_τ A_τ = 0 (the pairing Lie condition);
* fil0_subspace: additionally weight-adapted (A[u,a] = 0 when w_u < w_a);
* end_mf_pairing: additionally commuting with the semilinear maps, which
  over k leaves only same-weight components, so for distinct weights the
  condition reads A_{στ} Φ_τ = Φ_τ · diag(A_τ).

The deformation space over k[t]/(t²) is the quotient of delta_space by the
coboundaries diag(α_τ) − Φ_τ^{-1} α_{στ} Φ_τ of Fil^0 elements, giving

    dim tangent = dim delta − dim fil0 + dim end

(the kernel of the coboundary map is exactly end_mf_pairing).
deformation_count returns |k|^dim and can cross-check it against a direct
orbit enumeration for small fields.
"""

from __future__ import annotations

import itertools

from .errors import EnumerationTooLarge, InternalRankFailure, InvalidInput
from .feasibility import GroupType, root_data
from .linalg import Matrix
from .modules import check_multiplicity_free, check_weight_spread, validate
from .pairing import normalize_standard, validate_pairing

SIZE_GUARD = 10**6


class TangentReport:
    """The four dimensions of the exact sequence plus the formula check."""

    __slots__ = (
        "dim_pairing_lie",
        "dim_fil0",
        "dim_end_mf_pairing",
        "dim_tangent",
        "formula_check",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return f"TangentReport({self.as_dict()})"


def _zero_element(paired):
    kring = paired.module.ring
    return tuple(
        Matrix.zero(kring, blk.rank, blk.rank) for blk in paired.module.blocks
    )


def _combine(paired, basis, coeffs):
    acc = _zero_element(paired)
    for coeff, elem in zip(coeffs, basis):
        if not coeff:
            continue
        acc = tuple(x + coeff * m for x, m in zip(acc, elem))
    return acc


def delta_space(paired):
    """Basis of per-block matrices A with A^T G_τ + G_τ A = 0."""
    validate(paired.module)
    validate_pairing(paired)
    kring = paired.module.ring
    fprime = paired.module.witt_degree
    basis = []
    add = kring._add
    zero = kring.zero.data
    for tau in range(fprime):
        G = paired.gram[tau]._raw
        r = len(G)
        rows = []
        for i in range(r):
            for j in range(r):
                row = [zero] * (r * r)
                for u in range(r):
                    row[u * r + i] = add(row[u * r + i], G[u][j])
                    row[u * r + j] = add(row[u * r + j], G[i][u])
                rows.append(row)
        system = Matrix._from_data(kring, rows, r * r)
        for vec in system.kernel_gens():
            mats = []
            for t2 in range(fprime):
                rk = paired.module.blocks[t2].rank
                if t2 == tau:
                    mats.append(
                        Matrix._from_data(
                            kring,
                            [[vec[u * r + a].data for a in range(r)] for u in range(r)],
                            r,
                        )
                    )
                else:
                    mats.append(Matrix.zero(kring, rk, rk))
            basis.append(tuple(mats))
    return basis


def fil0_subspace(paired, delta_basis):
    """Sub-basis of the span of delta_basis preserving the filtration."""
    check_multiplicity_free(paired.module)
    kring = paired.module.ring
    module = paired.module
    delta_basis = list(delta_basis)
    if not delta_basis:
        return []
    rows = []
    for tau in range(module.witt_degree):
        weights = module.blocks[tau].weights
        r = module.blocks[tau].rank
        for u in range(r):
            for a in range(r):
                if weights[u] < weights[a]:
                    rows.append([elem[tau][u, a] for elem in delta_basis])
    if not rows:
        return delta_basis
    system = Matrix(kring, rows, ncols=len(delta_basis))
    return [_combine(paired, delta_basis, combo) for combo in system.kernel_gens()]


def end_mf_pairing(paired, fil0_basis=None):
    """Sub-basis of the span of fil0_basis commuting with the semilinear maps.

    Solves A_{στ} Φ_τ = Φ_τ · diag(A_τ) for the coefficients of a combination
    of fil0_basis: one equation per (τ, i, a), one unknown per basis element.
    fil0_basis is optional; without it the module and the pairing are
    validated and the basis is computed by delta_space and fil0_subspace.
    """
    if fil0_basis is None:
        fil0_basis = fil0_subspace(paired, delta_space(paired))
    fil0_basis = list(fil0_basis)
    if not fil0_basis:
        return []
    kring = paired.module.ring
    fprime = paired.module.witt_degree
    rows = []
    for tau, blk in enumerate(paired.module.blocks):
        phi = blk.phi
        r = phi.nrows
        residues = [
            elem[(tau + 1) % fprime] * phi
            - phi * Matrix.diagonal(kring, [elem[tau][a, a] for a in range(r)])
            for elem in fil0_basis
        ]
        rows.extend([res._raw[i][a] for res in residues] for i in range(r) for a in range(r))
    system = Matrix._from_data(kring, rows, len(fil0_basis))
    return [_combine(paired, fil0_basis, combo) for combo in system.kernel_gens()]


def _num_pos_roots(epsilon, rank):
    if epsilon == -1:
        return root_data(GroupType("GSp", rank)).num_pos_roots
    if rank < 2:
        return 0
    return root_data(GroupType("GO", rank)).num_pos_roots


def tangent_report(paired):
    """All four dimensions of the exact sequence plus the root-count check.

    Each input check runs once, in the first space that needs it:
    delta_space validates the module and the pairing, fil0_subspace checks
    for distinct weights, and the weight spread is checked before the end
    space.  The errors and their order are those of checking everything
    up front, since neither kernel computation can fail on valid input.
    """
    delta = delta_space(paired)
    fil0 = fil0_subspace(paired, delta)
    check_weight_spread(paired.module)
    end = end_mf_pairing(paired, fil0)
    fprime = paired.module.witt_degree
    dim_tangent = len(delta) - len(fil0) + len(end)
    npos = _num_pos_roots(paired.L.epsilon, paired.module.rank)
    return TangentReport(
        dim_pairing_lie=len(delta),
        dim_fil0=len(fil0),
        dim_end_mf_pairing=len(end),
        dim_tangent=dim_tangent,
        formula_check=(dim_tangent - len(end) == fprime * npos),
    )


def _enumerate_count(paired):
    norm = normalize_standard(paired).pairing
    kring = norm.module.ring
    delta = delta_space(norm)
    fil0 = fil0_subspace(norm, delta)
    if kring.size ** len(delta) > SIZE_GUARD:
        raise EnumerationTooLarge(
            f"{kring.size}^{len(delta)} delta values exceed {SIZE_GUARD}"
        )
    elems = list(kring.elements())

    def span(basis):
        return {
            _combine(norm, basis, coeffs)
            for coeffs in itertools.product(elems, repeat=len(basis))
        }

    delta_set = span(delta)
    fprime = norm.module.witt_degree
    phis = [blk.phi for blk in norm.module.blocks]
    inv = [
        phi.inverse(error=InternalRankFailure("singular Φ while enumerating"))
        for phi in phis
    ]
    image = set()
    for coeffs in itertools.product(elems, repeat=len(fil0)):
        alpha = _combine(norm, fil0, coeffs)
        cob = tuple(
            Matrix.diagonal(kring, [alpha[tau][a, a] for a in range(phis[tau].nrows)])
            - inv[tau] * alpha[(tau + 1) % fprime] * phis[tau]
            for tau in range(fprime)
        )
        image.add(cob)
    if not image <= delta_set:
        raise InternalRankFailure("coboundary image left the delta space")
    return len(delta_set) // len(image)


def deformation_count(paired, enumerate_check=False):
    """|k|^{dim tangent}, optionally cross-checked by orbit enumeration."""
    if not paired.module.ring.is_field():
        raise InvalidInput("deformation counting requires a residue-field module")
    report = tangent_report(paired)
    size = paired.module.ring.size
    count = size**report.dim_tangent
    if count > SIZE_GUARD:
        raise EnumerationTooLarge(
            f"{size}^{report.dim_tangent} exceeds {SIZE_GUARD}"
        )
    if enumerate_check:
        observed = _enumerate_count(paired)
        if observed != count:
            raise InternalRankFailure(
                f"enumeration found {observed} classes, formula gives {count}"
            )
    return count
