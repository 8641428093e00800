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

delta_space builds only the independent Lie equations.  Once
validate_pairing has passed, G_τ^T = ε G_τ, so M(A) = A^T G_τ + G_τ A
satisfies M(A)^T = ε M(A): row (j, i) of the system is ε times row (i, j),
and for ε = −1 the diagonal rows vanish.  Rows (i, j) are built for i <= j
when ε = +1 and for i < j when ε = −1, in row-major order.  The kernel is
unchanged.  Over a field kernel_gens returns the reduced-echelon null basis,
which depends only on the row span.  Over W/p^n and k[t]/t^n a dropped row
is an exact ±copy of an earlier kept row: the sweep scans rows in order, so
the copy never pivots before its twin, row and column operations keep it a
copy, and it is zero once its twin pivots; zero rows are never touched.

fil0_subspace and end_mf_pairing read each input element once into a flat
raw vector (blocks concatenated, each row-major).  Their system rows are
coordinate picks and the residues (A_{στ} Φ_τ)[i][a] − Φ_τ[i][a] A_τ[a][a],
formed on raw data skipping zeros, and each output element is one raw
combination (_combine) wrapped into blocks once.
"""

from __future__ import annotations

import itertools

from .errors import EnumerationTooLarge, InternalRankFailure, InvalidInput
from .feasibility import GroupType, root_data
from .linalg import Matrix
from .modules import check_multiplicity_free, check_weight_spread, validate
from .pairing import _normalize, validate_pairing

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


def _flat(elem):
    """Raw entries of an element: its blocks concatenated, each row-major."""
    return [x for m in elem for row in m._raw for x in row]


def _starts(module):
    """Where each block begins in a flat vector."""
    starts = []
    total = 0
    for blk in module.blocks:
        starts.append(total)
        total += blk.rank * blk.rank
    return starts


def _combine(module, vecs, coeffs):
    """The element Σ c_k v_k for flat raw vectors v_k and raw coefficients c_k.

    Zero coefficients and zero entries are skipped, and each entry starts
    at its first term.
    """
    ring = module.ring
    add, mul = ring._add, ring._mul
    zero, one = ring.zero.data, ring.one.data
    out = [zero] * sum(blk.rank * blk.rank for blk in module.blocks)
    for c, vec in zip(coeffs, vecs):
        if c == zero:
            continue
        for pos, x in enumerate(vec):
            if x != zero:
                term = x if c == one else mul(c, x)
                acc = out[pos]
                out[pos] = term if acc is zero else add(acc, term)
    blocks = []
    for start, blk in zip(_starts(module), module.blocks):
        r = blk.rank
        rows = [out[start + u * r : start + (u + 1) * r] for u in range(r)]
        blocks.append(Matrix._from_data(ring, rows, r))
    return tuple(blocks)


def _solve(module, vecs, rows):
    """Combinations of vecs whose coefficients solve the raw system rows."""
    system = Matrix._from_data(module.ring, rows, len(vecs))
    return [
        _combine(module, vecs, [c.data for c in combo])
        for combo in system.kernel_gens()
    ]


def delta_space(paired):
    """Basis of per-block matrices A with A^T G_τ + G_τ A = 0.

    G_τ is ε-symmetric once validate_pairing has passed, so row (j, i) of
    the system is ε times row (i, j) and only i <= j (i < j for ε = -1,
    whose diagonal rows vanish) is built; see the module docstring.
    """
    validate(paired.module)
    validate_pairing(paired)
    kring = paired.module.ring
    blocks = paired.module.blocks
    zeros = [Matrix.zero(kring, blk.rank, blk.rank) for blk in blocks]
    skip_diagonal = 1 if paired.L.epsilon == -1 else 0
    basis = []
    add = kring._add
    zero = kring.zero.data
    for tau in range(len(blocks)):
        G = paired.gram[tau]._raw
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
            mats[tau] = Matrix._from_data(
                kring, [[vec[u * r + a].data for a in range(r)] for u in range(r)], r
            )
            basis.append(tuple(mats))
    return basis


def fil0_subspace(paired, delta_basis):
    """Sub-basis of the span of delta_basis preserving the filtration."""
    check_multiplicity_free(paired.module)
    module = paired.module
    delta_basis = list(delta_basis)
    if not delta_basis:
        return []
    vecs = [_flat(elem) for elem in delta_basis]
    rows = []
    for start, blk in zip(_starts(module), module.blocks):
        weights = blk.weights
        r = blk.rank
        for u in range(r):
            for a in range(r):
                if weights[u] < weights[a]:
                    pos = start + u * r + a
                    rows.append([vec[pos] for vec in vecs])
    if not rows:
        return delta_basis
    return _solve(module, vecs, rows)


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
    module = paired.module
    ring = module.ring
    add, sub, mul = ring._add, ring._sub, ring._mul
    zero = ring.zero.data
    vecs = [_flat(elem) for elem in fil0_basis]
    starts = _starts(module)
    fprime = len(starts)
    rows = []
    for tau, blk in enumerate(module.blocks):
        phi = blk.phi._raw
        r = len(phi)
        phi_nonzero = [[(a, y) for a, y in enumerate(row) if y != zero] for row in phi]
        here = starts[tau]
        there = starts[(tau + 1) % fprime]
        # residues[k][i * r + a] = (A_{στ} Φ_τ)[i][a] − Φ_τ[i][a] · A_τ[a][a]
        residues = []
        for vec in vecs:
            res = [zero] * (r * r)
            diag = [vec[here + a * r + a] for a in range(r)]
            for i in range(r):
                base = i * r
                for u in range(r):
                    x = vec[there + base + u]
                    if x != zero:
                        for a, y in phi_nonzero[u]:
                            term = mul(x, y)
                            acc = res[base + a]
                            res[base + a] = term if acc is zero else add(acc, term)
                for a, y in phi_nonzero[i]:
                    d = diag[a]
                    if d != zero:
                        res[base + a] = sub(res[base + a], mul(y, d))
            residues.append(res)
        rows.extend([res[pos] for res in residues] for pos in range(r * r))
    return _solve(module, vecs, rows)


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
    # paired is valid (tangent_report checked it), and delta_space validates
    # the normal form
    norm = _normalize(paired).pairing
    module = norm.module
    kring = module.ring
    delta = delta_space(norm)
    fil0 = fil0_subspace(norm, delta)
    if kring.size ** len(delta) > SIZE_GUARD:
        raise EnumerationTooLarge(
            f"{kring.size}^{len(delta)} delta values exceed {SIZE_GUARD}"
        )
    elems = list(kring._all_data())

    def span(basis):
        vecs = [_flat(elem) for elem in basis]
        for coeffs in itertools.product(elems, repeat=len(basis)):
            yield _combine(module, vecs, coeffs)

    delta_set = set(span(delta))
    fprime = module.witt_degree
    phis = [blk.phi for blk in module.blocks]
    inv = [
        phi.inverse(error=InternalRankFailure("singular Φ while enumerating"))
        for phi in phis
    ]
    image = set()
    for alpha in span(fil0):
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
