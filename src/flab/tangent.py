"""Tangent space of the paired deformation condition over the dual numbers.

Spaces of endomorphism data are represented as lists of elements, one
element being a tuple of per-block matrices over the residue field.  Three
nested spaces are computed, each from the one before; only the last is an
exact kernel calculation.  Over a field tangent_report builds none of them:
it counts their dimensions from pivots (see "Counting over a field" below).

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

delta_space is in closed form.  After validate_pairing G = G_τ is invertible
and G^T = ε G, so A^T G + G A = G A + ε (G A)^T vanishes exactly when G A is
(−ε)-symmetric (so(G), sp(G): Fulton–Harris, Lectures 16 and 18).  Δ_τ is
spanned by G^{-1}(E_ij − ε E_ji), i < j, and G^{-1} E_ii when ε = −1 or p = 2.
The basis is the span's reduced echelon form with the coordinates A[u][a]
at u r + a read right to left, as kernel_gens gives it on the Lie system.
Over a field its null vector n_f is 1 at free column f, 0 at the other free
ones and nonzero only at pivot columns left of f, so right to left {n_f} is
the unique reduced echelon basis of the kernel.  Over W/p^n and k[t]/t^n, p
is odd and A ↦ A^T G + G A maps onto the ε-symmetric matrices (take
A = ½ G^{-1} M), so the independent Lie rows have full rank mod π: every
sweep pivot is a unit, the kernel is free, and both routes reduce to the
field case step by step.

fil0_subspace is a pick: given the basis delta_space(paired), Fil^0 is
spanned by the basis elements that vanish on Z, the positions (u, a) with
w_u < w_a; weights are ascending and, once checked, distinct, so Z is
u < a and Fil^0 is Δ ∩ {lower triangular}.  "Priority" is delta_space's
coordinate order (bottom row first, right to left within a row); each basis
element b has a pivot of value 1, is zero at every coordinate of higher
priority and at the pivots of the others, so an element X of Δ is
Σ_b X[pivot of b] · b.

* Shape of G and H.  After validate_pairing the weights are self-dual,
  w_i + w_{r−1−i} = s, and G[i][j] = 0 where w_i + w_j > s; for distinct
  weights that is exactly where i + j > r − 1.  So the antidiagonal entries
  of G are units, and H = G^{-1} vanishes where u + i < r − 1.  With h_i = H^T e_i
  and V_a = span(e_a, …, e_{r−1}), span(h_0, …, h_j) = V_{r−1−j}.
* A as a form.  A ↦ B_A(v, w) = ⟨Av, w⟩ = (Av)^T G w is a bijection from Δ
  onto the (−ε)-symmetric forms: alternating when ε = +1 and p is odd,
  symmetric with a free diagonal when p = 2.  Since G H^T = ε,
  (Av)_i = ε B_A(v, h_i).  Hence the rows u > u0 of A vanish iff
  B_A(·, h_i) = 0 for all i > u0, and A is lower triangular (A V_a ⊆ V_a
  for all a), that is in Fil^0, iff B_A(h_j, h_i) = 0 whenever
  i + j < r − 1.
* A basis element with its pivot on or below the diagonal is in Fil^0.
  Let b have pivot (u0, a0), a0 <= u0, and let t be its row u0, so
  t(v) = ε B_b(v, h_{u0}).  The rows of b below u0 vanish, so t(h_j) = 0
  for j > u0; row u0 vanishes right of a0 and h_j lives in V_{r−1−j}, so
  t(h_j) = 0 for j < r − 1 − u0.  Set B(h_j, h_{u0}) = ε t(h_j),
  B(h_{u0}, h_j) = −ε B(h_j, h_{u0}) and every other value 0 (at j = u0
  both read B_b(h_{u0}, h_{u0})).  This B is of the same kind as B_b and
  vanishes at (h_j, h_i) for i + j < r − 1, so it is B_Y for a Y in Fil^0
  whose rows u0, …, r − 1 equal those of b.  Then Y − b expands over
  pivots of lower priority only, with coefficient 0 at every pivot in Z
  (Y is zero on Z, b at the other pivots).  Induction from the pivot of
  lowest priority gives b in Fil^0.
* The pick is a basis.  By the last step it is the set of basis elements
  with pivots off Z (one with its pivot in Z is 1 there), and an X in
  Fil^0 has coefficient X[pivot] = 0 at every pivot in Z, so the pick
  spans Fil^0.
* The old solve returned the pick.  In the system of the Z coordinates
  over delta_basis, the columns of the picked elements are zero and the
  others hold an identity on the rows of their Z pivots, so kernel_gens
  returned exactly the unit vectors of the zero columns, in order.  This
  holds over fields and over W/p^n and k[t]/t^n, where every pivot is a
  unit: the output is the pick, byte for byte.

Counting over a field.  tangent_report needs only the three dimensions.

* Δ and Fil^0 from pivots.  The pivot columns of _gauss_jordan are fixed
  before the rows above a pivot are touched: the pivot search reads only the
  rows from the next pivot position down, and with and without forward_only
  those rows are unit multiples of each other (the _gauss_jordan docstring),
  so they have their zeros and units in the same places.  So the forward
  elimination of the rows G^{-1}(E_ij − ε E_ji) has the pivot columns of
  delta_space's reduced echelon form: dim Δ is their number, and since the Fil^0 pick keeps the
  basis elements with pivots off Z, dim Fil^0 is the number of pivots (u, a)
  with u >= a.  After the r columns of one row of A are eliminated, the rows
  below the pivots vanish there, so the elimination goes on with those
  columns and the pivot rows cut off, one row of A at a time.
* End on the torus (Fulton–Harris, Lectures 16 and 18).  An End element A
  lies in Fil^0, so with distinct weights diag(A_τ) = d_τ determines
  A_{στ} = X_τ := Φ_τ diag(d_τ) Φ_τ^{-1}.  Over k, divided(G_τ) is the
  antidiagonal part G°_τ of G_τ, so validate_pairing has checked
  Φ_τ^T G_{στ} Φ_τ = c_τ G°_τ, with the antidiagonal entries of G_τ units.
  Conjugating by Φ_τ, X_τ^T G_{στ} + G_{στ} X_τ = 0 reads
  D G°_τ + G°_τ D = 0 for D = diag(d_τ), that is
  (d_i + d_{r−1−i}) · G°_τ[i][r−1−i] = 0; and each step can be read
  backwards, so a d_τ with d_i + d_{r−1−i} = 0 gives an X_τ in the Lie
  algebra of G_{στ}.  So d_τ ranges over the Cartan: d_i = −d_{r−1−i} and
  the middle entry 0 when p is odd, d_{r−1−i} = d_i and the middle entry
  free when p = 2.  End is then isomorphic to the (d_τ) in the Cartan with
  each X_τ lower triangular and diag(X_τ) = d_{στ}; its dimension is the
  number of unknowns minus the rank of those linear equations, from one
  more forward elimination.  The same identity gives Φ_τ^{-1} with no
  elimination: Φ_τ^{-1} = c_τ^{-1} (G°_τ)^{-1} Φ_τ^T G_{στ}, where
  (G°_τ)^{-1} has the entry 1 / G_τ[r−1−m][m] at (m, r−1−m) and zeros
  elsewhere.

Both counts are eliminations on the input's G and Φ, not the closed forms
of the proofs, so formula_check still tests computed numbers against the
root count; delta_space, fil0_subspace and end_mf_pairing stay public as
their reference.  Off a field tangent_report builds the three spaces.

end_mf_pairing reads each input element once into a flat raw vector
(blocks concatenated, each row-major).  Its system rows are the residues
(A_{στ} Φ_τ)[i][a] − Φ_τ[i][a] A_τ[a][a], formed on raw data skipping zeros,
and each output element is one raw combination (_combine) wrapped into
blocks once.
"""

from __future__ import annotations

import itertools

from .errors import EnumerationTooLarge, InternalRankFailure, InvalidInput
from .feasibility import GroupType, root_data
from .linalg import Matrix, _gauss_jordan
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


def _delta_rows(kring, G, epsilon, tau):
    """The rows G^{-1}(E_ij − ε E_ji) spanning Δ_τ (i < j, and i = j when
    ε = −1 or p = 2), the entry (u, a) of each at index r² − 1 − (u r + a)."""
    H = G.inverse(error=InternalRankFailure(f"Gram block {tau} is singular"))._raw
    r = len(H)
    first_j = 0 if epsilon == -1 or kring.p == 2 else 1
    minus_eps = kring.from_int(-epsilon).data
    rows = []
    for i in range(r):
        for j in range(i + first_j, r):
            row = [kring.zero.data] * (r * r)
            for u in range(r):
                row[-1 - u * r - j] = H[u][i]
                if j != i:
                    row[-1 - u * r - i] = kring._mul(minus_eps, H[u][j])
            rows.append(row)
    return rows


def delta_space(paired):
    """Basis of per-block A with A^T G_τ + G_τ A = 0, in closed form (module docstring)."""
    validate(paired.module)
    validate_pairing(paired)
    kring = paired.module.ring
    zeros = [Matrix.zero(kring, blk.rank, blk.rank) for blk in paired.module.blocks]
    basis = []
    for tau, G in enumerate(paired.gram):
        r = G.nrows
        rows = _delta_rows(kring, G, paired.L.epsilon, tau)
        rows, pivot_cols = _gauss_jordan(kring, rows, r * r)
        if len(pivot_cols) < len(rows):
            raise InternalRankFailure(f"delta space of block {tau} lost rank")
        for row in reversed(rows):
            vec = row[::-1]
            mats = list(zeros)
            mats[tau] = Matrix._from_data(kring, [vec[u * r : (u + 1) * r] for u in range(r)], r)
            basis.append(tuple(mats))
    return basis


def fil0_subspace(paired, delta_basis):
    """The elements of delta_basis that vanish where w_u < w_a, in order.

    delta_basis must be delta_space(paired), the reduced echelon basis: then
    these elements are a basis of its filtration-preserving part, and the
    ones a kernel solve on those positions would return (module docstring).
    With ascending distinct weights the positions are those with u < a.
    """
    check_multiplicity_free(paired.module)
    zero = paired.module.ring.zero.data
    return [
        elem
        for elem in delta_basis
        if all(x == zero for m in elem for u, row in enumerate(m._raw) for x in row[u + 1 :])
    ]


def end_mf_pairing(paired, fil0_basis):
    """Sub-basis of the span of fil0_basis commuting with the semilinear maps.

    Solves A_{στ} Φ_τ = Φ_τ · diag(A_τ) for the coefficients of a combination
    of fil0_basis: one equation per (τ, i, a), one unknown per basis element.
    fil0_basis must be fil0_subspace(paired, delta_space(paired)).

    These are the equations over k, and they are solved over every ring.
    The morphism condition of modules.is_morphism reads
    A_{στ} Φ_τ = Φ_τ · divided(A_τ), whose entry (i, a) also has the terms
    π^{w_u − w_a} Φ_τ[i][u] A_τ[u][a], w_u > w_a; they vanish over k, not
    over W/p^n or k[t]/t^n.  So off a field a returned element need not be
    a morphism.  Checked with is_morphism on the basis cases of the tangent
    tests: 48 of 50 elements are morphisms over W/p², 48 of 48 over k[t]/t²
    and 10 of 10 over fields; the smallest failing case is W(F_9)/9, rank 2,
    ε = −1, f′ = 1, weights (0, 1).  Which equations the tangent count wants
    off a field is open (ROADMAP item 3); the output is left as it is, and
    the tangent tests pin it by digest.
    """
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
    system = Matrix._from_data(ring, rows, len(vecs))
    return [
        _combine(module, vecs, [c.data for c in combo])
        for combo in system.kernel_gens()
    ]


def _count_delta_fil0(paired):
    """(dim Δ, dim Fil^0) of a checked pairing over a field, from the pivots
    of delta_space's rows (module docstring)."""
    k = paired.module.ring
    r = paired.module.rank
    dim_delta = dim_fil0 = 0
    for tau, G in enumerate(paired.gram):
        rows = _delta_rows(k, G, paired.L.epsilon, tau)
        spanning = len(rows)
        pivots = 0
        # row u = r − 1 − b of A is columns b r, …, b r + r − 1; the rows left
        # below the pivots vanish on a finished row of A, which is cut off
        for b in range(r):
            rows, pivot_cols = _gauss_jordan(k, rows, r, forward_only=True)
            pivots += len(pivot_cols)
            # the pivot in column c is at (u, a) = (r − 1 − b, r − 1 − c)
            dim_fil0 += sum(1 for c in pivot_cols if c >= b)
            rows = [row[r:] for row in rows[len(pivot_cols) :]]
        if pivots < spanning:
            raise InternalRankFailure(f"delta space of block {tau} lost rank")
        dim_delta += pivots
    return dim_delta, dim_fil0


def _torus_end_dim(paired):
    """dim End of a checked pairing over a field with distinct weights, as
    the nullity of the torus system (module docstring)."""
    module = paired.module
    k = module.ring
    add, sub, mul = k._add, k._sub, k._mul
    zero, one = k.zero.data, k.one.data
    r = module.rank
    fprime = module.witt_degree
    # d_τ = diag(A_τ) in the Cartan: d_m = sign · t_slot, slot = min(m, r − 1 − m),
    # with sign −1 past the middle when p is odd, where the middle entry is 0;
    # the unknowns t of block τ are columns τ·width + slot
    width = (r + 1) // 2 if k.p == 2 else r // 2
    minus_one = sub(zero, one)
    torus = [
        (m, min(m, r - 1 - m), minus_one if m > r - 1 - m and k.p != 2 else one)
        for m in range(r)
        if m != r - 1 - m or k.p == 2
    ]
    rows = []
    for tau, blk in enumerate(module.blocks):
        stau = (tau + 1) % fprime
        phi = blk.phi._raw
        gram = paired.gram[tau]._raw
        c = paired.L.c[tau].data
        # row m of Φ_τ^{-1} = c_τ^{-1} (G°_τ)^{-1} Φ_τ^T G_{στ} is row r − 1 − m
        # of Φ_τ^T G_{στ} over c_τ G_τ[r − 1 − m][m]
        phit_g = (blk.phi.transpose() * paired.gram[stau])._raw
        terms = []
        for m, slot, sign in torus:
            scale = mul(sign, k._inv(mul(c, gram[r - 1 - m][m])))
            inv_row = [(a, mul(scale, x)) for a, x in enumerate(phit_g[r - 1 - m]) if x != zero]
            terms.append((m, tau * width + slot, inv_row))
        diagonal = {m: (stau * width + slot, sign) for m, slot, sign in torus}
        # X_τ = Φ_τ diag(d_τ) Φ_τ^{-1}: entries (i, a), a >= i, are 0 above
        # the diagonal and d_{στ} on it
        for i in range(r):
            eqs = [[zero] * (fprime * width) for _ in range(i, r)]
            for m, col, inv_row in terms:
                y = phi[i][m]
                if y != zero:
                    for a, x in inv_row:
                        if a >= i:
                            eq = eqs[a - i]
                            eq[col] = add(eq[col], mul(y, x))
            if i in diagonal:
                col, sign = diagonal[i]
                eqs[0][col] = sub(eqs[0][col], sign)
            rows.extend(eqs)
    _, pivot_cols = _gauss_jordan(k, rows, fprime * width, forward_only=True)
    return fprime * width - len(pivot_cols)


def _num_pos_roots(epsilon, rank):
    if epsilon == -1:
        return root_data(GroupType("GSp", rank)).num_pos_roots
    if rank < 2:
        return 0
    return root_data(GroupType("GO", rank)).num_pos_roots


def tangent_report(paired):
    """All four dimensions of the exact sequence plus the root-count check.

    Over a field the four input checks run up front: validate,
    validate_pairing, check_multiplicity_free and check_weight_spread.
    The dimensions are then counted from pivots, dim Δ and dim Fil^0 from
    the elimination of delta_space's spanning rows and dim End from the
    torus system (module docstring); no basis is built.  Over W/p^n and
    k[t]/t^n the three spaces are built by delta_space, fil0_subspace and
    end_mf_pairing, and each check runs in the first space that needs it:
    delta_space validates the module and the pairing, fil0_subspace checks
    for distinct weights, and the weight spread is checked before the end
    space.  On both paths the errors and their order are those of checking
    everything up front, since no count, pick or kernel computation after
    the checks can fail on valid input.
    """
    module = paired.module
    if module.ring.is_field():
        validate(module)
        validate_pairing(paired)
        check_multiplicity_free(module)
        check_weight_spread(module)
        dim_delta, dim_fil0 = _count_delta_fil0(paired)
        dim_end = _torus_end_dim(paired)
    else:
        delta = delta_space(paired)
        fil0 = fil0_subspace(paired, delta)
        check_weight_spread(module)
        dim_delta, dim_fil0 = len(delta), len(fil0)
        dim_end = len(end_mf_pairing(paired, fil0))
    dim_tangent = dim_delta - dim_fil0 + dim_end
    npos = _num_pos_roots(paired.L.epsilon, module.rank)
    return TangentReport(
        dim_pairing_lie=dim_delta,
        dim_fil0=dim_fil0,
        dim_end_mf_pairing=dim_end,
        dim_tangent=dim_tangent,
        formula_check=(dim_tangent - dim_end == module.witt_degree * npos),
    )


def _enumerate_count(paired):
    # paired is valid with distinct weights (tangent_report checked it), and
    # delta_space validates the normal form
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
