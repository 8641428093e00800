"""Lifting paired modules through small surjections, one level at a time.

Given a valid paired module over R in standard form (Gram ω_τ · std) and a
small surjection R′ ↠ R with one-dimensional kernel I (I² = 0, m_{R′} I = 0),
a lift is Φ′_τ = C_τ + Δ_τ with C_τ the canonical entrywise lift and Δ_τ
supported in I.  The pairing axioms reduce to the exact matrix equation

    Δ_τ^T S C_τ + C_τ^T S Δ_τ = D_τ := λ′_τ S − C_τ^T S C_τ

per block, with S the standard form and λ′_τ = c′_τ ω′_τ / ω′_{στ} built
from canonical lifts.  D_τ lands in I because the base satisfies the axioms;
identifying I with the residue field k turns each block into a linear system
over k whose unknowns are the r² entries of Δ_τ.

S enters the system once, as functionals[τ] = S·C_τ over k: column b of
S·C_τ is the functional x ↦ x^T S C_b, since
Δ_a^T S C_b = Σ_u Δ[u][a] (S·C)[u][b].
Grouping equations by their first index a (descending) makes the system
block-triangular with full-row-rank diagonal blocks (rows are the
independent functionals S·C_b), so back-substitution always succeeds; for
orthogonal pairings the diagonal equations (a, a) are included, each with a
factor 2 (a unit, p odd).  Since S^T = ε S, the term of equation (a, b) in
an already solved column b is C_a^T S Δ_b = ε·(column a of S·C)·Δ_b, which
moves to the right-hand side.
"""

from __future__ import annotations

from .errors import InternalRankFailure, InvalidInput, RingMismatch
from .linalg import Matrix, _form, _gauss_jordan
from .modules import (
    FLBlock,
    FLModule,
    check_multiplicity_free,
    check_weight_spread,
    validate,
)
from .pairing import (
    LData,
    PairedFLModule,
    _map_paired,
    _normalize,
    normalize_standard,
    reduce_paired,
    standard_gram,
    validate_pairing,
)
from .rings import make_ring, make_small_surjection


class LiftProblem:
    """A valid paired module in standard form plus the small surjection to
    lift through.

    Construction checks the base once: module and pairing axioms, distinct
    weights per block and a weight spread of at most (p-2)/2.  It then stores
    the standard form of the base (each Gram ω_τ · S), so the lift normalizes
    nothing; a base already in standard form is stored as it is.
    """

    __slots__ = ("base", "surj")

    def __init__(self, base, surj):
        if base.module.ring != surj.target:
            raise RingMismatch("base must live over the target of the surjection")
        validate(base.module)
        validate_pairing(base)
        check_multiplicity_free(base.module)
        check_weight_spread(base.module)
        self.base = _normalize(base).pairing
        self.surj = surj


def _checked_problem(base, surj):
    # a LiftProblem whose base the caller has already validated and put in
    # standard form
    prob = object.__new__(LiftProblem)
    prob.base = base
    prob.surj = surj
    return prob


class CorrectionSystem:
    """The per-block linear systems determining the correction Δ.

    lifts[τ] is the canonical lift C_τ of the normalized Φ_τ, and coeff[τ]
    its residue, which is all of C_τ the linear operator sees since
    m_{R′} I = 0; functionals[τ] = S·coeff[τ] over k, whose column b is the
    functional x ↦ x^T S C_b; defect[τ] holds the defect constants as
    residue-field scalars under the kernel identification.
    """

    __slots__ = (
        "lifts",
        "omega_lift",
        "c_lift",
        "defect",
        "coeff",
        "functionals",
        "epsilon",
        "rank",
        "kring",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def witt_degree(self):
        return len(self.coeff)

    def diagonal_block(self, tau, a):
        """Matrix of the equations with first index a acting on Δ column a:
        row b is column b of functionals[τ], doubled when b = a.

        These are the blocks solve_correction solves."""
        F = self.functionals[tau]._raw
        add = self.kring._add
        rows = []
        start = a if self.epsilon == 1 else a + 1
        for b in range(start, self.rank):
            col = [row[b] for row in F]
            rows.append([add(x, x) for x in col] if b == a else col)
        return Matrix._from_data(self.kring, rows, self.rank)


def build_correction_system(prob):
    """Lift the base canonically and assemble per-block defects and
    coefficients over the residue field.

    prob checked its base and put it in standard form when it was built, so
    ω_τ is entry (0, r-1) of Gram τ, where the standard form S is 1."""
    surj = prob.surj
    upper = surj.source
    base = prob.base
    module = base.module
    ring = module.ring
    fprime = module.witt_degree
    rank = module.rank
    eps = base.L.epsilon
    lifts = tuple(
        blk.phi._map_data(lambda x: upper._lift_data(ring, x), upper)
        for blk in module.blocks
    )
    omega_lift = tuple(upper.lift_from(G[0, rank - 1]) for G in base.gram)
    c_lift = tuple(upper.lift_from(c) for c in base.L.c)
    lambda_lift = tuple(
        c_lift[tau] * omega_lift[tau] * upper.inv(omega_lift[(tau + 1) % fprime])
        for tau in range(fprime)
    )
    std_upper = standard_gram(upper, rank, eps)
    uzero = upper.zero.data
    kring = upper.residue_ring()
    std_k = standard_gram(kring, rank, eps)
    defects = []
    coeffs = []
    for tau in range(fprime):
        C = lifts[tau]
        dmat = (
            lambda_lift[tau] * std_upper
            - Matrix._from_data(upper, _form(C, std_upper, C), rank)
        )._raw
        # both triangles: D^T = ε D entry by entry
        for a, drow in enumerate(dmat):
            for b, x in enumerate(drow):
                if dmat[b][a] != (x if eps == 1 else upper._sub(uzero, x)):
                    raise InternalRankFailure(f"defect of block {tau} lost ε-symmetry")
        rows = []
        for a, drow in enumerate(dmat):
            row = []
            for b, x in enumerate(drow):
                try:
                    row.append(surj._kernel_data(x))
                except InvalidInput as exc:
                    raise InternalRankFailure(
                        f"defect entry ({a + 1}, {b + 1}) of block {tau} "
                        "is not in the kernel"
                    ) from exc
            rows.append(row)
        defects.append(Matrix._from_data(kring, rows, rank))
        coeffs.append(module.blocks[tau].phi._map_data(ring._residue_data, kring))
    return CorrectionSystem(
        lifts=lifts,
        omega_lift=omega_lift,
        c_lift=c_lift,
        defect=tuple(defects),
        coeff=tuple(coeffs),
        functionals=tuple(std_k * C for C in coeffs),
        epsilon=eps,
        rank=rank,
        kring=kring,
    )


def _solve_full_row_rank(kring, rows, rhs, width):
    """Solution of a full-row-rank system on raw data by Gauss-Jordan on
    [T | rhs]: the pivots are the leftmost independent columns and the free
    coordinates stay zero."""
    work = [list(row) + [val] for row, val in zip(rows, rhs)]
    work, pivot_cols = _gauss_jordan(kring, work, width)
    if len(pivot_cols) != len(work):
        raise InternalRankFailure("correction block lost full row rank")
    x = [kring.zero.data] * width
    for row, col in zip(work, pivot_cols):
        x[col] = row[width]
    return x


def solve_correction(system):
    """Per-block Δ over k with T(Δ) equal to the defects, by descending
    back-substitution on the column blocks: equation (a, b), b > a, moves
    C_a^T S Δ_b = ε·(column a of S·C)·Δ_b to its right-hand side."""
    k = system.kring
    add, sub = k._add, k._sub
    kzero = k.zero.data
    r = system.rank
    # subtracting ε·x is adding x when ε = -1
    move = sub if system.epsilon == 1 else add
    deltas = []
    for tau in range(system.witt_degree):
        fcols = system.functionals[tau].transpose()._raw
        dmat = system.defect[tau]._raw
        cols = {}
        for a in range(r - 1, -1, -1):
            block = system.diagonal_block(tau, a)
            rhs = []
            for b in range(r - block.nrows, r):
                d = dmat[a][b]
                rhs.append(d if b == a else move(d, k._dot(fcols[a], cols[b])))
            cols[a] = (
                _solve_full_row_rank(k, block._raw, rhs, r) if rhs else [kzero] * r
            )
        deltas.append(
            Matrix._from_data(k, [[cols[a][u] for a in range(r)] for u in range(r)], r)
        )
    return tuple(deltas)


def lift_small(prob):
    """One-step lift: returns P′ over the source ring, in standard form, with
    reduce_paired(P′) equal to prob.base, the standard form of the base,
    bit-for-bit.

    The result is checked once: module axioms, pairing axioms and the
    reduction to the base."""
    system = build_correction_system(prob)
    deltas = solve_correction(system)
    surj = prob.surj
    upper = surj.source
    base = prob.base
    module = base.module
    rank = system.rank
    eps = system.epsilon
    add = upper._add
    kzero = system.kring.zero.data
    blocks = []
    for tau in range(system.witt_degree):
        rows = [
            [add(c, surj._embed_data(d)) if d != kzero else c for c, d in zip(crow, drow)]
            for crow, drow in zip(system.lifts[tau]._raw, deltas[tau]._raw)
        ]
        blocks.append(
            FLBlock(module.blocks[tau].weights, Matrix._from_data(upper, rows, rank))
        )
    lifted_module = FLModule(upper, module.bounds, blocks)
    std_upper = standard_gram(upper, rank, eps)
    lifted = PairedFLModule(
        lifted_module,
        LData(eps, base.L.s, system.c_lift),
        tuple(system.omega_lift[tau] * std_upper for tau in range(system.witt_degree)),
    )
    validate(lifted_module)
    validate_pairing(lifted)
    if reduce_paired(lifted, surj) != base:
        raise InternalRankFailure("lift does not reduce to the normalized base")
    return lifted


def lift_tower(base, n, family="witt"):
    """Chain of lifts over levels 1..n of one ring family.

    The base must live over the residue field; it is normalized first, so the
    chain starts at its standard form and every successive reduction is exact.
    normalize_standard validates the base pairing and is the only
    normalization of the tower: each lift_small returns Grams ω′_τ · S, so
    every later stage is in standard form by construction.  For n >= 2 the
    other LiftProblem checks run once on the start, and each lift_small
    checks only its result, which is the next level's base.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInput("tower depth must be a positive integer")
    if family not in ("witt", "dual_numbers"):
        raise InvalidInput(f"unknown ring family {family!r}")
    ring = base.module.ring
    if not ring.is_field():
        raise InvalidInput("tower base must live over the residue field")
    start = normalize_standard(base).pairing
    level1 = make_ring(family, ring.p, ring.f, 1)
    if level1 != ring:
        # the residue field as the level-1 ring of the family
        start = _map_paired(start, lambda x: level1._lift_data(ring, x), level1)
    if n > 1:
        # normalize_standard has checked the pairing and the distinct weights
        validate(start.module)
        check_weight_spread(start.module)
    chain = [start]
    for level in range(2, n + 1):
        upper = make_ring(family, ring.p, ring.f, level)
        surj = make_small_surjection(upper)
        chain.append(lift_small(_checked_problem(chain[-1], surj)))
    return chain
