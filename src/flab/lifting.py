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

The operator Δ ↦ Δ^T S C + C^T S Δ sees only the residue C̄ of Φ, the same
at every level, so a tower builds and eliminates it once (_ResidueOperator).
Each stage is checked to reduce exactly to the one below, and reduction is a
ring map, so the axioms of a tower's top stage imply those of all its stages.
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

    __slots__ = ("base", "surj", "_operator")

    def __init__(self, base, surj):
        if base.module.ring != surj.target:
            raise RingMismatch("base must live over the target of the surjection")
        validate(base.module)
        validate_pairing(base)
        check_multiplicity_free(base.module)
        check_weight_spread(base.module)
        self.base = _normalize(base).pairing
        self.surj = surj
        self._operator = None


def _checked_problem(base, surj, operator):
    # a LiftProblem whose base the caller has checked and normalized
    prob = object.__new__(LiftProblem)
    prob.base, prob.surj, prob._operator = base, surj, operator
    return prob


def _block_solver(kring, rows, width):
    """Solution map rhs ↦ x of a full-row-rank system T x = rhs over a field:
    one Gauss-Jordan on [T | I] keeps the pivot columns and the rows E that I
    becomes, and x[pivot_cols[i]] = E_i · rhs, free coordinates zero.  This
    is Gauss-Jordan on [T | rhs] byte for byte: the pivot search reads only
    T, so both get the same row operations, and rhs ends as E·rhs."""
    zero, one, dot, m = kring.zero.data, kring.one.data, kring._dot, len(rows)
    work = [list(row) + [zero] * i + [one] + [zero] * (m - 1 - i) for i, row in enumerate(rows)]
    work, pivot_cols = _gauss_jordan(kring, work, width)
    if len(pivot_cols) != m:
        raise InternalRankFailure("correction block lost full row rank")
    ops = {col: row[width:] for col, row in zip(pivot_cols, work)}
    return lambda rhs: [dot(ops[j], rhs) if j in ops else zero for j in range(width)]


def _diagonal_rows(kring, columns, eps, a):
    # diagonal block (τ, a) from the columns of S·C̄_τ (diagonal_block)
    head = [[kring._add(x, x) for x in columns[a]]] if eps == 1 else []
    return head + list(columns[a + 1 :])


class _ResidueOperator:
    """The operator Δ ↦ Δ^T S C̄ + C̄^T S Δ of a lift, eliminated: coeff[τ] is
    the residue C̄_τ of Φ_τ, functionals[τ] = S·C̄_τ with columns columns[τ],
    and solvers[τ][a] solves diagonal block (τ, a).  Row u of S·C̄ is
    C̄[r-1-u], negated when ε = -1 and u >= r/2 (standard_gram)."""

    __slots__ = ("coeff", "functionals", "columns", "solvers")

    def __init__(self, module, eps):
        ring, r = module.ring, module.rank
        k = ring.residue_ring()
        self.coeff = tuple(blk.phi._map_data(ring._residue_data, k) for blk in module.blocks)
        flip = [1] * r if eps == 1 else [1] * (r // 2) + [-1] * (r // 2)
        self.functionals = tuple(
            Matrix._from_data(k, [
                row if sign == 1 else [k._sub(k.zero.data, x) for x in row]
                for sign, row in zip(flip, C._raw[::-1])
            ], r)
            for C in self.coeff
        )
        self.columns = tuple(F.transpose()._raw for F in self.functionals)
        self.solvers = tuple(
            tuple(_block_solver(k, _diagonal_rows(k, cols, eps, a), r) for a in range(r))
            for cols in self.columns
        )


class CorrectionSystem:
    """The per-block linear systems determining the correction Δ.

    lifts[τ] is the canonical lift C_τ of the normalized Φ_τ, and coeff[τ]
    its residue, which is all of C_τ the linear operator sees since
    m_{R′} I = 0; functionals[τ] = S·coeff[τ] over k, whose column b is the
    functional x ↦ x^T S C_b; defect[τ] holds the defect constants as
    residue-field scalars under the kernel identification.  coeff and
    functionals are those of the residue operator.
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
        "_operator",
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
        rows = _diagonal_rows(self.kring, self._operator.columns[tau], self.epsilon, a)
        return Matrix._from_data(self.kring, rows, self.rank)


def build_correction_system(prob):
    """Lift the base canonically and assemble per-block defects and
    coefficients over the residue field.

    prob checked its base and put it in standard form when it was built, so
    ω_τ is entry (0, r-1) of Gram τ, where the standard form S is 1.  The
    residue operator is prob's when it carries one, else built here."""
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
    op = prob._operator or _ResidueOperator(module, eps)
    defects = []
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
    return CorrectionSystem(
        lifts=lifts,
        omega_lift=omega_lift,
        c_lift=c_lift,
        defect=tuple(defects),
        coeff=op.coeff,
        functionals=op.functionals,
        epsilon=eps,
        rank=rank,
        kring=kring,
        _operator=op,
    )


def solve_correction(system):
    """Per-block Δ over k with T(Δ) equal to the defects, by descending
    back-substitution on the column blocks: equation (a, b), b > a, moves
    C_a^T S Δ_b = ε·(column a of S·C)·Δ_b to its right-hand side, and the
    eliminated diagonal block (τ, a) maps the right-hand side to Δ_a."""
    k = system.kring
    r = system.rank
    # subtracting ε·x is adding x when ε = -1
    move = k._sub if system.epsilon == 1 else k._add
    deltas = []
    for tau in range(system.witt_degree):
        fcols = system._operator.columns[tau]
        dmat = system.defect[tau]._raw
        cols = {}
        for a in range(r - 1, -1, -1):
            rhs = []
            for b in range(a if system.epsilon == 1 else a + 1, r):
                d = dmat[a][b]
                rhs.append(d if b == a else move(d, k._dot(fcols[a], cols[b])))
            cols[a] = system._operator.solvers[tau][a](rhs)
        deltas.append(Matrix._from_data(k, [cols[a] for a in range(r)], r).transpose())
    return tuple(deltas)


def _lift_step(prob):
    # lift_small without the axiom checks of its result (lift_tower)
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
    if reduce_paired(lifted, surj) != base:
        raise InternalRankFailure("lift does not reduce to the normalized base")
    return lifted


def lift_small(prob):
    """One-step lift: returns P′ over the source ring, in standard form, with
    reduce_paired(P′) equal to prob.base, the standard form of the base,
    bit-for-bit.

    The result is checked once: the reduction to the base, module axioms and
    pairing axioms."""
    lifted = _lift_step(prob)
    validate(lifted.module)
    validate_pairing(lifted)
    return lifted


def lift_tower(base, n, family="witt"):
    """Chain of lifts over levels 1..n of one ring family.

    The base must live over the residue field; it is normalized first, so the
    chain starts at its standard form and every successive reduction is exact.
    Each lift returns Grams ω′_τ · S, so every later stage is in standard form
    by construction.  n = 1 returns normalize_standard of the base.  For
    n >= 2 the base and the start are checked once, one residue operator
    serves every stage, and only the top stage, lifted by lift_small, has its
    axioms checked, which certifies the stages below (module docstring).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInput("tower depth must be a positive integer")
    if family not in ("witt", "dual_numbers"):
        raise InvalidInput(f"unknown ring family {family!r}")
    ring = base.module.ring
    if not ring.is_field():
        raise InvalidInput("tower base must live over the residue field")
    if n == 1:
        start = normalize_standard(base).pairing
    else:
        validate_pairing(base)
        check_multiplicity_free(base.module)
        start = _normalize(base).pairing
    level1 = make_ring(family, ring.p, ring.f, 1)
    if level1 != ring:
        # the residue field as the level-1 ring of the family
        start = _map_paired(start, lambda x: level1._lift_data(ring, x), level1)
    chain = [start]
    if n > 1:
        validate(start.module)
        check_weight_spread(start.module)
        operator = _ResidueOperator(start.module, start.L.epsilon)
    for level in range(2, n + 1):
        upper = make_ring(family, ring.p, ring.f, level)
        prob = _checked_problem(chain[-1], make_small_surjection(upper), operator)
        chain.append((lift_small if level == n else _lift_step)(prob))
    return chain
