"""Independent oracles for the raw-data Matrix layer.

* Differential: every Matrix operation, which runs on raw ring data, equals
  the same computation done entry by entry with RingElem arithmetic.
* Invertibility: the residue-field verdict of is_invertible (and of the
  SingularPhi / NotPerfect checks built on it) equals "inverse() succeeds"
  on every 2x2 matrix over small chain rings.
* The shared Gauss-Jordan: over a field, kernel_gens equals the basis read
  off its reduced echelon form, and the valuation sweep _sweep_kernel on
  small matrices and on hom_mf systems; rank_field is its pivot count; the
  lifting solver agrees with brute force; only inverse and the solver
  invert; the forward-only mode finds the same pivot columns, and its rows
  are those of the whole-row division-free updates.
* The form helper: _form(X, G, Y) equals the entrywise RingElem product
  X^T G Y, and on i <= j with upper=True; scaling equals the entrywise
  product.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flab.cli import main
from flab.errors import InternalRankFailure, InvalidInput, NotPerfect, SingularPhi
from flab.io import dumps_canonical, paired_to_dict
from flab.lifting import _block_solver
from flab.linalg import Matrix, _form, _gauss_jordan, _sweep_kernel
from flab.modules import FLBlock, FLModule, dual, hom_mf, validate
from flab.pairing import LData, PairedFLModule, validate_pairing
from flab.rings import DualNumbersRing, Ring, RingElem, WittRing, make_field, make_ring
from flab.testing import random_fl_module

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(9)
F25 = make_field(25)
Z9 = make_ring("witt", 3, 1, 2)
Z25 = make_ring("witt", 5, 1, 2)
Z27 = make_ring("witt", 3, 1, 3)
W9_2 = make_ring("witt", 3, 2, 2)
D3_2 = make_ring("dual_numbers", 3, 1, 2)
D9_2 = make_ring("dual_numbers", 3, 2, 2)

DIFF_RINGS = (F5, F9, Z27, W9_2, D3_2, D9_2)
ELEMENTS = {ring: list(ring.elements()) for ring in DIFF_RINGS + (Z9, Z25)}


# -- entrywise RingElem references -------------------------------------------


def ring_sum(ring, terms):
    acc = ring.zero
    for t in terms:
        acc = acc + t
    return acc


def ref_product(ring, a_rows, b_rows):
    b_cols = list(zip(*b_rows))
    return tuple(
        tuple(ring_sum(ring, (x * y for x, y in zip(row, col))) for col in b_cols)
        for row in a_rows
    )


def ref_det(ring, rows):
    # Leibniz formula; a square matrix over a local ring is invertible
    # exactly when its determinant is a unit
    n = len(rows)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def span(ring, gens, length):
    """Every R-combination of the generators, as tuples of RingElem."""
    out = {(ring.zero,) * length}
    for g in gens:
        out = {tuple(s + c * x for s, x in zip(v, g)) for v in out for c in ELEMENTS[ring]}
    return out


def draw_matrix(data, ring, n, m):
    pick = st.sampled_from(ELEMENTS[ring])
    return Matrix(ring, [[data.draw(pick) for _ in range(m)] for _ in range(n)], ncols=m)


# -- differential: raw path against RingElem ------------------------------------


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_raw_matrix_ops_match_entrywise_ringelem(ring, data):
    n, m, l = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(3))
    a = draw_matrix(data, ring, n, m)
    a2 = draw_matrix(data, ring, n, m)
    b = draw_matrix(data, ring, m, l)
    c = data.draw(st.sampled_from(ELEMENTS[ring]))
    A, A2, B = a.rows, a2.rows, b.rows
    assert all(isinstance(x, type(c)) for row in A for x in row)
    assert (a * b).rows == ref_product(ring, A, B)
    assert (a + a2).rows == tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(A, A2))
    assert (a - a2).rows == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(A, A2))
    assert (-a).rows == tuple(tuple(-x for x in r) for r in A)
    scaled = tuple(tuple(x * c for x in r) for r in A)
    assert (a * c).rows == scaled and (c * a).rows == scaled
    assert (a * 2).rows == tuple(tuple(x + x for x in r) for r in A)
    assert a.transpose().rows == tuple(zip(*A))
    # the accessors wrap the same entries
    assert [a[i, j] for i in range(n) for j in range(m)] == list(a.entries())
    assert tuple(a.row(i) for i in range(n)) == A
    assert a == Matrix(ring, A) and hash(a) == hash(Matrix(ring, A))


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_inverse_and_kernel_match_entrywise_ringelem(ring, data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    s = draw_matrix(data, ring, n, n)
    S = s.rows
    unit_det = ring.is_unit(ref_det(ring, S))
    assert s.is_invertible() == unit_det
    if unit_det:
        inv = s.inverse().rows
        ident = Matrix.identity(ring, n).rows
        assert ref_product(ring, S, inv) == ident == ref_product(ring, inv, S)
    else:
        with pytest.raises(InvalidInput):
            s.inverse()
    m = data.draw(st.integers(min_value=1, max_value=3))
    a = draw_matrix(data, ring, data.draw(st.integers(min_value=1, max_value=2)), m)
    gens = a.kernel_gens()
    zero_col = ((ring.zero,),) * a.nrows
    for g in gens:
        assert ref_product(ring, a.rows, tuple((x,) for x in g)) == zero_col
    if ring.size**m <= 729:
        kernel = {
            v
            for v in itertools.product(ELEMENTS[ring], repeat=m)
            if ref_product(ring, a.rows, tuple((x,) for x in v)) == zero_col
        }
        assert span(ring, gens, m) == kernel


# -- the residue-field verdict against inverse() --------------------------------

# a stratified tenth of Z/25 per entry: zero, multiples of 5 and units in
# every residue class, some with two lifts; 10^4 matrices instead of 25^4
Z25_ENTRIES = tuple(Z25.from_int(c) for c in (0, 5, 10, 1, 6, 2, 3, 4, 19, 24))


def inverse_succeeds(m):
    try:
        m.inverse()
    except InvalidInput:
        return False
    return True


@pytest.mark.parametrize(
    "ring, entries",
    [(Z9, ELEMENTS[Z9]), (D3_2, ELEMENTS[D3_2]), (Z25, Z25_ENTRIES)],
    ids=("Z/9", "F_3[t]/t^2", "Z/25"),
)
def test_residue_verdict_equals_inverse_on_2x2(ring, entries):
    identity = Matrix.identity(ring, 2)
    L = LData(1, (0,), (ring.one,))
    seen = {True: 0, False: 0}
    for a, b, c, d in itertools.product(entries, repeat=4):
        m = Matrix(ring, [[a, b], [c, d]])
        ok = inverse_succeeds(m)
        seen[ok] += 1
        assert m.is_invertible() == ok, m
        module = FLModule(ring, (0, 0), [FLBlock((0, 0), m)])
        if ok:
            validate(module)
        else:
            with pytest.raises(SingularPhi, match="^block 0$"):
                validate(module)
        if b == c:
            # weights 0 against s = 0 and Phi = 1: only perfectness can fail
            plain = FLModule(ring, (0, 0), [FLBlock((0, 0), identity)])
            paired = PairedFLModule(plain, L, (m,))
            if ok:
                validate_pairing(paired)
            else:
                with pytest.raises(NotPerfect, match="^block 0$"):
                    validate_pairing(paired)
    assert seen[True] and seen[False]


@pytest.mark.parametrize("ring", (W9_2, D9_2), ids=repr)
def test_singular_phi_and_gram_keep_their_names_and_messages(ring, tmp_path, capsys):
    pi, one, zero = ring.pi(), ring.one, ring.zero
    good = Matrix.identity(ring, 2)
    # nonzero over the ring, singular on the residue field
    singular = Matrix(ring, [[pi, one], [zero, pi]])
    module = FLModule(ring, (0, 0), [FLBlock((0, 0), good), FLBlock((0, 0), singular)])
    with pytest.raises(SingularPhi) as exc:
        validate(module)
    assert (type(exc.value).__name__, str(exc.value)) == ("SingularPhi", "block 1")

    plain = FLModule(ring, (0, 0), [FLBlock((0, 0), good)] * 2)
    gram = Matrix(ring, [[pi, zero], [zero, one]])
    paired = PairedFLModule(plain, LData(1, (0, 0), (one, one)), (good, gram))
    with pytest.raises(NotPerfect) as exc:
        validate_pairing(paired)
    assert (type(exc.value).__name__, str(exc.value)) == ("NotPerfect", "block 1")

    path = tmp_path / "not_perfect.json"
    path.write_text(dumps_canonical(paired_to_dict(paired)), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "NotPerfect block 1\n"


# -- the shared Gauss-Jordan ------------------------------------------------------


def random_matrix(ring, n, m, rng):
    return Matrix(ring, [[ring.random_element(rng) for _ in range(m)] for _ in range(n)])


def field_matrices(ring, rng):
    """Random, rank-deficient and zero-row matrices over a field."""
    out = [Matrix.zero(ring, 2, 3)]
    for n, m in ((1, 1), (1, 4), (2, 3), (3, 3), (3, 5), (4, 2), (4, 6)):
        out.append(random_matrix(ring, n, m, rng))
        r = rng.randrange(1, min(n, m) + 1)
        out.append(random_matrix(ring, n, r, rng) * random_matrix(ring, r, m, rng))
        rows = list(random_matrix(ring, n, m, rng).rows)
        rows[rng.randrange(n)] = (ring.zero,) * m
        out.append(Matrix(ring, rows))
    return out


def echelon_kernel_basis(a):
    """Null-space basis read off the reduced echelon form: per free column f,
    ascending, 1 at f, 0 at the other free columns, -R[i][f] at pivot i.

    The textbook reduction on ring elements, apart from _gauss_jordan: each
    column pivots on its first nonzero entry at or below the next pivot
    position, the pivot row is divided by its pivot, and the column is
    cleared in every other row.  The reduced form is unique, so the pivot
    choice does not change the basis.
    """
    ring = a.ring
    rows = [list(row) for row in a.rows]
    pivot_cols = []
    for col in range(a.ncols):
        top = len(pivot_cols)
        sel = next((i for i in range(top, len(rows)) if rows[i][col] != ring.zero), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        s = ring.one / rows[top][col]
        rows[top] = [s * x for x in rows[top]]
        for i, row in enumerate(rows):
            c = row[col]
            if i != top and c != ring.zero:
                rows[i] = [x - c * y for x, y in zip(row, rows[top])]
        pivot_cols.append(col)
    basis = []
    for f in range(a.ncols):
        if f in pivot_cols:
            continue
        v = [ring.zero] * a.ncols
        v[f] = ring.one
        for i, col in enumerate(pivot_cols):
            v[col] = -rows[i][f]
        basis.append(tuple(x.data for x in v))
    return basis, len(pivot_cols)


# every matrix of these shapes over the smallest fields, where the random
# draws above rarely meet the rank-deficient patterns
EXHAUSTIVE_SHAPES = {F3: ((3, 3), (2, 4)), F2: ((3, 3), (2, 4), (3, 4))}


def all_matrices(ring):
    elements = [x.data for x in ring.elements()]
    for n, m in EXHAUSTIVE_SHAPES[ring]:
        for entries in itertools.product(elements, repeat=n * m):
            yield Matrix._from_data(ring, [entries[i * m : (i + 1) * m] for i in range(n)], m)


def field_kernel_cases(ring):
    if ring in EXHAUSTIVE_SHAPES:
        return all_matrices(ring)
    rng = random.Random(7)
    return (a for _ in range(20) for a in field_matrices(ring, rng))


@pytest.mark.parametrize("ring", (F5, F9, F25, F3, F2), ids=repr)
def test_field_kernel_is_the_reduced_echelon_basis(ring):
    # delta_space's closed form rests on this: it reproduces the basis
    # kernel_gens gives for the Lie system (tangent module docstring)
    for a in field_kernel_cases(ring):
        basis, rank = echelon_kernel_basis(a)
        assert [tuple(x.data for x in g) for g in a.kernel_gens()] == basis
        assert a.rank_field() == rank == a.ncols - len(basis)
        zero_col = Matrix.zero(ring, a.nrows, 1)
        for v in basis:
            assert a * Matrix._from_data(ring, [[x] for x in v], 1) == zero_col


@pytest.mark.parametrize("ring", (F5, F9, F25, F3, F2), ids=repr)
def test_field_kernel_equals_the_sweep(ring):
    # over a field kernel_gens reads the reduced rows of _gauss_jordan; the
    # valuation sweep it used before is the differential oracle
    for a in field_kernel_cases(ring):
        assert a.kernel_gens() == _sweep_kernel(a), a


def test_hom_system_kernels_equal_the_sweep(monkeypatch):
    # the graded systems hom_mf solves over a field for Hom(M^vv, M) and
    # Hom(M, M^vv), M random with distinct weights in [0, 3] and
    # L = (1, (4, ...), c), as in the dual ops of the module_algebra benchmark
    systems = []
    kernel_gens = Matrix.kernel_gens

    def recording(self):
        systems.append(self)
        return kernel_gens(self)

    monkeypatch.setattr(Matrix, "kernel_gens", recording)
    rng = random.Random(17)
    for ring, fprime in ((F5, 1), (make_field(7), 1), (F9, 2), (F25, 1), (F25, 2)):
        for rank in (1, 2, 3, 4):
            for _ in range(3):
                module = random_fl_module(
                    rng, ring, rank, witt_degree=fprime, distinct_weights=True
                )
                L = LData(1, (4,) * fprime, (ring.random_unit(rng),) * fprime)
                double_dual = dual(dual(module, L), L)
                assert hom_mf(double_dual, module).dimension >= 1
                hom_mf(module, double_dual)
    monkeypatch.undo()
    assert len(systems) == 120
    for system in systems:
        assert system.kernel_gens() == _sweep_kernel(system)


def dot(ring, u, v):
    return ring_sum(ring, (a * b for a, b in zip(u, v)))


def leftmost_independent_columns(ring, rows, width):
    # column j is a pivot when it is outside the span of the columns before it
    cols = [tuple(row[j] for row in rows) for j in range(width)]
    pivots = []
    for j in range(width):
        spanned = {
            tuple(dot(ring, coeffs, [col[i] for col in cols]) for i in range(len(rows)))
            for coeffs in itertools.product(ELEMENTS[ring], repeat=j)
        }
        if cols[j] not in spanned:
            pivots.append(j)
    return pivots


@pytest.mark.parametrize("ring", (F5, F9), ids=repr)
def test_block_solver_against_brute_force(ring):
    rng = random.Random(11)
    solved = 0
    for _ in range(60):
        width = rng.randrange(1, 4)
        height = rng.randrange(1, width + 1)
        rows = [list(row) for row in random_matrix(ring, height, width, rng).rows]
        if rng.random() < 0.3:
            # a repeated leading column makes the pivots skip one
            for row in rows:
                row[min(1, width - 1)] = row[0]
        rhs = [ring.random_element(rng) for _ in range(height)]
        raw = [[x.data for x in row] for row in rows]
        raw_rhs = [x.data for x in rhs]
        pivots = leftmost_independent_columns(ring, rows, width)
        if len(pivots) < height:
            with pytest.raises(InternalRankFailure, match="lost full row rank"):
                _block_solver(ring, raw, width)
            continue
        x = tuple(RingElem(ring, d) for d in _block_solver(ring, raw, width)(raw_rhs))
        solutions = [
            v
            for v in itertools.product(ELEMENTS[ring], repeat=width)
            if all(dot(ring, row, v) == c for row, c in zip(rows, rhs))
        ]
        free = [j for j in range(width) if j not in pivots]
        assert [v for v in solutions if all(v[j] == ring.zero for j in free)] == [x]
        solved += 1
    assert solved > 20


@pytest.fixture
def inv_calls(monkeypatch):
    calls = []
    inv = Ring._inv

    def counting_inv(self, a):
        calls.append(self)
        return inv(self, a)

    monkeypatch.setattr(Ring, "_inv", counting_inv)
    return calls


def test_only_inverse_inverts_one_pivot_per_row(inv_calls):
    # every inversion runs Ring._inv, which no ring family overrides
    assert all("_inv" not in vars(family) for family in (WittRing, DualNumbersRing))
    # calls on the matrix ring only: W(F_9)/9 and F_9[t]/t^2 invert a unit
    # through an inversion in the residue field
    rng = random.Random(5)
    for ring in (F25, Z9, W9_2, D9_2):
        for n in (1, 2, 3, 4):
            m = Matrix.identity(ring, n) + ring.pi() * random_matrix(ring, n, n, rng)
            wide = random_matrix(ring, n, n + 1, rng)
            del inv_calls[:]
            assert m.is_invertible()
            wide.is_invertible()
            if ring.is_field():
                wide.rank_field()
            assert inv_calls == []
            inv = m.inverse()
            assert inv_calls.count(ring) == n
            assert m * inv == Matrix.identity(ring, n) == inv * m
    # over Z/9 the first nonzero entry 3 of column 0 is no unit: the pivot
    # is the 1 below it
    m = Matrix(Z9, [[3, 1], [1, 1]])
    del inv_calls[:]
    assert m.inverse() == Matrix(Z9, [[5, 4], [4, 6]])
    assert len(inv_calls) == 2


def test_forward_only_finds_the_same_pivot_columns():
    rng = random.Random(9)
    for ring in (F5, F9, Z9, Z27, W9_2, D3_2):
        for n, m in ((1, 1), (2, 3), (3, 3), (3, 5), (4, 2), (4, 4)):
            for a in (
                random_matrix(ring, n, m, rng),
                random_matrix(ring, n, 1, rng) * random_matrix(ring, 1, m, rng),
                Matrix.zero(ring, n, m),
            ):
                full = _gauss_jordan(ring, [list(row) for row in a._raw], m)[1]
                forward = _gauss_jordan(ring, [list(row) for row in a._raw], m, True)[1]
                assert forward == full


# -- the form helper --------------------------------------------------------------


def monomial_matrix(ring, n, rng):
    """A random permutation matrix with random unit entries: one nonzero per
    row and column, like a unit multiple of the standard form."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[ring.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = ring.random_unit(rng)
    return Matrix(ring, rows)


def form_cases(ring, rng):
    """(X, G, Y) over ring: dense, monomial and zero G, square and non-square
    X and Y, zero X and signed standard forms."""
    cases = []
    for n, m, k, l in ((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4),
                       (3, 2, 2, 4), (2, 4, 3, 1), (4, 1, 2, 3)):
        X = random_matrix(ring, n, m, rng)
        Y = random_matrix(ring, k, l, rng)
        cases.append((X, random_matrix(ring, n, k, rng), Y))
        cases.append((X, Matrix.zero(ring, n, k), Y))
        cases.append((Matrix.zero(ring, n, m), random_matrix(ring, n, k, rng), Y))
        if n == k:
            cases.append((X, monomial_matrix(ring, n, rng), Y))
            cases.append((X, monomial_matrix(ring, n, rng), monomial_matrix(ring, n, rng)))
            cases.append((X, -Matrix.identity(ring, n), Y))
    for r in (2, 3, 4):
        X = random_matrix(ring, r, r, rng)
        signs = [ring.one if a < r // 2 else -ring.one for a in range(r)]
        antidiag = Matrix(ring, [
            [signs[a] if b == r - 1 - a else ring.zero for b in range(r)] for a in range(r)
        ])
        cases.append((X, antidiag, X))
        cases.append((X, ring.random_unit(rng) * antidiag, X))
    return cases


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
def test_form_equals_the_general_product(ring):
    rng = random.Random(11)
    # entrywise, not through Matrix.__mul__, which runs on the same ring._dot
    for X, G, Y in form_cases(ring, rng):
        expected = ref_product(ring, ref_product(ring, X.transpose().rows, G.rows), Y.rows)
        full = _form(X, G, Y)
        assert Matrix._from_data(ring, full, Y.ncols).rows == expected
        upper = _form(X, G, Y, upper=True)
        for i in range(X.ncols):
            for j in range(Y.ncols):
                if i <= j:
                    assert upper[i][j] == expected[i][j].data
                else:
                    assert upper[i][j] == ring.zero.data


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
def test_scaling_equals_the_entrywise_product(ring):
    rng = random.Random(13)
    scalars = [ring.zero, ring.one, -ring.one, ring.pi()] + [
        ring.random_element(rng) for _ in range(4)
    ]
    for a in (
        random_matrix(ring, 3, 2, rng),
        monomial_matrix(ring, 3, rng),
        Matrix.zero(ring, 2, 3),
        Matrix.identity(ring, 4),
    ):
        for c in scalars:
            expected = tuple(tuple(x * c for x in row) for row in a.rows)
            assert (c * a).rows == expected and (a * c).rows == expected
        for c in (0, 1, -1, 2):
            c_elem = ring.from_int(c)
            assert (c * a).rows == tuple(tuple(x * c_elem for x in row) for row in a.rows)
