"""Cyclic modules, tensor decomposition, and summand embeddings."""

from __future__ import annotations

import itertools
from math import lcm

import pytest

from flab import errors
from flab.modules import hom_mf, is_morphism, tensor, validate
from flab.rings import make_field
from flab.linalg import Matrix
from flab.simples import (
    SimpleSpec,
    _build_cyclic,
    _check_embedding,
    all_embeddings,
    build_simple,
    change_of_basis,
    minimal_period,
    summand_embedding,
    tensor_decompose,
)


def test_minimal_period_frozen():
    assert minimal_period((1, 1)) == 1
    assert minimal_period((0, 1, 0, 1)) == 2
    assert minimal_period((0, 1, 2)) == 3
    assert minimal_period((4,)) == 1
    assert minimal_period((0, 1, 0, 2)) == 4
    with pytest.raises(errors.InvalidInput):
        minimal_period(())


def test_minimal_period_matches_divisor_scan():
    for n in range(1, 9):
        for values in itertools.product(range(3), repeat=n):
            expected = next(
                d
                for d in range(1, n + 1)
                if n % d == 0 and all(values[r] == values[r % d] for r in range(n))
            )
            assert minimal_period(values) == expected, values


def test_simple_spec_requires_minimal_period():
    spec = SimpleSpec(2, (0, 1))
    assert spec.h == 2 and spec.i == (0, 1)
    with pytest.raises(errors.NonMinimalPeriod):
        SimpleSpec(4, (0, 1, 0, 1))
    with pytest.raises(errors.NonMinimalPeriod):
        SimpleSpec(2, (1, 1))
    with pytest.raises(errors.InvalidInput):
        SimpleSpec(3, (0, 1))


def test_build_simple_frozen():
    m = build_simple(SimpleSpec(1, (3,)), 5)
    assert m.rank == 1
    assert m.blocks[0].weights == (3,)
    assert m.blocks[0].phi[0, 0] == make_field(5).one

    f4 = make_field(4)
    m = build_simple(SimpleSpec(2, (0, 1)), 4)
    assert m.rank == 2
    assert m.bounds == (0, 1)
    # e_0 (weight 0) maps to e_1, e_1 (weight 1) maps to e_0.
    assert [[int(bool(m.blocks[0].phi[u, a])) for a in range(2)] for u in range(2)] == [
        [0, 1],
        [1, 0],
    ]
    validate(m)
    assert m.ring == f4


def test_build_simple_sorts_nonmonotone_weights():
    m = build_simple(SimpleSpec(3, (2, 0, 1)), 7)
    assert m.blocks[0].weights == (0, 1, 2)
    validate(m)
    # rotating the weight function yields the same sorted-basis module
    m2 = build_simple(SimpleSpec(3, (0, 1, 2)), 7)
    assert m.blocks[0].phi.rows == m2.blocks[0].phi.rows


def test_tensor_decompose_frozen():
    one = tensor_decompose(SimpleSpec(1, (2,)), SimpleSpec(1, (3,)))
    assert one.total_rank == 1
    assert [(sm.period, sm.copies, sm.spec.i) for sm in one.summands] == [(1, 1, (5,))]

    dec = tensor_decompose(SimpleSpec(2, (0, 1)), SimpleSpec(2, (0, 2)))
    assert [(sm.period, sm.copies, sm.spec.i) for sm in dec.summands] == [
        (2, 1, (0, 3)),
        (2, 1, (2, 1)),
    ]
    assert dec.total_rank == 4

    dec = tensor_decompose(SimpleSpec(2, (0, 1)), SimpleSpec(2, (1, 0)))
    assert [(sm.period, sm.copies, sm.spec.i) for sm in dec.summands] == [
        (1, 2, (1,)),
        (2, 1, (0, 2)),
    ]
    assert dec.total_rank == 4


def _specs_up_to(h_max, w_max):
    out = []
    for h in range(1, h_max + 1):
        for i in itertools.product(range(w_max + 1), repeat=h):
            if minimal_period(i) == h:
                out.append(SimpleSpec(h, i))
    return out


def test_decomposition_dimension_and_weights_exhaustive():
    specs = _specs_up_to(3, 2)
    for a in specs:
        for b in specs:
            dec = tensor_decompose(a, b)
            assert dec.total_rank == a.h * b.h
            pair_sums = sorted(
                a.i[n] + b.i[m] for n in range(a.h) for m in range(b.h)
            )
            summand_sums = sorted(w for sm in dec.summands for w in sm.weights)
            assert pair_sums == summand_sums
            for s, sm in enumerate(dec.summands):
                assert sm.weights == sm.spec.i * sm.copies
                assert sm.weights == tuple(
                    a.i[r % a.h] + b.i[(s + r) % b.h] for r in range(lcm(a.h, b.h))
                )
            # pieces s != s' never agree: that would make |s - s'| < h' a
            # shift period of i', so minimal_period runs once per piece
            assert len({sm.weights for sm in dec.summands}) == len(dec.summands)


def test_summand_embedding_frozen_diagonal():
    a = SimpleSpec(2, (0, 1))
    b = SimpleSpec(2, (1, 0))
    emb = summand_embedding(a, b, 0, 0, 5)
    f5 = make_field(5)
    assert emb.source.rank == 1
    assert emb.source.blocks[0].weights == (1,)
    assert emb.source.blocks[0].phi[0, 0] == f5.one
    col = [emb.matrix[r, 0] for r in range(4)]
    assert col == [f5.zero, f5.one, f5.one, f5.zero]


def test_summand_embedding_twisted_copy():
    a = SimpleSpec(2, (0, 1))
    b = SimpleSpec(2, (1, 0))
    emb = summand_embedding(a, b, 0, 1, 5)
    f5 = make_field(5)
    # the twist is the primitive square root of unity 4 = -1 in F_5
    assert emb.source.blocks[0].phi[0, 0] == f5.from_int(4)
    col = [emb.matrix[r, 0] for r in range(4)]
    assert col == [f5.zero, f5.one, f5.from_int(4), f5.zero]
    assert is_morphism([emb.matrix], emb.source, emb.target)


def test_summand_embedding_rank_two_component():
    a = SimpleSpec(2, (0, 1))
    b = SimpleSpec(2, (1, 0))
    emb = summand_embedding(a, b, 1, 0, 5)
    assert emb.source.blocks[0].weights == (0, 2)
    assert emb.matrix.rank_field() == 2
    # the solved morphism space is nontrivial, as the embedding shows
    assert hom_mf(emb.source, emb.target).dimension >= 1


def test_summand_embedding_index_checks():
    a = SimpleSpec(2, (0, 1))
    b = SimpleSpec(2, (1, 0))
    with pytest.raises(errors.IndexOutOfRange):
        summand_embedding(a, b, 2, 0, 5)
    with pytest.raises(errors.IndexOutOfRange):
        summand_embedding(a, b, 0, 2, 5)
    with pytest.raises(errors.IndexOutOfRange):
        summand_embedding(a, b, 1, 1, 5)


def test_missing_root_of_unity_is_rejected():
    a = SimpleSpec(3, (0, 0, 1))
    b = SimpleSpec(3, (1, 1, 0))
    dec = tensor_decompose(a, b)
    assert dec.summands[0].copies == 3
    assert summand_embedding(a, b, 0, 0, 5).matrix.rank_field() == 1
    with pytest.raises(errors.InvalidInput):
        summand_embedding(a, b, 0, 1, 5)
    # 3 divides 7 - 1, so all copies exist over F_7
    assert summand_embedding(a, b, 0, 2, 7).matrix.rank_field() == 1


def test_change_of_basis_is_invertible():
    cases = [
        (SimpleSpec(2, (0, 1)), SimpleSpec(2, (1, 0)), 5),
        (SimpleSpec(2, (0, 1)), SimpleSpec(2, (0, 2)), 7),
        (SimpleSpec(3, (0, 0, 1)), SimpleSpec(3, (1, 1, 0)), 7),
        (SimpleSpec(1, (1,)), SimpleSpec(4, (0, 1, 1, 0)), 11),
        (SimpleSpec(2, (0, 1)), SimpleSpec(3, (0, 1, 1)), 7),
    ]
    for a, b, q in cases:
        embs = all_embeddings(a, b, q)
        assert sum(e.matrix.ncols for e in embs) == a.h * b.h
        cob = change_of_basis(a, b, q)
        assert cob.nrows == cob.ncols == a.h * b.h
        assert cob.is_invertible()
        target = tensor(build_simple(a, q), build_simple(b, q))
        for e in embs:
            assert e.target.blocks[0].phi.rows == target.blocks[0].phi.rows
            assert is_morphism([e.matrix], e.source, e.target)
            one = summand_embedding(a, b, e.s, e.copy, q)
            assert (one.matrix, one.source, one.target) == (e.matrix, e.source, e.target)


# -- simples valid by construction, embeddings checked by index ------------------


def test_simple_modules_are_valid_by_construction():
    # _build_cyclic no longer validates: every spec with h <= 4 and weights
    # <= 3, plain and with each unit twist of F_5, passes validate, and its
    # bounds are the min and max of its weights
    f5 = make_field(5)
    units = [x for x in f5.elements() if x != f5.zero]
    for spec in _specs_up_to(4, 3):
        for module in [build_simple(spec, 5)] + [_build_cyclic(f5, spec.i, t) for t in units]:
            validate(module)
            assert module.bounds == (min(spec.i), max(spec.i))


# the embedding cases of acceptance criterion 05, with their fields
CRITERION_05_Q = {1: 11, 2: 11, 3: 13, 4: 13, 5: 11, 6: 13, 10: 11, 12: 13, 15: 31, 20: 41}


def criterion_05_embedding_cases():
    pattern_a = (0, 1, 2, 3)
    pattern_b = (3, 2, 1, 0)
    for h in range(1, 6):
        for h2 in range(1, 6):
            a = SimpleSpec(h, tuple(pattern_a[j % 4] for j in range(h)))
            a2 = SimpleSpec(h2, tuple(pattern_a[j % 4] for j in range(h2)))
            b2 = SimpleSpec(h2, tuple(pattern_b[j % 4] for j in range(h2)))
            q = CRITERION_05_Q[lcm(h, h2)]
            yield a, a2, q
            yield a, b2, q


def generic_verdict(matrix, source, target):
    """The message of the generic checks the index check replaces, or None."""
    if not is_morphism([matrix], source, target):
        return "summand embedding failed the morphism equations"
    if matrix.rank_field() != matrix.ncols:
        return "summand embedding is not injective"
    return None


def index_verdict(matrix, source, target):
    try:
        _check_embedding(matrix, source, target)
    except errors.InternalRankFailure as exc:
        return str(exc)
    return None


def mutants(matrix):
    """One changed coefficient, two swapped rows and one zeroed column: the
    first nonzero entry plus one (plus two if that is 0), its row swapped
    with the first row that differs from it, and column 0."""
    ring = matrix.ring
    zero = ring.zero.data
    rows = [list(row) for row in matrix._raw]
    u, a = next((u, a) for u, row in enumerate(rows) for a, x in enumerate(row) if x != zero)
    changed = [list(row) for row in rows]
    changed[u][a] = ring._add(rows[u][a], ring.one.data)
    if changed[u][a] == zero:
        changed[u][a] = ring._add(changed[u][a], ring.one.data)
    swapped = [list(row) for row in rows]
    v = next(v for v, row in enumerate(rows) if row != rows[u])
    swapped[u], swapped[v] = rows[v], rows[u]
    zeroed = [[zero if b == 0 else x for b, x in enumerate(row)] for row in rows]
    return [Matrix._from_data(ring, m, matrix.ncols) for m in (changed, swapped, zeroed)]


def test_index_check_agrees_with_the_generic_checks():
    embeddings = rejected = 0
    for a, b, q in criterion_05_embedding_cases():
        for emb in all_embeddings(a, b, q):
            validate(emb.source)
            assert index_verdict(emb.matrix, emb.source, emb.target) is None
            assert generic_verdict(emb.matrix, emb.source, emb.target) is None
            embeddings += 1
            if lcm(a.h, b.h) == 1:
                # a 1x1 embedding: any nonzero multiple is one too
                continue
            for mutant in mutants(emb.matrix):
                verdict = index_verdict(mutant, emb.source, emb.target)
                assert verdict is not None, (a, b, emb.s, emb.copy, mutant)
                assert verdict == generic_verdict(mutant, emb.source, emb.target)
                rejected += 1
    # two of the 86 embeddings are 1x1, h = h2 = 1
    assert (embeddings, rejected) == (86, 3 * 84)


def test_index_check_rejects_a_row_hit_twice():
    # a non-injective morphism, which no summand embedding is: weights (0, 0)
    # with Φ the swap are two copies of M(1; 0), one with the twist -1, and
    # [1 1] maps both onto M(1; 0) with Φ = [1]
    f5 = make_field(5)
    source = _build_cyclic(f5, (0, 0), f5.one)
    target = build_simple(SimpleSpec(1, (0,)), 5)
    matrix = Matrix(f5, [[1, 1]])
    assert generic_verdict(matrix, source, target) == "summand embedding is not injective"
    assert index_verdict(matrix, source, target) == "summand embedding is not injective"
