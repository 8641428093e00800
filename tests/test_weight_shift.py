"""The Fontaine–Laffaille weight shift: modules.divided and first_unadapted."""

from __future__ import annotations

import random

from flab.linalg import Matrix
from flab.modules import divided, first_unadapted
from flab.rings import make_ring

# Z/27, W(F_9)/9 and F_3[t]/t^3: gaps of 0..3 reach zero at every level
RINGS = (
    make_ring("witt", 3, 1, 3),
    make_ring("witt", 3, 2, 2),
    make_ring("dual_numbers", 3, 1, 3),
)


def _random_case(rng, ring):
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    # about half the entries are zero, so some matrices respect the weights
    rows = [
        [ring.random_element(rng) if rng.random() < 0.5 else ring.zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    row_weights = [rng.randint(-2, 3) for _ in range(nrows)]
    col_weights = [rng.randint(-2, 3) for _ in range(ncols)]
    return Matrix(ring, rows, ncols=ncols), row_weights, col_weights


def test_divided_matches_the_entrywise_formula():
    rng = random.Random(5)
    for ring in RINGS:
        for _ in range(150):
            A, rw, cw = _random_case(rng, ring)
            expected = [
                [
                    ring.pi() ** (rw[u] - cw[a]) * A[u, a] if rw[u] >= cw[a] else ring.zero
                    for a in range(A.ncols)
                ]
                for u in range(A.nrows)
            ]
            assert divided(A, rw, cw) == Matrix(ring, expected, ncols=A.ncols)


def test_first_unadapted_is_the_first_bad_entry_in_row_major_order():
    rng = random.Random(6)
    for ring in RINGS:
        seen = set()
        for _ in range(150):
            A, rw, cw = _random_case(rng, ring)
            bad = [
                (u, a)
                for u in range(A.nrows)
                for a in range(A.ncols)
                if A[u, a] and rw[u] < cw[a]
            ]
            expected = bad[0] if bad else None
            assert first_unadapted(A, rw, cw) == expected
            seen.add(expected is None)
        assert seen == {True, False}
