"""Shared fixtures: small canonical modules and rings."""

from __future__ import annotations

import pytest

from flab.linalg import Matrix
from flab.rings import make_field, make_ring
from flab.testing import canon2 as _canon2
from flab.testing import pcanon2 as _pcanon2


@pytest.fixture
def F5():
    return make_field(5)


@pytest.fixture
def F7():
    return make_field(7)


@pytest.fixture
def Z25():
    return make_ring("witt", 5, 1, 2)


@pytest.fixture
def canon2():
    return _canon2()


@pytest.fixture
def pcanon2():
    return _pcanon2()


def _block_grid(system, tau):
    """The correction system T of block τ as position blocks, built from
    CorrectionSystem.functionals and diagonal_block: grid[i][j] maps Δ
    column a_j = r-1-j into the equation group with first index
    a_i = r-1-i."""
    k = system.kring
    r = system.rank
    eps = system.epsilon
    kzero = k.zero.data
    F = system.functionals[tau]._raw
    grid = []
    for i in range(r):
        a = r - 1 - i
        start = a if eps == 1 else a + 1
        row_of_blocks = []
        for j in range(r):
            target = r - 1 - j
            if target == a:
                row_of_blocks.append(system.diagonal_block(tau, a))
                continue
            # the equation (a, target) is the only one touching column
            # target, through ε·(column a of S·C)
            rows = [[kzero] * r for _ in range(start, r)]
            if target >= start:
                col = [row[a] for row in F]
                rows[target - start] = col if eps == 1 else [k._sub(kzero, x) for x in col]
            row_of_blocks.append(Matrix._from_data(k, rows, r))
        grid.append(row_of_blocks)
    return grid


@pytest.fixture
def block_grid():
    return _block_grid
