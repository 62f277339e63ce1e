"""Shared helpers: an independent monomial-matrix oracle and small grids."""

from __future__ import annotations

import pytest

from geen_garside import GroupElement, GroupParams


def matrix_of(w: GroupElement) -> list[list[int | None]]:
    """Full n x n matrix with entries None (zero) or the exponent of zeta_e."""
    n = w.n
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][w.perm[i] - 1] = w.exps[i]
    return out


def matrix_product(a, b, e: int):
    """Reference product of monomial matrices in exponent form."""
    n = len(a)
    out: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = None
            for m in range(n):
                if a[i][m] is not None and b[m][j] is not None:
                    assert total is None, "two terms in one entry"
                    total = (a[i][m] + b[m][j]) % e
            out[i][j] = total
    return out


def element_of_matrix(matrix, e: int) -> GroupElement:
    n = len(matrix)
    perm = []
    exps = []
    for i in range(n):
        entries = [(j, a) for j, a in enumerate(matrix[i]) if a is not None]
        assert len(entries) == 1
        perm.append(entries[0][0] + 1)
        exps.append(entries[0][1])
    return GroupElement(e, tuple(perm), tuple(exps))


SMALL_GRID = [(2, 2), (3, 2), (6, 2), (2, 3), (3, 3), (4, 3)]
LENGTH_ORACLE_GRID = SMALL_GRID + [(2, 4), (3, 4)]


def all_k(e: int):
    return range(1, e)


def right_rows(interval) -> list[int]:
    """The right divisibility table, derived row by row through the
    transpose: bit a of out[b] says a <= b on the right."""
    return list(map(interval.right_row, range(len(interval))))


@pytest.fixture(scope="session")
def params_333():
    return GroupParams(3, 3)
