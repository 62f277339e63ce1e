import itertools
import random
from math import gcd

import pytest

from geen_garside import AbelianGroup, smith_normal_form
from geen_garside.snf import mat_mul, quotient_group


def test_zero_matrix():
    for matrix in ([[0, 0], [0, 0], [0, 0]], [[0]], [[0, 0, 0]], [[0], [0], [0]]):
        res = smith_normal_form(matrix)
        assert res.rank == 0
        assert res.invariant_factors == []
        assert res.diagonal == [0] * min(len(matrix), len(matrix[0]))


def test_empty_is_fine():
    for matrix in ([], [[]], [[], [], []]):
        res = smith_normal_form(matrix)
        assert res.rank == 0 and res.diagonal == []


def test_diag_2_3_gives_1_6():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.invariant_factors == [1, 6]


def test_divisibility_chain():
    res = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    factors = res.invariant_factors
    assert factors == [2, 2, 60]
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert smith_normal_form([[4, 6, -10]]).diagonal == [2]
    assert smith_normal_form([[4], [6], [-10]]).diagonal == [2]


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _determinant(matrix):
    """Integer determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * a * _determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
        if a
    )


def _minor_gcd(matrix, size):
    """gcd of all size x size minors."""
    rows, cols = len(matrix), len(matrix[0])
    out = 0
    for rs in itertools.combinations(range(rows), size):
        for cs in itertools.combinations(range(cols), size):
            out = gcd(out, _determinant([[matrix[r][c] for c in cs] for r in rs]))
    return out


@pytest.mark.parametrize("seed", range(16))
def test_invariant_factors_are_quotients_of_minor_gcds(seed):
    """d_1 ... d_i is the gcd of the i x i minors, for every i.

    Seeds below 8 draw mostly zero entries, whose pivots need the (gcd, lcm)
    chain; the others draw every entry nonzero, so that elimination rounds
    leave remainders and the least remainder becomes the next pivot.
    """
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    nonzero = [v for v in range(-9, 10) if v]
    matrix = [
        [
            rng.choice(nonzero) if seed >= 8
            else rng.randint(-9, 9) if rng.random() < 0.3 else 0
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    res = smith_normal_form(matrix)
    assert len(res.diagonal) == min(rows, cols)
    assert all(d >= 0 for d in res.diagonal)
    product = 1
    for i, d in enumerate(res.diagonal, start=1):
        product *= d
        assert product == _minor_gcd(matrix, i), (i, res.diagonal)
    assert res.rank == sum(1 for d in res.diagonal if d)


def _unimodular_pair(rng, size, steps=12):
    """A random unimodular V and its inverse, from elementary column operations."""
    V = [[int(i == j) for j in range(size)] for i in range(size)]
    Vinv = [row[:] for row in V]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        q = rng.randint(-3, 3)
        for row in V:  # C_j += q C_i
            row[j] += q * row[i]
        Vinv[i] = [a - q * b for a, b in zip(Vinv[i], Vinv[j])]  # R_i -= q R_j
    return V, Vinv


@pytest.mark.parametrize("seed", range(4))
def test_homology_from_ranks_and_torsion_random(seed):
    """ker(d2)/im(d3) = Z^(n2 - rank d2) / im(d3) as quotient_group reads it.

    d2 = [B | 0] V^(-1) with B of full column rank r (upper triangular with
    nonzero diagonal on top), so ker d2 is spanned by the last columns K of
    V, a direct summand; d3 = K R, and the homology is Z^(n2 - r) / im R on
    that basis.
    """
    rng = random.Random(100 + seed)
    n2 = rng.randint(2, 6)
    r = rng.randint(0, n2 - 1)
    B = [
        [0] * i
        + [rng.choice((-3, -2, -1, 1, 2, 4))]
        + [rng.randint(-5, 5) for _ in range(r - i - 1)]
        for i in range(r)
    ] + _random_matrix(rng, rng.randint(0, 2), r, bound=5)
    V, Vinv = _unimodular_pair(rng, n2)
    d2 = mat_mul([row + [0] * (n2 - r) for row in B], Vinv)
    R = _random_matrix(rng, n2 - r, rng.randint(1, 4), bound=4)
    d3 = mat_mul([row[r:] for row in V], R)
    assert all(not any(row) for row in mat_mul(d2, d3))
    assert smith_normal_form(d2).rank == r
    assert quotient_group(n2 - r, d3) == quotient_group(n2 - r, R)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    assert str(AbelianGroup(2, (3,))) == "Z^2 x Z/3"
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"


def test_quotient_group():
    # Z^3 / <(2,0,0),(0,3,0)> = Z/2 x Z/3 x Z = Z x Z/6
    group = quotient_group(3, [[2, 0], [0, 3], [0, 0]])
    assert group == AbelianGroup(1, (6,))


@pytest.mark.parametrize(
    "parts,torsion",
    [
        ([2, 3], (6,)),
        ([4, 6], (2, 12)),
        ([2, 2, 4], (2, 2, 4)),
        ([6, 10, 15], (30, 30)),
        ([], ()),
    ],
)
def test_from_cyclic_invariant_factors(parts, torsion):
    assert AbelianGroup.from_cyclic(parts) == AbelianGroup(0, torsion)


def test_from_cyclic_zero_part_is_free():
    assert AbelianGroup.from_cyclic([0, 2, 1, 0]) == AbelianGroup(2, (2,))
