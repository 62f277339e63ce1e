import random

import pytest

from geen_garside import AbelianGroup, kernel_basis, smith_normal_form
from geen_garside.snf import identity_matrix, mat_mul, quotient_group


def test_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert res.rank == 0
    assert res.invariant_factors == []


def test_empty_is_fine():
    res = smith_normal_form([])
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


def _random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(8))
def test_reconstruction_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    matrix = _random_matrix(rng, rows, cols)
    res = smith_normal_form(matrix, transforms=True)
    product = mat_mul(mat_mul(res.U, matrix), res.V)
    for i in range(rows):
        for j in range(cols):
            expected = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
            assert product[i][j] == expected
    assert mat_mul(res.U, res.Uinv) == identity_matrix(rows)
    assert mat_mul(res.V, res.Vinv) == identity_matrix(cols)
    assert all(d >= 0 for d in res.diagonal)
    nonzero = [d for d in res.diagonal if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@pytest.mark.parametrize("seed", range(4))
def test_kernel_basis_random(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 6)
    matrix = _random_matrix(rng, rows, cols, bound=5)
    basis = kernel_basis(matrix)
    res = smith_normal_form(matrix)
    assert len(basis) == cols - res.rank
    for vec in basis:
        image = [sum(matrix[i][j] * vec[j] for j in range(cols)) for i in range(rows)]
        assert all(entry == 0 for entry in image)


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
