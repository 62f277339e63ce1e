import random

import pytest

from geen_garside import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    all_reduced_expressions,
    atoms,
    cayley_length_table,
    enumerate_group,
    evaluate_word,
    format_word,
    generator_matrix,
    identity,
    lambda_power,
    length,
    length_decreases,
    maximal_length_elements,
    multiply,
    reduced_expression,
    reduced_expression_blockwise,
)
from conftest import LENGTH_ORACLE_GRID


WORKED_ELEMENT = GroupElement(3, (4, 2, 3, 1), (0, 2, 1, 0))


def test_worked_reduction_example():
    word = reduced_expression(WORKED_ELEMENT)
    assert format_word(word) == "t0 s3 t1 t0 s4 s3 t0"
    assert length(WORKED_ELEMENT) == 7
    assert evaluate_word(word, GroupParams(3, 4)) == WORKED_ELEMENT


def test_worked_blockwise_example():
    blocks = reduced_expression_blockwise(WORKED_ELEMENT)
    assert format_word(blocks.block_word(2)) == "t0"
    assert format_word(blocks.block_word(3)) == "s3 t1 t0"
    assert format_word(blocks.block_word(4)) == "s4 s3 t0"
    assert blocks.word() == reduced_expression(WORKED_ELEMENT)


def test_block_matrices_shrink():
    blocks = reduced_expression_blockwise(WORKED_ELEMENT).blocks()
    assert [b.n for b in blocks] == [4, 3, 2]
    # removing row 4 / column 1 and scaling the first column by 1
    assert blocks[1] == GroupElement(3, (3, 1, 2), (0, 2, 1))


def _peel(w: GroupElement):
    """Reference blocks w_n..w_2 by literal deletion, as (i, perm, exps).

    Block i-1 arises from block i by deleting row i and its column c and
    scaling the new first column by the deleted entry.
    """
    perm = list(w.perm)
    exps = list(w.exps)
    for i in range(w.n, 1, -1):
        yield i, tuple(perm), tuple(exps)
        c = perm.pop()
        k = exps.pop()
        for r in range(i - 1):
            if perm[r] > c:
                perm[r] -= 1
            if perm[r] == 1:
                exps[r] = (exps[r] + k) % w.e


@pytest.mark.parametrize("e,n", [(3, 4), (2, 5), (3, 5)])
def test_closed_form_blocks_match_peeling_exhaustive(e, n):
    for w in enumerate_group(GroupParams(e, n)):
        peeled = list(_peel(w))
        blocks = reduced_expression_blockwise(w)
        assert blocks.steps == [(i, p[-1], x[-1]) for i, p, x in peeled]
        assert blocks.blocks() == [
            GroupElement(e, p, x) for _, p, x in peeled
        ]


def test_identity_word_is_empty():
    params = GroupParams(4, 3)
    assert reduced_expression(identity(params)) == []
    assert length(identity(params)) == 0
    blocks = reduced_expression_blockwise(identity(params))
    assert all(blocks.block_word(i) == [] for i in range(2, 4))


@pytest.mark.parametrize("e,n", [(2, 2), (3, 3), (4, 3), (3, 4)])
def test_lambda_word_shape(e, n):
    """The word of lambda is t1 t0, s3 t1 t0 s3, ..., nested up to s_n."""
    lam = lambda_power(GroupParams(e, n), 1)
    expected = []
    for i in range(2, n + 1):
        expected += [Generator("s", m) for m in range(i, 2, -1)]
        expected += [Generator("t", 1), Generator("t", 0)]
        expected += [Generator("s", m) for m in range(3, i + 1)]
    assert reduced_expression(lam) == expected
    assert length(lam) == n * (n - 1)


@pytest.mark.parametrize("e,n", [(3, 3), (4, 3)])
def test_blockwise_agrees_with_algorithm_exhaustive(e, n):
    params = GroupParams(e, n)
    for w in enumerate_group(params):
        assert reduced_expression_blockwise(w).word() == reduced_expression(w)


@pytest.mark.parametrize("e,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_evaluation_round_trip_exhaustive(e, n):
    params = GroupParams(e, n)
    for w in enumerate_group(params):
        assert evaluate_word(reduced_expression(w), params) == w


def test_evaluation_round_trip_sampled_large():
    params = GroupParams(5, 4)
    for w in enumerate_group(params)[::37]:
        assert evaluate_word(reduced_expression(w), params) == w


@pytest.mark.parametrize("n", [20, 40, 60])
def test_loop_agrees_evaluates_and_counts_beyond_the_exhaustive_sizes(n):
    """Seeded random elements of G(e,e,n): the loop's word is the blockwise
    one, its product is w, and it has length(w) letters."""
    rng = random.Random(n)
    for _ in range(6):
        e = rng.randint(2, 7)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        exps = [rng.randrange(e) for _ in range(n - 1)]
        w = GroupElement(e, tuple(perm), ((-sum(exps)) % e, *exps))
        word = reduced_expression(w)
        assert reduced_expression_blockwise(w).word() == word
        assert evaluate_word(word, GroupParams(e, n)) == w
        assert len(word) == length(w)


@pytest.mark.parametrize("e,n", LENGTH_ORACLE_GRID + [(2, 5), (3, 5), (2, 6)])
def test_length_equals_bfs_distance(e, n):
    params = GroupParams(e, n)
    table = cayley_length_table(params)
    group = enumerate_group(params)
    assert len(table) == len(group)
    for w in group:
        assert length(w) == table[w]


def test_unit_step_g333():
    params = GroupParams(3, 3)
    mats = [generator_matrix(x, params) for x in atoms(params)]
    for w in enumerate_group(params):
        lw = length(w)
        for m in mats:
            assert abs(length(multiply(m, w)) - lw) == 1


def test_length_decreases_lambda_case():
    # lambda has its row-1 entry left of row-2 and a nontrivial a_2
    for e in (2, 3, 5):
        params = GroupParams(e, 3)
        lam = lambda_power(params, 1)
        for i in range(e):
            assert length_decreases(Generator("t", i), lam)


def test_length_never_decreases_identity():
    params = GroupParams(4, 3)
    one = identity(params)
    for x in atoms(params):
        assert not length_decreases(x, one)


@pytest.mark.parametrize("e,n", [(3, 3), (2, 3), (6, 2)])
def test_length_decreases_matches_lengths_exhaustive(e, n):
    params = GroupParams(e, n)
    pairs = [(x, generator_matrix(x, params)) for x in atoms(params)]
    for w in enumerate_group(params):
        lw = length(w)
        for x, m in pairs:
            assert length_decreases(x, w) == (length(multiply(m, w)) == lw - 1)


def test_maximal_length_census_g333():
    params = GroupParams(3, 3)
    top = maximal_length_elements(params)
    assert len(top) == 4
    top_set = set(top)
    for w in enumerate_group(params):
        if w in top_set:
            assert length(w) == 6
        else:
            assert length(w) < 6


def test_maximal_length_census_g224():
    params = GroupParams(2, 4)
    top = maximal_length_elements(params)
    assert top == [lambda_power(params, 1)]
    assert length(top[0]) == 12


def test_maximal_length_elements_are_special_diagonals():
    params = GroupParams(4, 3)
    for w in maximal_length_elements(params):
        assert w.perm == (1, 2, 3)
        assert all(a != 0 for a in w.exps[1:])
    assert len(maximal_length_elements(params)) == 9


def test_all_reduced_expressions_basics():
    params = GroupParams(3, 2)
    assert all_reduced_expressions(identity(params), params) == [()]
    t0 = generator_matrix(Generator("t", 0), params)
    assert all_reduced_expressions(t0, params) == [(Generator("t", 0),)]


def test_all_reduced_expressions_dual_dihedral():
    params = GroupParams(3, 2)
    t1t0 = evaluate_word([Generator("t", 1), Generator("t", 0)], params)
    words = {format_word(w) for w in all_reduced_expressions(t1t0, params)}
    assert words == {"t1 t0", "t2 t1", "t0 t2"}


def test_all_reduced_expressions_complete_and_capped():
    params = GroupParams(3, 3)
    lam = lambda_power(params, 1)
    words = all_reduced_expressions(lam, params)
    seen = set(words)
    assert len(seen) == len(words)
    for w in seen:
        assert len(w) == 6
        assert evaluate_word(w, params) == lam
    with pytest.raises(CapExceededError):
        all_reduced_expressions(lam, params, cap=3)


def test_the_reduced_expression_cap_counts_only_the_expressions():
    """lambda at (3,4) has 6,570 reduced expressions: a cap of 6,570 lists
    them all, and 6,569 is refused in `core.admit`'s shape with the size
    6,570.  Each word appended at every level of the listing once took a
    unit of the cap, so every cap up to 25,973 refused lambda."""
    params = GroupParams(3, 4)
    lam = lambda_power(params, 1)
    words = all_reduced_expressions(lam, params, cap=6570)
    assert len(words) == len(set(words)) == 6570
    assert all(len(w) == 12 and evaluate_word(w, params) == lam for w in words[::97])
    with pytest.raises(CapExceededError) as info:
        all_reduced_expressions(lam, params, cap=6569)
    assert str(info.value) == (
        "the element's reduced expressions = 6570 exceeds the cap 6569"
        " (set by the cap of all_reduced_expressions)"
    )
