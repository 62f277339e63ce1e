import itertools
import json
import math
import os

import pytest

from geen_garside import (
    AbelianGroup,
    Generator,
    GroupParams,
    build_garside,
    build_interval,
    cached_garside,
    chain_condition_holds,
    differential_closed_form,
    differential_generic,
    differentials,
    enumerate_cells,
    homology_group,
    is_isomorphic_to_CP,
    predicted_h2,
)
from geen_garside import garside, homology
from geen_garside.cli import default_grid
from geen_garside.core import braid_m
from geen_garside.homology import atom_order
from geen_garside.snf import quotient_group, smith_normal_form
from conftest import all_k, right_rows

# sha256 over d_1, d_2, d_3 by both routes, the cells of degrees 0..3 and H_1,
# H_2 by method="both", at the 45 default-grid points and three n = 5 points;
# see test_homology_layer_digest for the serialization.
HOMOLOGY_DIGEST = "a5b000ba158109a55be0e37c6db117969b3cf3e5e8505864bb1d76764d30f748"


def t(i, e):
    return Generator("t", i % e)


S3 = Generator("s", 3)
S4 = Generator("s", 4)


def test_atom_order():
    order = atom_order(GroupParams(3, 4))
    assert [str(x) for x in order] == ["s4", "s3", "t0", "t1", "t2"]


def test_one_cells_are_atoms():
    g = cached_garside(4, 3, 1)
    assert len(enumerate_cells(g, 1)) == 4 + 3 - 2
    g2 = cached_garside(3, 4, 2)
    assert len(enumerate_cells(g2, 1)) == 3 + 4 - 2


def test_two_cells_t_pairs_start_at_t0():
    for e, n, k in [(3, 3, 1), (4, 3, 2)]:
        g = cached_garside(e, n, k)
        t_pairs = [
            c for c in enumerate_cells(g, 2) if all(x.kind == "t" for x in c)
        ]
        assert t_pairs == [(t(0, e), t(i, e)) for i in range(1, e)]


@pytest.mark.parametrize(
    "e,n,k",
    [(c.e, c.n, c.k) for c in default_grid()]
    + [(2, 5, 1), (3, 5, 1), (3, 5, 2), (4, 5, 2)],
)
def test_cell_census(e, n, k):
    """|C_r| for r = 0..3 by a count independent of the head-condition filter
    that `CellComplex` runs: a cell is an increasing set of s's followed by no t,
    one t_i, or t_0 t_i."""
    from math import comb

    s = n - 2
    expected = [
        1,
        e + s,
        (e - 1) + s * e + comb(s, 2),  # t0 t_i, s t_i, s s
        s * (e - 1) + comb(s, 2) * e + comb(s, 3),  # s t0 t_i, s s t_i, s s s
    ]
    g = cached_garside(e, n, k)
    assert [len(enumerate_cells(g, r)) for r in range(4)] == expected


def test_three_cells_with_two_ts():
    g = cached_garside(3, 4, 1)
    two_t = [
        c
        for c in enumerate_cells(g, 3)
        if sum(1 for x in c if x.kind == "t") == 2
    ]
    assert two_t == [
        (S4, t(0, 3), t(1, 3)),
        (S4, t(0, 3), t(2, 3)),
        (S3, t(0, 3), t(1, 3)),
        (S3, t(0, 3), t(2, 3)),
    ]
    assert all(c[1] == t(0, 3) for c in two_t)


def test_no_cells_above_dimension():
    """Cells are listed up to the first empty degree, which the complex keeps;
    the degree past it and negative degrees are refused."""
    g = cached_garside(3, 3, 1)
    cells = homology.complex_of(g).cells
    assert enumerate_cells(g, len(cells) - 1) == []
    with pytest.raises(ValueError):
        enumerate_cells(g, len(cells))
    with pytest.raises(ValueError):
        enumerate_cells(g, -1)


@pytest.mark.parametrize("r", [0, 4])
@pytest.mark.parametrize(
    "route",
    [differential_closed_form, differential_generic]
    + [
        pytest.param(lambda g, r, m=m: differentials(g, (r,), m), id=f"differentials-{m}")
        for m in ("closed", "generic", "both")
    ],
)
def test_differentials_only_in_degrees_1_to_3(route, r):
    """d_r exists for 1 <= r < len(cells): at n = 2 the 2-cells are the last
    ones, the complex ends with an empty degree 3, and degree 4 = len(cells)
    is refused."""
    g = cached_garside(3, 2, 1)
    assert [len(c) for c in homology.complex_of(g).cells] == [1, 3, 2, 0]
    with pytest.raises(ValueError):
        route(g, r)


@pytest.mark.parametrize("r", [0, 3])
def test_homology_degree_is_refused_before_any_matrix(monkeypatch, r):
    """At n = 2 the top degree is 2, so H_0 and H_3 = H_{top+1} are refused
    from the cells alone."""
    g = cached_garside(3, 2, 1)
    assert len(homology.complex_of(g).cells) - 2 == 2

    def entered(*args):
        raise AssertionError("_boundary_matrix was entered")

    monkeypatch.setattr(homology, "_boundary_matrix", entered)
    with pytest.raises(ValueError, match=f"not {r}$"):
        homology_group(g, r)


# |C_0|, |C_1|, ... and H_1, ..., H_n by the generic route; (2,3,1) is the
# braid group on 4 strands, whose homology Z, Z/2, 0 is Arnold's (On some
# topological invariants of algebraic functions, 1970), and (4,4,2), (6,4,3)
# are the points where H_2 disagrees with criterion 13's formula
EVERY_DEGREE = {
    (2, 3, 1): ([1, 3, 3, 1], [[0], [2], []]),
    (3, 3, 1): ([1, 4, 5, 2], [[0], [3], []]),
    (4, 4, 2): ([1, 6, 12, 10, 3], [[0], [0, 2, 2, 2, 2], [0] * 4, [0] * 3]),
    (6, 4, 3): ([1, 8, 18, 16, 5], [[0], [0, 0] + [2] * 5, [0] * 7, [0] * 5]),
    (3, 5, 1): ([1, 6, 14, 16, 9, 2], [[0], [6], [3], [3], []]),
    (4, 5, 2): ([1, 7, 18, 22, 13, 3], [[0], [0, 2, 2], [0, 0, 2], [0, 0, 2], [0]]),
}


def test_top_degree_is_the_one_bound():
    """The complex ends at its first empty degree, and its top degree, n, is
    the one bound: H_1, ..., H_n come from the cells alone, checked three
    ways.  d_r d_{r+1} = 0 in every degree; the census
    |C_r| = (e-1) C(n-2, r-2) + e C(n-2, r-1) + C(n-2, r) holds; and the
    Euler characteristics of the cells and of the homology (H_0 = Z) are
    both 0.  The closed form agrees with the generic route wherever it is
    written: every degree at n = 3, d_1..d_3 elsewhere."""

    def binom(m, j):
        return math.comb(m, j) if j >= 0 else 0

    for (e, n, k), (census, groups) in EVERY_DEGREE.items():
        g = cached_garside(e, n, k)
        cells = homology.complex_of(g).cells
        assert [len(c) for c in cells] == census + [0], (e, n, k)
        assert [len(c) for c in cells] == [
            (e - 1) * binom(n - 2, r - 2) + e * binom(n - 2, r - 1) + binom(n - 2, r)
            for r in range(n + 2)
        ]
        assert sum((-1) ** r * size for r, size in enumerate(census)) == 0
        d = differentials(g, range(1, n + 2), "generic")
        assert all(chain_condition_holds(lo, hi) for lo, hi in zip(d, d[1:]))
        closed = range(1, n + 2) if n == 3 else (1, 2, 3)
        assert differentials(g, closed, "closed") == [d[r - 1] for r in closed]
        h = [homology_group(g, r, "generic") for r in range(1, n + 1)]
        assert h == [AbelianGroup.from_cyclic(parts) for parts in groups], (e, n, k)
        assert 1 + sum((-1) ** r * x.free_rank for r, x in enumerate(h, 1)) == 0


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (4, 4, 2), (2, 5, 1)])
def test_lcm_of_suffixes_equals_the_fold_of_joins(e, n, k):
    """lcm(c) = join(first atom, lcm(rest)) agrees with folding the pairwise
    join over c from the identity, for every increasing atom tuple of size 1-3."""
    import itertools

    from geen_garside.homology import complex_of

    cx = complex_of(cached_garside(e, n, k))
    iv = cx.interval
    for size in (1, 2, 3):
        for c in itertools.combinations(range(len(cx.order)), size):
            folded = iv.identity_ordinal
            for p in c:
                folded = iv.join("right", folded, cx.atom_ordinal[p])
            assert cx.lcm(c) == folded, c


def test_lcm_is_the_least_common_left_multiple_g331():
    """At (3,3,1) the lcm is the unique common left-multiple of the atoms that
    every common left-multiple is a left-multiple of, read off the right
    divisibility rows."""
    import itertools

    from geen_garside.homology import complex_of

    cx = complex_of(cached_garside(3, 3, 1))
    div_right = right_rows(cx.interval)
    for size in (1, 2, 3):
        for c in itertools.combinations(range(len(cx.order)), size):
            mask = sum(1 << cx.atom_ordinal[p] for p in c)
            common = [m for m, d in enumerate(div_right) if d & mask == mask]
            least = [m for m in common if all((div_right[u] >> m) & 1 for u in common)]
            assert least == [cx.lcm(c)], c


def test_cells_are_filtered_once_per_structure(monkeypatch):
    """Once the complex exists, reading cells and the closed-form d_2 and d_3
    runs no head-condition test: no least right-dividing atom is looked up."""
    from geen_garside.homology import CellComplex, complex_of

    g = cached_garside(4, 4, 2)
    complex_of(g)
    calls = []
    original = CellComplex.head_atom

    def spy(self, member):
        calls.append(member)
        return original(self, member)

    monkeypatch.setattr(CellComplex, "head_atom", spy)
    for r in range(4):
        enumerate_cells(g, r)
    differential_closed_form(g, 2)
    differential_closed_form(g, 3)
    assert calls == []


@pytest.mark.parametrize(
    "e,n,k", [(3, 3, 2), (2, 4, 1), (4, 3, 1), (8, 4, 2), (3, 5, 2), (12, 3, 1)]
)
def test_cells_against_brute_force(e, n, k):
    """Re-derive the cell bases directly from the head condition, testing
    every increasing atom tuple at every position."""
    import itertools

    from geen_garside.homology import complex_of

    cx = complex_of(cached_garside(e, n, k))
    count = len(cx.order)

    def is_cell(positions):
        return all(
            cx.head_atom(cx.lcm(tuple(positions[i:]))) == positions[i]
            for i in range(len(positions))
        )

    for r in (2, 3):
        brute = [
            c for c in itertools.combinations(range(count), r) if is_cell(list(c))
        ]
        assert brute == cx.cells[r]


def test_cells_by_extension_join_only_cells_and_their_extensions():
    """The complex forms the lcm of each cell and of each one-atom extension
    p < c[0] of a cell, and nothing else: at (40,3,1) the 3-cells are the
    last, the extensions of C_3 give the empty degree 4, and the memo holds
    at most 1 + A (|C_0| + |C_1| + |C_2| + |C_3|) entries, against the
    11,522 suffixes of a scan over every atom tuple."""
    from geen_garside.homology import CellComplex

    cx = CellComplex(cached_garside(40, 3, 1))
    atoms = len(cx.order)
    assert [len(c) for c in cx.cells] == [1, 41, 79, 39, 0]
    assert len(cx._lcm_cache) <= 1 + atoms * sum(len(c) for c in cx.cells[:4])
    assert all(
        cx.row_index[r] == {c: i for i, c in enumerate(cx.cells[r])}
        for r in range(len(cx.cells))
    )


def test_d2_t_pair_column_with_cancellation():
    g = cached_garside(3, 3, 1)
    cells1 = enumerate_cells(g, 1)
    cells2 = enumerate_cells(g, 2)
    d2 = differential_closed_form(g, 2)
    col = cells2.index((t(0, 3), t(1, 3)))
    # +[t1] - [t0] - [t1] + [t2] = [t2] - [t0]
    vec = {cells1[i][0]: d2[i][col] for i in range(len(cells1)) if d2[i][col]}
    assert vec == {t(0, 3): -1, t(2, 3): 1}


def test_d2_braid_and_commute_columns():
    g = cached_garside(3, 4, 1)
    cells1 = enumerate_cells(g, 1)
    cells2 = enumerate_cells(g, 2)
    d2 = differential_closed_form(g, 2)
    braid_col = cells2.index((S3, t(1, 3)))
    vec = {cells1[i][0]: d2[i][braid_col] for i in range(len(cells1)) if d2[i][braid_col]}
    assert vec == {t(1, 3): 1, S3: -1}
    commute_col = cells2.index((S4, t(1, 3)))
    assert all(d2[i][commute_col] == 0 for i in range(len(cells1)))


@pytest.mark.parametrize("e,k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_v_basis_identities(e, k):
    """d3[s3,t0,tj] = v_j - v_{j+k} + v_k, degenerating to v_{-k} + v_k."""
    g = cached_garside(e, 3, k)
    cells2 = enumerate_cells(g, 2)
    cells3 = enumerate_cells(g, 3)
    index2 = {c: i for i, c in enumerate(cells2)}
    d3 = differential_closed_form(g, 3)

    def v(i):
        vec = [0] * len(cells2)
        vec[index2[(t(0, e), t(i, e))]] += 1
        vec[index2[(S3, t(0, e))]] += 1
        vec[index2[(S3, t(k, e))]] += 1
        vec[index2[(S3, t(i, e))]] -= 1
        vec[index2[(S3, t(i + k, e))]] -= 1
        return vec

    for col, cell in enumerate(cells3):
        if cell[:2] != (S3, t(0, e)):
            continue
        j = cell[2].index
        actual = [d3[r][col] for r in range(len(cells2))]
        if (j + k) % e == 0:
            expected = [a + b for a, b in zip(v(-k), v(k))]
        else:
            expected = [a - b + c for a, b, c in zip(v(j), v(j + k), v(k))]
        assert actual == expected


def test_d3_s4_pattern_column():
    """[s4, s3, t_i] cells contribute -2[s4, t_i]."""
    g = cached_garside(2, 4, 1)
    cells2 = enumerate_cells(g, 2)
    cells3 = enumerate_cells(g, 3)
    d3 = differential_closed_form(g, 3)
    col = cells3.index((S4, S3, t(0, 2)))
    vec = {cells2[i]: d3[i][col] for i in range(len(cells2)) if d3[i][col]}
    assert vec == {(S4, t(0, 2)): -2}


def test_generic_d1_augments_to_zero():
    g = cached_garside(3, 3, 1)
    d1 = differential_generic(g, 1)
    assert d1 == [[0] * len(enumerate_cells(g, 1))]


@pytest.mark.parametrize(
    "e,n,k", [(c.e, c.n, c.k) for c in default_grid() if c.n >= 3]
)
def test_generic_equals_closed_form(e, n, k):
    g = cached_garside(e, n, k)
    d2c = differential_closed_form(g, 2)
    d3c = differential_closed_form(g, 3)
    assert differential_generic(g, 2) == d2c
    assert differential_generic(g, 3) == d3c
    assert chain_condition_holds(d2c, d3c)
    assert differentials(g, (2,), "both")[0] == d2c


@pytest.mark.parametrize("e,n,k", [(3, 4, 1), (4, 4, 2)])
def test_generic_homotopy_is_computed_once_per_monomial(monkeypatch, e, n, k):
    """One memo scope serves one differential_generic call, and one
    homology_group call for d_r and d_{r+1} together.  In a scope, each
    (r, nf, cell) takes the miss path of s_monomial once, each coefficient
    that of _d_of once, and each product of monoid elements and each simple's
    normal form is computed once; every chain kept in the memo is left as it
    was stored."""
    import copy

    scopes, computed, divided, products = [], [], [], []
    generic, structure = homology._GenericDifferential, garside.GarsideStructure
    init, s_monomial = generic.__init__, generic._s_monomial
    least_divisor = generic._least_divisor
    nf_product, nf_of_simple = structure.nf_product, structure.nf_of_simple

    def init_spy(self, cx):
        init(self, cx)
        scopes.append(self)

    def s_spy(self, r, nf, cell):
        chain = s_monomial(self, r, nf, cell)
        computed.append(((r, nf, cell), chain, copy.deepcopy(chain)))
        return chain

    def least_spy(self, nf):
        divided.append(nf)
        return least_divisor(self, nf)

    def product_spy(self, a, b):
        # right quotients multiply by Delta^(-1) c and are not memoized
        if b.is_monoid_element():
            products.append((a, b))
        return nf_product(self, a, b)

    def simple_spy(self, s):
        products.append(s)
        return nf_of_simple(self, s)

    monkeypatch.setattr(generic, "__init__", init_spy)
    monkeypatch.setattr(generic, "_s_monomial", s_spy)
    monkeypatch.setattr(generic, "_least_divisor", least_spy)
    monkeypatch.setattr(structure, "nf_product", product_spy)
    monkeypatch.setattr(structure, "nf_of_simple", simple_spy)
    g = cached_garside(e, n, k)
    calls = [
        (lambda r=r: differential_generic(g, r), differential_closed_form(g, r))
        for r in (2, 3)
    ]
    calls.append((lambda: homology_group(g, 2, "generic"), homology_group(g, 2)))
    for call, expected in calls:
        for log in (scopes, computed, divided, products):
            log.clear()
        assert call() == expected
        assert len(scopes) == 1
        for log in ([key for key, _, _ in computed], divided, products):
            assert log and len(set(log)) == len(log)
        for key, chain, snapshot in computed:
            assert scopes[0]._s_memo[key] is chain
            assert chain == snapshot, key


def test_generic_memos_end_with_the_homology_call(monkeypatch):
    """After homology_group returns, its one _GenericDifferential is gone and
    nothing but this test refers to any of its memos: no memo is kept on the
    structure, on its cell complex or in the module."""
    import gc
    import types
    import weakref

    g = cached_garside(4, 3, 2)
    cx = homology.complex_of(g)
    before = [dict(vars(x)) for x in (g, cx, homology)]
    scopes, memos = [], []
    init = homology._GenericDifferential.__init__

    def init_spy(self, cx):
        init(self, cx)
        scopes.append(weakref.ref(self))
        memos.extend(v for v in vars(self).values() if isinstance(v, dict))

    monkeypatch.setattr(homology._GenericDifferential, "__init__", init_spy)
    assert homology_group(g, 2, "generic") == predicted_h2(4, 3, 2)
    gc.collect()
    assert len(scopes) == 1 and scopes[0]() is None
    assert memos and all(memos)
    for memo in memos:
        holders = [
            x for x in gc.get_referrers(memo)
            if x is not memos and not isinstance(x, types.FrameType)
        ]
        assert holders == []
    assert [vars(x) for x in (g, cx, homology)] == before


@pytest.mark.parametrize("e,n", [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4)])
def test_h1_is_z(e, n):
    for k in all_k(e):
        assert homology_group(cached_garside(e, n, k), 1) == AbelianGroup(1, ())


@pytest.mark.parametrize(
    "e,n,k", [(p.e, p.n, p.k) for p in default_grid()] + [(2, 5, 1), (3, 5, 1), (4, 5, 2)]
)
def test_h1_is_the_abelianized_presentation(e, n, k):
    """H_1 of a presented group is its abelianization: Z^atoms modulo the
    letter counts of lhs minus rhs of each relation of `emit_presentation`,
    the family-by-family writer that the closed-form d_2 does not read."""
    params = GroupParams(e, n, k)
    gens = garside.atoms(params)
    relations = garside.emit_presentation(params).relations
    matrix = [
        [lhs.count(x) - rhs.count(x) for lhs, rhs in relations] for x in gens
    ]
    assert quotient_group(len(gens), matrix) == homology_group(cached_garside(e, n, k), 1)


def test_h2_paper_values_n3():
    assert homology_group(cached_garside(3, 3, 1), 2) == AbelianGroup(0, (3,))
    assert homology_group(cached_garside(6, 3, 2), 2) == AbelianGroup(1, (3,))
    assert homology_group(cached_garside(6, 3, 3), 2) == AbelianGroup(2, (2,))
    assert homology_group(cached_garside(4, 3, 2), 2) == AbelianGroup(1, (2,))


def test_h2_generic_method_agrees():
    assert homology_group(cached_garside(3, 3, 1), 2, method="generic") == AbelianGroup(
        0, (3,)
    )


def test_h2_coprime_matches_braid_group_values():
    """For gcd(e,k) = 1 the group is the braid group; H2 = Z/e for n = 3."""
    for e in (2, 3, 4, 5):
        for k in all_k(e):
            if math.gcd(e, k) != 1:
                continue
            expected = AbelianGroup(0, (e,)) if e > 1 else AbelianGroup(0, ())
            assert homology_group(cached_garside(e, 3, k), 2) == expected


def test_homology_kernel_route_agrees_with_rank_route():
    for e, n, k in [(3, 3, 1), (4, 3, 2), (3, 4, 1), (4, 4, 2)]:
        g = cached_garside(e, n, k)
        d2 = differential_closed_form(g, 2)
        d3 = differential_closed_form(g, 3)
        n2 = len(enumerate_cells(g, 2))
        rank2 = smith_normal_form(d2).rank
        res3 = smith_normal_form(d3)
        direct = AbelianGroup(n2 - rank2 - res3.rank, tuple(res3.torsion))
        assert homology_group(g, 2) == direct


def test_h2_out_of_scope_order():
    """(3,3,1) has cells up to degree 3, so H_3 is its last group."""
    with pytest.raises(ValueError):
        homology_group(cached_garside(3, 3, 1), 4)


@pytest.mark.parametrize(
    "e,k",
    [(e, k) for e in range(2, 9) for k in range(1, e) if math.gcd(e, k) == 1],
)
def test_h2_computable_for_n2(e, k):
    """For gcd(e, k) = 1 the n = 2 group is the Artin group of type I_2(e):
    H_1 = Z, H_2 = 0 for odd e and H_1 = Z^2, H_2 = Z for even e."""
    assert is_isomorphic_to_CP(e, k, 2)[0]
    g = cached_garside(e, 2, k)
    rank = 2 if e % 2 == 0 else 1
    assert homology_group(g, 1, method="both") == AbelianGroup(rank, ())
    assert homology_group(g, 2, method="both") == AbelianGroup(rank - 1, ())


def test_predicted_h2_assembles_chains():
    assert predicted_h2(3, 3, 1) == AbelianGroup(0, (3,))
    assert predicted_h2(3, 4, 1) == AbelianGroup(0, (6,))
    assert predicted_h2(6, 3, 2) == AbelianGroup(1, (3,))
    assert predicted_h2(2, 4, 1) == AbelianGroup(0, (2, 2, 2))
    assert predicted_h2(6, 5, 2) == AbelianGroup(1, (6,))
    with pytest.raises(ValueError):
        predicted_h2(4, 2, 1)  # no closed formula at n = 2
    with pytest.raises(ValueError):
        predicted_h2(3, 3, 3)  # k out of range


def test_predicted_h2_pinned_to_frozen_values():
    """e <= 12, n = 3..6, all k, against values frozen from the hand-written
    primary decomposition that AbelianGroup.from_cyclic replaced."""
    path = os.path.join(os.path.dirname(__file__), "golden", "predicted_h2.jsonl")
    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    assert len(rows) == 264
    for row in rows:
        expected = AbelianGroup(row["free_rank"], tuple(row["torsion"]))
        assert predicted_h2(row["e"], row["n"], row["k"]) == expected, row


@pytest.mark.parametrize(
    "e,n,k,expected",
    [(2, 5, 1, AbelianGroup(0, (2, 2))), (3, 5, 1, AbelianGroup(0, (6,))),
     (3, 5, 2, AbelianGroup(0, (6,))), (4, 5, 2, AbelianGroup(1, (2, 2))),
     (6, 5, 3, AbelianGroup(2, (2, 2)))],
    ids=["2-5-1", "3-5-1", "3-5-2", "4-5-2", "6-5-3"],
)
def test_h2_n5_matches_prediction_by_both_methods(e, n, k, expected):
    """n = 5: homology_group with method="both" checks the closed-form
    differentials against the generic ones before taking the quotient."""
    g = cached_garside(e, n, k)
    assert predicted_h2(e, n, k) == expected
    assert homology_group(g, 2, method="both") == expected
    assert homology_group(g, 1, method="both") == AbelianGroup(1, ())


def test_n6_commuting_triples_and_h2_by_both_methods():
    """(2,6,1) has the only 3-cells of the tests made of three commuting
    atoms, [s6, s4, t0] and [s6, s4, t1], whose closed-form column is zero;
    the generic route must agree there, and H_2 must be the n >= 5
    formula's Z/2 x Z/2."""
    g = cached_garside(2, 6, 1)
    s6 = Generator("s", 6)
    cells3 = enumerate_cells(g, 3)
    commuting = [
        c for c in cells3 if {braid_m(x, y) for x, y in itertools.combinations(c, 2)} == {2}
    ]
    assert commuting == [(s6, S4, t(0, 2)), (s6, S4, t(1, 2))]
    d2, d3 = differentials(g, (2, 3), "both")
    for cell in commuting:
        assert not any(row[cells3.index(cell)] for row in d3)
    assert chain_condition_holds(d2, d3)
    assert predicted_h2(2, 6, 1) == AbelianGroup(0, (2, 2))
    assert homology_group(g, 2, "both") == AbelianGroup(0, (2, 2))


def test_homology_uses_the_structure_given(monkeypatch):
    """No second structure is built or looked up in the shared caches."""
    g = build_garside(build_interval(GroupParams(3, 3, 1)))
    built = []
    original = homology.CellComplex.__init__

    def spy(self, structure):
        built.append(structure)
        original(self, structure)

    def no_cache(*args):
        raise AssertionError("homology looked up a cached structure")

    monkeypatch.setattr(homology.CellComplex, "__init__", spy)
    # homology no longer imports cached_garside; patch it where it lives too
    monkeypatch.setattr(garside, "cached_garside", no_cache)
    monkeypatch.setattr(homology, "cached_garside", no_cache, raising=False)
    assert homology_group(g, 2, method="both") == predicted_h2(3, 3, 1)
    assert len(built) == 1 and built[0] is g


def test_cofactors_against_matrix_route_on_grid():
    """c * lcm(tail) = lcm(alpha, tail), by group arithmetic, for every atom
    alpha and every tail of dimension <= 2."""
    from geen_garside import inverse, multiply
    from geen_garside.cli import default_grid
    from geen_garside.homology import complex_of

    checked = 0
    for c in default_grid():
        if c.n < 3:
            continue
        cx = complex_of(cached_garside(c.e, c.n, c.k))
        iv = cx.interval
        members = iv.members
        for r in (0, 1, 2):
            for tail in cx.cells[r]:
                for alpha in range(len(cx.order)):
                    if alpha in tail:
                        continue
                    whole = cx.lcm(tuple(sorted((alpha,) + tail)))
                    base = cx.lcm(tail)
                    expected = iv.index[multiply(members[whole], inverse(members[base]))]
                    assert cx.cofactor(alpha, tail) == expected, (c, alpha, tail)
                    checked += 1
    assert checked == 2750


def test_cofactor_rejects_a_non_divisor():
    """A broken lcm that lcm(tail) does not right-divide is a violation."""
    from geen_garside.homology import CellComplex
    from geen_garside.interval import TheoremViolationError

    cx = CellComplex(build_garside(build_interval(GroupParams(3, 3, 1))))
    t0, t1 = cx.order.index(t(0, 3)), cx.order.index(t(1, 3))
    cx._lcm_cache[(t0, t1)] = cx.atom_ordinal[t0]
    with pytest.raises(TheoremViolationError):
        cx.cofactor(t0, (t1,))


def test_boundary_matrix_rejects_a_face_that_is_not_a_cell():
    from geen_garside.homology import _boundary_matrix, complex_of
    from geen_garside.interval import TheoremViolationError

    cx = complex_of(cached_garside(3, 3, 1))
    with pytest.raises(TheoremViolationError, match=r"face \(0, 0\) of the cell .* not a cell"):
        _boundary_matrix(cx, 3, lambda cell: [((0, 0), 1)])


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (2, 4, 1)])
def test_homology_needs_no_group_arithmetic(monkeypatch, e, n, k):
    """Once the interval is built, homology runs on integer tables alone."""
    from geen_garside import core, garside, interval, words

    expected = [homology_group(cached_garside(e, n, k), r) for r in (1, 2)]
    g = build_garside(build_interval(GroupParams(e, n, k)))

    def forbidden(*args):
        raise AssertionError("group arithmetic above the interval")

    assert not {"multiply", "inverse"} & set(vars(homology))
    for module in (core, words, interval, garside):
        for name in ("multiply", "inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert [homology_group(g, r, method="both") for r in (1, 2)] == expected


def test_homology_layer_digest():
    """The whole homology layer's output is pinned by one sha256, so a
    refactor that changes any cell list, matrix entry or group shows here."""
    import hashlib

    points = [(c.e, c.n, c.k) for c in default_grid()]
    points += [(2, 5, 1), (3, 5, 1), (4, 5, 2)]
    records = []
    for e, n, k in points:
        g = cached_garside(e, n, k)
        records.append({
            "point": [e, n, k],
            "cells": [
                [[str(x) for x in c] for c in enumerate_cells(g, r)] for r in range(4)
            ],
            "closed": [differential_closed_form(g, r) for r in (1, 2, 3)],
            "generic": [differential_generic(g, r) for r in (1, 2, 3)],
            "h": [
                homology_group(g, r, method="both").to_json_dict() for r in (1, 2)
            ],
        })
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == HOMOLOGY_DIGEST
