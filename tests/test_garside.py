import itertools
import json
import math
import os
import random

import pytest

from geen_garside import (
    CapExceededError,
    Generator,
    GroupParams,
    NormalForm,
    atoms,
    build_garside,
    cached_garside,
    cached_interval,
    embedding_lcm_check,
    emit_presentation,
    evaluate_word,
    generator_matrix,
    identity,
    inverse,
    is_isomorphic_to_CP,
    lambda_power,
    length,
    matsumoto_check,
    multiply,
    parse_word,
    reduced_expression,
    t_cycle_components,
)
from geen_garside.cli import default_grid
from geen_garside.garside import is_defining_relation
from conftest import all_k


def signed(letters):
    return [(x, 1) for x in letters]


def group_value(g, word):
    params = g.params
    w = identity(params)
    for x, sign in word:
        m = generator_matrix(x, params)
        w = multiply(w, m if sign > 0 else inverse(m))
    return w


def random_word(rng, gens, max_len=16):
    return [
        (rng.choice(gens), rng.choice((1, -1)))
        for _ in range(rng.randrange(0, max_len))
    ]


def test_complement_tables():
    g = cached_garside(3, 3, 1)
    interval = g.interval
    assert g.comp_left[g.identity] == g.delta
    assert g.comp_left[g.delta] == g.identity
    delta_len = interval.lengths[g.delta]
    for s in range(len(interval)):
        assert interval.lengths[s] + interval.lengths[g.comp_left[s]] == delta_len
        # s * comp_left(s) = Delta and comp_right(s) * s = Delta
        w = interval.element(s)
        assert multiply(w, interval.element(g.comp_left[s])) == interval.element(g.delta)
        assert multiply(interval.element(g.comp_right[s]), w) == interval.element(g.delta)


def test_complement_example_t1():
    g = cached_garside(3, 3, 1)
    params = GroupParams(3, 3)
    t1 = generator_matrix(Generator("t", 1), params)
    expected = multiply(inverse(t1), lambda_power(params, 1))
    assert g.interval.element(g.comp_left[g.interval.ordinal(t1)]) == expected


@pytest.mark.parametrize(
    "e,n,k,expected",
    [
        # tau is trivial exactly when lambda^k is central, i.e. e divides n*k
        ((3), 3, 1, True),
        (3, 3, 2, True),
        (2, 3, 1, False),
        (4, 3, 2, False),
        (2, 4, 1, True),
        (6, 2, 3, True),
    ],
)
def test_tau_identity_frozen(e, n, k, expected):
    g = cached_garside(e, n, k)
    assert all(g.tau[s] == s for s in range(len(g.interval))) == expected
    assert ((n * k) % e == 0) == expected


def test_tau_is_conjugation_by_delta():
    g = cached_garside(4, 3, 1)
    interval = g.interval
    delta = interval.element(g.delta)
    delta_inv = inverse(delta)
    for s in range(len(interval)):
        conjugate = multiply(multiply(delta_inv, interval.element(s)), delta)
        assert interval.element(g.tau[s]) == conjugate


def test_normalize_pair_examples():
    g2 = cached_garside(3, 2, 1)
    a = g2.interval.atom_ordinal[Generator("t", 1)]
    b = g2.interval.atom_ordinal[Generator("t", 0)]
    assert g2.normalize_pair(a, b) == (g2.delta, g2.identity)
    # Delta absorbs nothing further
    assert g2.normalize_pair(g2.delta, a) == (g2.delta, a)


def test_normalize_pair_idempotent_all_pairs():
    g = cached_garside(3, 3, 1)
    size = len(g.interval)
    for a in range(size):
        for b in range(size):
            a2, b2 = g.normalize_pair(a, b)
            assert g.normalize_pair(a2, b2) == (a2, b2)
            # the pair multiplies to the same group element
            iv = g.interval
            assert multiply(iv.element(a), iv.element(b)) == multiply(
                iv.element(a2), iv.element(b2)
            )
            assert iv.lengths[a] + iv.lengths[b] == iv.lengths[a2] + iv.lengths[b2]


def test_normalize_pair_against_matrix_route_on_small_grid_points():
    """(a t, t^(-1) b) with t = meet(comp_left[a], b), by group arithmetic."""
    checked = 0
    for c in default_grid():
        g = cached_garside(c.e, c.n, c.k)
        iv = g.interval
        size = len(iv)
        if size > 320:
            continue
        checked += 1
        members = iv.members
        for a in range(size):
            for b in range(size):
                t = members[iv.meet("left", g.comp_left[a], b)]
                expected = (
                    iv.index[multiply(members[a], t)],
                    iv.index[multiply(inverse(t), members[b])],
                )
                assert g.normalize_pair(a, b) == expected, (c, a, b)
    assert checked == 33


def test_normal_form_trivial_cases():
    g = cached_garside(3, 3, 1)
    assert g.normal_form("t0 t0^-1") == NormalForm(0, ())
    assert g.normal_form("") == NormalForm(0, ())
    assert g.normal_form("t0 t0") == NormalForm(0, (g.interval.atom_ordinal[Generator("t", 0)],) * 2)


def test_normal_form_dual_relations():
    g = cached_garside(3, 3, 1)
    assert g.normal_form("t1 t0") == g.normal_form("t2 t1")
    assert g.normal_form("t0 t2") == g.normal_form("t1 t0")
    g2 = cached_garside(5, 2, 2)
    assert g2.normal_form("t0 t3") == g2.normal_form("t2 t0")


def test_word_problem_distinguishes():
    g2 = cached_garside(3, 2, 1)
    assert not g2.words_equal("t0 t1", "t1 t0")
    assert g2.words_equal("t0 t1 t2", "t0 t1 t2")


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (3, 3, 2), (4, 3, 2), (6, 2, 4), (3, 4, 1)])
def test_defining_relations_normalize_identically(e, n, k):
    g = cached_garside(e, n, k)
    for lhs, rhs in emit_presentation(g.params).relations:
        assert g.words_equal(signed(lhs), signed(rhs))
        assert evaluate_word(lhs, g.params) == evaluate_word(rhs, g.params)


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (2, 4, 1), (4, 3, 3)])
def test_normal_form_random_words_sound(e, n, k):
    g = cached_garside(e, n, k)
    gens = atoms(g.params)
    rng = random.Random(20240 + e * 100 + n * 10 + k)
    for _ in range(400):
        word = random_word(rng, gens)
        nf = g.normal_form(word)
        assert g.evaluate_nf(nf) == group_value(g, word)
        assert g.is_left_greedy(nf)
        renorm = g.normalize_factors(list(nf.factors))
        assert renorm == NormalForm(0, nf.factors)


def test_relator_insertion_invariance():
    g = cached_garside(4, 3, 2)
    gens = atoms(g.params)
    relations = emit_presentation(g.params).relations
    rng = random.Random(99)
    for _ in range(150):
        u = random_word(rng, gens, 8)
        v = random_word(rng, gens, 8)
        lhs, rhs = relations[rng.randrange(len(relations))]
        assert g.normal_form(u + signed(lhs) + v) == g.normal_form(u + signed(rhs) + v)


def test_nf_product_matches_concatenation():
    g = cached_garside(3, 3, 2)
    gens = atoms(g.params)
    rng = random.Random(5)
    for _ in range(200):
        u = random_word(rng, gens, 10)
        v = random_word(rng, gens, 10)
        assert g.nf_product(g.normal_form(u), g.normal_form(v)) == g.normal_form(u + v)


def test_nf_product_pushes_only_the_second_factors():
    """The factors of a normal form a are left-greedy already, and stay so
    under tau: a product with a Delta power makes no normalize_pair call at
    all, and a product with one simple at most len(a.factors) calls."""
    g = build_garside(cached_interval(4, 4, 2))
    gens = atoms(g.params)
    rng = random.Random(7)
    pair = g.normalize_pair
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return pair(a, b)

    g.normalize_pair = counted
    for _ in range(50):
        a = g.normal_form(random_word(rng, gens, 12))
        for b in (NormalForm(-1, ()), NormalForm(3, ())):
            calls.clear()
            assert g.nf_product(a, b) == NormalForm(
                a.delta_power + b.delta_power,
                tuple(g.tau_powers[b.delta_power % len(g.tau_powers)][f] for f in a.factors),
            )
            assert calls == []
        simple = g.nf_of_simple(rng.randrange(len(g.interval)))
        calls.clear()
        g.nf_product(a, simple)
        assert len(calls) <= len(a.factors)


def _nf(pair):
    return NormalForm(pair[0], tuple(pair[1]))


def test_normal_forms_match_golden_file():
    """Seeded words, products and right quotients at six points, against
    normal forms written by the sweep-until-fixpoint implementation."""
    path = os.path.join(os.path.dirname(__file__), "golden", "normal_forms.jsonl")
    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    assert len(rows) == 420
    for row in rows:
        g = cached_garside(*row["point"])
        if row["op"] == "normal_form":
            got = g.normal_form(row["word"])
        elif row["op"] == "nf_product":
            got = g.nf_product(_nf(row["a"]), _nf(row["b"]))
        else:
            got = g.nf_right_quotient(_nf(row["a"]), row["s"])
        assert got == _nf(row["out"]), row


def test_nf_right_quotient():
    g = cached_garside(3, 3, 1)
    iv = g.interval
    delta_word = signed(reduced_expression(iv.element(g.delta)))
    nf_delta = g.normal_form(delta_word)
    assert nf_delta == NormalForm(1, ())
    for x, s in iv.atom_ordinal.items():
        quotient = g.nf_right_quotient(nf_delta, s)
        assert quotient.is_monoid_element()
        assert quotient == g.nf_of_simple(g.comp_right[s])

    assert g.nf_of_simple(g.identity) == NormalForm(0, ())
    assert g.nf_of_simple(g.delta) == NormalForm(1, ())
    s3 = iv.atom_ordinal[Generator("s", 3)]
    assert g.nf_of_simple(s3) == NormalForm(0, (s3,))
    # The trivial simple and Delta take the general path: dividing by 1
    # changes nothing, dividing by Delta multiplies by Delta^(-1).
    for point in [(3, 3, 1), (4, 4, 2)]:
        g = cached_garside(*point)
        gens = atoms(g.params)
        delta_inv = inverse(g.interval.element(g.delta))
        rng = random.Random(sum(point))
        for _ in range(30):
            factors = g.normal_form(random_word(rng, gens)).factors
            for p in (-2, 0, 3):
                nf = NormalForm(p, factors)
                assert g.nf_right_quotient(nf, g.identity) == nf
                quotient = g.nf_right_quotient(nf, g.delta)
                assert g.is_left_greedy(quotient)
                assert g.evaluate_nf(quotient) == multiply(
                    g.evaluate_nf(nf), delta_inv
                )


def test_tau_compatibility():
    g = cached_garside(3, 3, 1)
    iv = g.interval
    delta_letters = reduced_expression(iv.element(g.delta))
    for s in range(len(iv)):
        if s in (g.identity, g.delta):
            continue
        word = (
            signed(delta_letters)
            + signed(reduced_expression(iv.element(s)))
            + [(x, -1) for x in reversed(delta_letters)]
        )
        assert g.normal_form(word) == NormalForm(0, (g.tau_inv[s],))


def test_atom_count():
    for e, n in [(2, 2), (3, 3), (5, 4)]:
        g = cached_garside(e, n, 1)
        ones = [s for s in range(len(g.interval)) if g.interval.lengths[s] == 1]
        assert len(ones) == e + n - 2


def test_lattice_check_runs_on_build():
    interval = cached_interval(2, 3, 1)
    g = build_garside(interval)
    assert g.delta == interval.delta_ordinal


def test_presentation_shape_331():
    pres = emit_presentation(GroupParams(3, 3, 1))
    assert len(pres.generators) == 4
    braid = [r for r in pres.relations if len(r[0]) == 3]
    dual = [r for r in pres.relations if len(r[0]) == 2]
    assert len(braid) == 3 and len(dual) == 2
    for lhs, rhs in dual:
        assert lhs[0].kind == "t" and rhs[0] == Generator("t", 0)


def test_presentation_shape_221():
    pres = emit_presentation(GroupParams(2, 2, 1))
    assert len(pres.generators) == 2
    assert pres.relations == (
        ((Generator("t", 1), Generator("t", 0)), (Generator("t", 0), Generator("t", 1))),
    )


def test_presentation_counts_general():
    e, n, k = 4, 5, 2
    pres = emit_presentation(GroupParams(e, n, k))
    assert len(pres.generators) == e + n - 2
    braid_s = sum(
        1 for l, _ in pres.relations if len(l) == 3 and all(x.kind == "s" for x in l)
    )
    commute_s = sum(
        1 for l, _ in pres.relations if len(l) == 2 and all(x.kind == "s" for x in l)
    )
    braid_st = sum(
        1 for l, _ in pres.relations if len(l) == 3 and {x.kind for x in l} == {"s", "t"}
    )
    commute_st = sum(
        1 for l, _ in pres.relations if len(l) == 2 and {x.kind for x in l} == {"s", "t"}
    )
    dual = sum(1 for l, _ in pres.relations if all(x.kind == "t" for x in l))
    assert braid_s == n - 3
    assert commute_s == (n - 2) * (n - 3) // 2 - (n - 3)
    assert braid_st == e
    assert commute_st == e * (n - 3)
    assert dual == e - 1


def test_presentation_cap_predicts_the_relation_count(monkeypatch):
    """The count checked against MATSUMOTO_CAP, e(n-1) - 1 + (n-2)(n-3)/2,
    is exactly the number of relations built."""
    from geen_garside import garside

    for e in range(2, 13):
        for n in range(2, 7):
            params = GroupParams(e, n, 1)
            count = e * (n - 1) - 1 + (n - 2) * (n - 3) // 2
            monkeypatch.setattr(garside, "MATSUMOTO_CAP", count)
            assert len(emit_presentation(params).relations) == count
            monkeypatch.setattr(garside, "MATSUMOTO_CAP", count - 1)
            with pytest.raises(CapExceededError, match=f"has {count} relations"):
                emit_presentation(params)


def test_presentation_relations_are_family_members():
    params = GroupParams(8, 2, 2)
    pres = emit_presentation(params)
    for lhs, rhs in pres.relations:
        assert is_defining_relation(lhs, rhs, params)
    assert not is_defining_relation(
        (Generator("t", 0), Generator("t", 1)),
        (Generator("t", 1), Generator("t", 0)),
        params,
    )
    # words that differ from a braid relation only in a third letter
    params = GroupParams(4, 4, 2)
    for lhs, rhs in (
        ("s3 t0 s3", "t0 s3 t1"),
        ("s3 s4 t0", "s4 s3 s4"),
        ("t0 s3 t0", "s3 t0 t0"),
    ):
        lhs, rhs = (tuple(x for x, _ in parse_word(w, params)) for w in (lhs, rhs))
        assert not is_defining_relation(lhs, rhs, params)
        assert not is_defining_relation(rhs, lhs, params)


def test_is_defining_relation_refuses_letters_that_are_not_atoms():
    """At (4,4,2) there is no s_7 or s_8, and t-indices are not reduced mod e:
    the shapes below fit a braid and a dual relation, but not the atoms."""
    params = GroupParams(4, 4, 2)
    s7, s8 = Generator("s", 7), Generator("s", 8)
    t = [Generator("t", i) for i in range(10)]
    for lhs, rhs in (((s7, s8, s7), (s8, s7, s8)), ((t[9], t[7]), (t[0], t[2]))):
        assert not is_defining_relation(lhs, rhs, params)
        assert not is_defining_relation(rhs, lhs, params)
    # the same shapes on real atoms are relations
    s3, s4 = Generator("s", 3), Generator("s", 4)
    assert is_defining_relation((s3, s4, s3), (s4, s3, s4), params)
    assert is_defining_relation((t[1], t[3]), (t[0], t[2]), params)


def test_is_isomorphic_to_CP_lists_the_atoms_a_constant_number_of_times(monkeypatch):
    """The witness check tests each letter against the parameters instead of
    building the atom set per relation, so its cost stays linear in e."""
    from geen_garside import garside

    calls = []
    original = garside.atoms

    def spy(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(garside, "atoms", spy)
    assert is_isomorphic_to_CP(200, 1)[0]
    assert len(calls) <= 2


def test_is_defining_relation_is_the_presentation():
    """On all pairs of words of length <= 3, lhs = rhs is a defining relation
    exactly when it is one of emit_presentation's, in either order, or both
    sides are dual words t_i t_{i-k}."""
    true_pairs = 0
    for e, n, k in [(4, 4, 2), (3, 4, 1), (6, 3, 2)]:
        params = GroupParams(e, n, k)
        relations = set(emit_presentation(params).relations)
        gens = atoms(params)
        words = [w for m in range(4) for w in itertools.product(gens, repeat=m)]
        dual = {(Generator("t", i), Generator("t", (i - k) % e)) for i in range(e)}
        for lhs in words:
            for rhs in words:
                expected = (
                    (lhs, rhs) in relations
                    or (rhs, lhs) in relations
                    or (lhs in dual and rhs in dual)
                )
                assert is_defining_relation(lhs, rhs, params) == expected, (lhs, rhs)
                true_pairs += expected
    assert true_pairs == 105


def test_t_cycle_components():
    assert t_cycle_components(8, 2) == 2
    assert t_cycle_components(5, 2) == 1
    assert t_cycle_components(6, 3) == 3
    for e in range(2, 13):
        for k in all_k(e):
            assert t_cycle_components(e, k) == math.gcd(e, k)
        for k in (0, e):
            with pytest.raises(ValueError):
                t_cycle_components(e, k)


def test_isomorphism_criterion():
    ok, witness = is_isomorphic_to_CP(5, 2)
    assert ok
    assert witness[Generator("t", 0)] == Generator("t", 2)
    assert witness[Generator("t", 1)] == Generator("t", 4)
    ok8, witness8 = is_isomorphic_to_CP(8, 2)
    assert not ok8 and witness8 is None
    ok1, witness1 = is_isomorphic_to_CP(7, 1)
    assert ok1
    assert all(witness1[x] == x for x in witness1)
    for e in (5, 8):
        for k in (0, e):
            with pytest.raises(ValueError):
                is_isomorphic_to_CP(e, k)


def test_isomorphism_witness_semantically():
    """The mapped relations really hold in the target monoid."""
    e, k = 5, 3
    ok, witness = is_isomorphic_to_CP(e, k, n=3)
    assert ok
    g = cached_garside(e, 3, k)
    for lhs, rhs in emit_presentation(GroupParams(e, 3, 1)).relations:
        mapped_l = signed([witness[x] for x in lhs])
        mapped_r = signed([witness[x] for x in rhs])
        assert g.words_equal(mapped_l, mapped_r)


def test_matsumoto_delta_dihedral():
    g = cached_garside(3, 2, 1)
    delta = g.interval.element(g.delta)
    assert matsumoto_check(g, delta)


def test_matsumoto_all_members_331():
    g = cached_garside(3, 3, 1)
    for w in g.interval.members:
        assert matsumoto_check(g, w)


def test_embedding_images_and_lcms():
    g = cached_garside(3, 4, 1)
    assert embedding_lcm_check(g, 0)
    assert embedding_lcm_check(g, 2)
    g2 = cached_garside(4, 3, 2)
    assert embedding_lcm_check(g2, 1)
    with pytest.raises(ValueError):
        embedding_lcm_check(cached_garside(3, 2, 1))


def test_embedding_q1_q2_join_length():
    g = cached_garside(3, 3, 1)
    params = g.params
    image_q1 = evaluate_word([Generator("t", 0), Generator("t", 2)], params)
    a = g.interval.ordinal(image_q1)
    b = g.interval.atom_ordinal[Generator("s", 3)]
    join = g.interval.join("left", a, b)
    assert g.interval.lengths[join] == 6
    word = [Generator("t", 0), Generator("t", 2), Generator("s", 3)] * 2
    assert g.interval.element(join) == evaluate_word(word, params)
