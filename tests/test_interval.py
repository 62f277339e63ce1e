import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from geen_garside import (
    Generator,
    GroupElement,
    GroupParams,
    ParameterMismatchError,
    atom_lcm_table,
    atoms,
    balanced_max_length,
    build_interval,
    bullet_rows,
    cached_garside,
    cached_interval,
    cayley_length_table,
    enumerate_group,
    evaluate_word,
    generator_matrix,
    homology_group,
    identity,
    in_interval,
    inverse,
    is_balanced,
    is_isomorphic_to_CP,
    lambda_power,
    left_divides,
    left_quotient,
    length,
    length_decreases,
    multiply,
    right_divides,
    transpose,
    verify_lattice,
)
from geen_garside.cli import default_grid
from geen_garside.interval import LatticeViolationError, lattice_pairwise_oracle
from conftest import all_k, right_rows


def test_bullets_worked_example():
    w = GroupElement(3, (4, 5, 3, 1, 2), (2, 1, 1, 0, 2))
    assert bullet_rows(w) == [1, 3, 4]


def test_bullets_diagonal_and_antidiagonal():
    assert bullet_rows(GroupElement(2, (1, 2, 3), (0, 0, 0))) == [1]
    assert bullet_rows(GroupElement(2, (3, 2, 1), (0, 0, 0))) == [1, 2, 3]


def test_in_interval_examples():
    # a zeta^2 in the non-bullet region rules out membership below lambda
    w = GroupElement(3, (1, 3, 2, 4), (2, 1, 1, 2))
    assert not in_interval(w, 1)
    # non-bullet entries 1 and zeta^2 sit below lambda^2
    v = GroupElement(3, (4, 5, 3, 1, 2), (0, 0, 1, 0, 2))
    assert in_interval(v, 2)
    assert not in_interval(v, 1)
    one = identity(GroupParams(3, 3))
    assert in_interval(one, 1) and in_interval(one, 2)
    with pytest.raises(ValueError):
        in_interval(one, 0)


def _in_interval_by_definition(w, k):
    """The paper's criterion: every non-bullet entry is 1 or zeta^k."""
    bullets = set(bullet_rows(w))
    return all(a in (0, k) for i, a in enumerate(w.exps, start=1) if i not in bullets)


@pytest.mark.parametrize("e,n", [(3, 4), (4, 3), (6, 3)])
def test_in_interval_matches_the_definition_exhaustive(e, n):
    params = GroupParams(e, n)
    group = enumerate_group(params)
    for k in all_k(e):
        for w in group:
            assert in_interval(w, k) == _in_interval_by_definition(w, k), (w, k)
    for k in (0, e):
        with pytest.raises(ValueError):
            in_interval(identity(params), k)


def test_permutation_tables_hold_one_entry_per_permutation():
    """A (3,5,1) build leaves exactly 5! = 120 entries in each table keyed by
    a permutation, however many elements (3^4 * 120 = 9,720) it touched.
    Its divisor scan makes 2 |G| tests through the bounded divisor_rows
    cache, which misses at most twice per permutation, at sigma and
    sigma^(-1) against lambda, and keeps at most its bound."""
    code = (
        "from geen_garside import GroupParams, build_interval\n"
        "from geen_garside.core import inverse_order\n"
        "from geen_garside.words import DIVISOR_ROWS_CACHE, _row_shape, divisor_rows\n"
        "build_interval(GroupParams(3, 5, 1))\n"
        "rows = divisor_rows.cache_info()\n"
        "print(inverse_order.cache_info().currsize, _row_shape.cache_info().currsize,\n"
        "      rows.hits, rows.misses, rows.currsize, DIVISOR_ROWS_CACHE)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    inverse_orders, row_shapes, hits, misses, kept, bound = map(int, result.stdout.split())
    assert (inverse_orders, row_shapes) == (120, 120)
    assert hits + misses == 2 * GroupParams(3, 5).order()
    assert misses <= 2 * 120
    assert kept <= bound


def test_divisor_rows_cache_stays_within_its_bound():
    """Builds at three points in one process, then three divisors tested
    over all of G(4,4,3), keep the divisor_rows cache within its bound, and
    every answer is the definition's.  An operand of another e or another
    n raises ParameterMismatchError whether or not the rows of its
    permutation against the divisor are cached, and caches nothing."""
    from geen_garside.words import DIVISOR_ROWS_CACHE, divisor_rows

    divisor_rows.cache_clear()
    for point in ((3, 3, 1), (3, 3, 2), (4, 3, 1)):
        build_interval(GroupParams(*point))
        assert divisor_rows.cache_info().currsize <= DIVISOR_ROWS_CACHE
    params = GroupParams(4, 3)
    group = enumerate_group(params)
    divisors = [lambda_power(params, 1), group[40], group[80]]
    for b in divisors:
        for a in group:
            assert left_divides(a, b) == _divides_by_definition(a, b), (a, b)
        assert divisor_rows.cache_info().currsize <= DIVISOR_ROWS_CACHE
    b, a = divisors[-1], group[5]
    other_e = (5,) + tuple(a)[1:]
    other_n = (4, (2, 1), (3, 1))
    for cached in (True, False):
        if cached:
            left_divides(a, b)
        else:
            divisor_rows.cache_clear()
        before = divisor_rows.cache_info().currsize
        for stranger, group_name in ((other_e, r"G\(5,5,3\)"), (other_n, r"G\(4,4,2\)")):
            with pytest.raises(
                ParameterMismatchError,
                match=rf"cannot divide elements of {group_name} and G\(4,4,3\)",
            ):
                left_divides(stranger, b)
        assert divisor_rows.cache_info().currsize == before


def test_left_divides_basics():
    params = GroupParams(3, 3)
    lam = lambda_power(params, 1)
    one = identity(params)
    for w in enumerate_group(params):
        assert left_divides(one, w)
        assert left_divides(w, w)
        assert right_divides(w, w)
    t1 = generator_matrix(Generator("t", 1), params)
    assert left_divides(t1, lam)


def _divides_by_definition(a, b):
    return length(a) + length(left_quotient(a, b)) == length(b)


def test_fused_left_divides_is_the_definition():
    """The fused test equals len(a) + len(a^(-1) b) == len(b) with the
    quotient formed: on every pair at (3,3) and (2,4), on 20,000 seeded
    random pairs at (4,4) and (3,5), and into lambda^2 over all of G(6,6,4)."""
    for params in (GroupParams(3, 3), GroupParams(2, 4)):
        group = enumerate_group(params)
        for a in group:
            for b in group:
                assert left_divides(a, b) == _divides_by_definition(a, b), (a, b)
    rng = random.Random(17)
    for params in (GroupParams(4, 4), GroupParams(3, 5)):
        group = enumerate_group(params)
        for _ in range(20000):
            a, b = rng.choice(group), rng.choice(group)
            assert left_divides(a, b) == _divides_by_definition(a, b), (a, b)
    params = GroupParams(6, 4)
    lam = lambda_power(params, 2)
    hits = 0
    for a in enumerate_group(params):
        expected = _divides_by_definition(a, lam)
        assert left_divides(a, lam) == expected, a
        hits += expected
    assert hits == 960


def test_right_divides_edges_of_lambda_word():
    params2 = GroupParams(3, 2)
    assert right_divides(
        generator_matrix(Generator("t", 0), params2), lambda_power(params2, 1)
    )
    params3 = GroupParams(4, 3)
    assert right_divides(
        generator_matrix(Generator("s", 3), params3), lambda_power(params3, 1)
    )


def test_divides_matches_length_formula_exhaustive_g333():
    """Divisibility agrees with length additivity, lengths taken from BFS:
    every pair in G(3,3,3), every third left operand in G(2,2,4)."""
    for params, step in ((GroupParams(3, 3), 1), (GroupParams(2, 4), 3)):
        dist = cayley_length_table(params)
        group = enumerate_group(params)
        for a in group[::step]:
            a_inv = inverse(a)
            la = dist[a]
            for b in group:
                expected = la + dist[multiply(a_inv, b)] == dist[b]
                assert left_divides(a, b) == expected, (a, b)
                expected_r = dist[multiply(b, a_inv)] + la == dist[b]
                assert right_divides(a, b) == expected_r, (a, b)


def test_interval_members_equal_divisors_of_lambda_k():
    params = GroupParams(3, 3)
    lam = lambda_power(params, 1)
    for w in enumerate_group(params):
        assert left_divides(w, lam) == in_interval(w, 1)
        assert right_divides(w, lam) == in_interval(w, 1)


def test_build_interval_cardinalities():
    # frozen from the first verified run, cross-checked by the divisor scans
    assert len(build_interval(GroupParams(2, 2, 1))) == 4
    assert len(build_interval(GroupParams(3, 3, 1))) == 35
    assert len(build_interval(GroupParams(3, 3, 2))) == 35
    assert len(build_interval(GroupParams(6, 2, 3))) == 8


def test_interval_contains_ends():
    interval = cached_interval(3, 3, 1)
    assert interval.element(interval.identity_ordinal).is_identity()
    assert interval.element(interval.delta_ordinal) == lambda_power(
        GroupParams(3, 3), 1
    )


def test_interval_grading():
    interval = cached_interval(3, 3, 1)
    for b in range(len(interval)):
        for a in interval.divisors(b):
            assert interval.lengths[a] <= interval.lengths[b]
            if interval.lengths[a] == interval.lengths[b]:
                assert a == b


def test_interval_closure_under_complement():
    for e, n in [(3, 3), (4, 3)]:
        params = GroupParams(e, n)
        for k in all_k(e):
            lam = lambda_power(params, k)
            lam_inv = inverse(lam)
            for w in enumerate_group(params):
                if in_interval(w, k):
                    w_inv = inverse(w)
                    assert in_interval(multiply(w_inv, lam), k)
                    assert in_interval(multiply(lam, w_inv), k)


def test_transpose_swaps_left_and_right_divisibility():
    params = GroupParams(3, 3)
    group = enumerate_group(params)
    for a in group[::7]:
        for b in group[::5]:
            assert left_divides(a, b) == right_divides(transpose(a), transpose(b))


def test_transpose_is_an_anti_automorphism_of_each_interval():
    """The one-table design rests on s -> s^T: at every default-grid point
    flip is a length-preserving involution of [1, lambda^k] that fixes each
    s_j, sends t_i to t_(-i), and carries s^(-1) lambda^k to
    lambda^k (s^T)^(-1)."""
    for c in default_grid():
        interval = cached_interval(c.e, c.n, c.k)
        flip = interval.flip
        assert [interval.members[f] for f in flip] == list(map(transpose, interval.members))
        assert [flip[f] for f in flip] == list(range(len(interval))), c
        assert [interval.lengths[f] for f in flip] == list(interval.lengths), c
        for x, a in interval.atom_ordinal.items():
            image = x if x.kind == "s" else Generator("t", -x.index % c.e)
            assert flip[a] == interval.atom_ordinal[image], (c, x)
        assert [flip[s] for s in interval.comp_left] == [interval.comp_right[f] for f in flip], c


def _galois(w: GroupElement, u: int) -> GroupElement:
    """sigma_u: every exponent times u mod e, the permutation kept.  For u a
    unit mod e it is zeta -> zeta^u entry by entry, an automorphism of
    G(e,e,n) that fixes each s_j and sends t_i to t_(ui), lambda^k to
    lambda^(uk)."""
    return GroupElement(w.e, w.perm, tuple(a * u % w.e for a in w.exps))


def _ordinals(mask: int) -> list[int]:
    return [a for a, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def test_galois_relabelling_maps_each_interval_onto_another():
    """Oracle with no staircase and no length formula: for each unit u mod e,
    sigma_u maps the members of [1, lambda^k] onto those of [1, lambda^(uk)],
    both divisibility tables bit for bit, the atom tables entry for entry
    (atom t_i to t_(ui), each s_j fixed), and H_1, H_2 to the same groups."""
    pairs = 0
    for c in default_grid():
        e, n, k = c
        source = cached_interval(e, n, k)
        for u in range(2, e):
            if math.gcd(u, e) != 1:
                continue
            target = cached_interval(e, n, u * k % e)
            sigma = [target.index.get(_galois(w, u)) for w in source.members]
            assert None not in sigma and sorted(sigma) == list(range(len(target))), (c, u)
            for here, there in (
                (source.div_left, target.div_left),
                (right_rows(source), right_rows(target)),
            ):
                for b, mask in enumerate(here):
                    image = sum(1 << sigma[a] for a in _ordinals(mask))
                    assert image == there[sigma[b]], (c, u, b)
            gens = atoms(source.params)
            moved = [
                gens.index(Generator("t", x.index * u % e) if x.kind == "t" else x)
                for x in gens
            ]
            for p, row in enumerate(source.down_left):
                there = target.down_left[moved[p]]
                for b, a in enumerate(row):
                    assert there[sigma[b]] == (sigma[a] if a >= 0 else -1), (c, u, p, b)
            for b in range(len(source)):
                dividing = [moved[p] for p, row in enumerate(source.down_left) if row[b] >= 0]
                assert target.head_left[sigma[b]] == min(dividing, default=-1), (c, u, b)
            if n >= 3:
                for r in (1, 2):
                    assert homology_group(cached_garside(e, n, k), r) == homology_group(
                        cached_garside(e, n, target.k), r
                    ), (c, u, r)
            pairs += 1
    assert pairs == 66


def _shift(w: GroupElement, c: int) -> GroupElement:
    """Conjugation by diag(zeta^c, 1, ..., 1), a diagonal matrix of G(e,1,n)
    that normalizes G(e,e,n): entry (i, j) gains c when i = 1 and loses c
    when j = 1.  It fixes each s_j and every diagonal element, lambda^k
    among them, and sends t_i to t_(i-c)."""
    return GroupElement(
        w.e,
        w.perm,
        tuple(
            (a + c * (i == 0) - c * (j == 1)) % w.e
            for i, (a, j) in enumerate(zip(w.exps, w.perm))
        ),
    )


def test_cp_witness_is_galois_then_shift():
    """For gcd(e, k) = 1 and k > 1, the witness t_i -> t_((i+1)k) of
    is_isomorphic_to_CP is sigma_k followed by the shift t_i -> t_(i+k), both
    fixing every s_j.  sigma_k maps [1, lambda] onto [1, lambda^k] and the
    shift maps [1, lambda^k] onto itself, each with its left divisibility
    bit for bit, so the witness extends to an isomorphism of the lattices."""
    checked = 0
    for c in default_grid():
        e, n, k = c
        if k == 1 or math.gcd(e, k) != 1:
            continue
        ok, witness = is_isomorphic_to_CP(e, k, n)
        assert ok
        for x, y in witness.items():
            image = _shift(_galois(generator_matrix(x, c), k), -k)
            assert image == generator_matrix(y, c), (c, x)
        target = cached_interval(e, n, k)
        for here, relabel in (
            (cached_interval(e, n, 1), lambda w: _galois(w, k)),
            (target, lambda w: _shift(w, -k)),
        ):
            sigma = [target.index.get(relabel(w)) for w in here.members]
            assert None not in sigma and sorted(sigma) == list(range(len(target))), c
            for b, mask in enumerate(here.div_left):
                image = sum(1 << sigma[a] for a in _ordinals(mask))
                assert image == target.div_left[sigma[b]], (c, b)
        checked += 1
    assert checked == 18


def test_meet_join_basics():
    interval = cached_interval(3, 3, 1)
    t0 = interval.atom_ordinal[Generator("t", 0)]
    t1 = interval.atom_ordinal[Generator("t", 1)]
    for side in ("left", "right"):
        assert interval.meet(side, t0, t0) == t0
        assert interval.meet(side, t0, t1) == interval.identity_ordinal
        assert interval.join(side, t0, interval.delta_ordinal) == interval.delta_ordinal


def test_join_of_t_atoms_is_t_k_t_0():
    params = GroupParams(4, 3)
    expected = {
        k: evaluate_word([Generator("t", k), Generator("t", 0)], params)
        for k in all_k(4)
    }
    for k in all_k(4):
        interval = cached_interval(4, 3, k)
        for i in range(4):
            for j in range(i + 1, 4):
                a = interval.atom_ordinal[Generator("t", i)]
                b = interval.atom_ordinal[Generator("t", j)]
                assert interval.element(interval.join("left", a, b)) == expected[k]


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (4, 3, 2), (6, 2, 3)])
def test_verify_lattice_theorem_instances(e, n, k):
    report = verify_lattice(cached_interval(e, n, k))
    assert report.all_ok
    assert report.counterexample is None


def test_verify_lattice_detects_corruption():
    """Breaking a relation table must surface as a violation, not pass silently."""
    interval = build_interval(GroupParams(3, 3, 1))
    # deleting t1*t0 from its own divisor set leaves the t-atoms as a
    # maximal antichain of common divisors of the pair (t1*t0, t1*t0)
    m = interval.ordinal(
        evaluate_word([Generator("t", 1), Generator("t", 0)], GroupParams(3, 3))
    )
    interval.div_left[m] &= ~(1 << m)
    report = verify_lattice(interval)
    assert not report.all_ok
    assert report.counterexample is not None
    with pytest.raises(LatticeViolationError):
        interval.meet("left", m, m)


def test_corrupted_right_table_breaks_left_joins():
    """A right meet failure is a left join failure, reported on the left pair.

    The right order is read from the left table through the transpose, so
    dropping m from its own right divisors means dropping flip[m] from
    div_left[flip[m]], and both sides of the report fail together."""
    interval = build_interval(GroupParams(3, 3, 1))
    # t1*t0 = t2*t1 = t0*t2, so all three t-atoms right-divide it; without
    # itself they are a maximal antichain of common right divisors
    m = interval.ordinal(
        evaluate_word([Generator("t", 1), Generator("t", 0)], GroupParams(3, 3))
    )
    f = interval.flip[m]
    interval.div_left[f] &= ~(1 << f)
    report = verify_lattice(interval)
    assert not report.all_ok
    assert report.counterexample.operation == "meet"
    with pytest.raises(LatticeViolationError) as info:
        interval.meet("right", m, m)
    violation = info.value.violation
    assert (violation.side, violation.operation, violation.pair) == ("right", "meet", (m, m))
    t_atoms = [interval.atom_ordinal[Generator("t", i)] for i in range(3)]
    assert violation.antichain == tuple(sorted(t_atoms))
    c = interval.comp_right[m]  # comp_left[c] == m
    with pytest.raises(LatticeViolationError) as info:
        interval.join("left", c, c)
    violation = info.value.violation
    assert (violation.side, violation.operation, violation.pair) == ("left", "join", (c, c))
    # the antichain is stated in the join's own ordinals: the t-atoms' complements
    assert violation.antichain == tuple(sorted(interval.comp_right[t] for t in t_atoms))


def test_cover_pair_check_agrees_with_pairwise_oracle_on_default_grid():
    for c in default_grid():
        interval = cached_interval(c.e, c.n, c.k)
        fast, slow = verify_lattice(interval), lattice_pairwise_oracle(interval)
        assert (fast.all_ok, slow.all_ok) == (True, True), c
        assert fast.counterexample is None and slow.counterexample is None


def _t1_t0(interval):
    return interval.ordinal(
        evaluate_word([Generator("t", 1), Generator("t", 0)], GroupParams(3, 3))
    )


def _drop_own_bit(interval, div):
    m = _t1_t0(interval)
    div[m] &= ~(1 << m)


def _drop_own_right_bit(interval, div):
    """Drop t1*t0 from its own right divisors: bit flip[m] of div[flip[m]]."""
    f = interval.flip[_t1_t0(interval)]
    div[f] &= ~(1 << f)


def _drop_non_cover_divisor(interval, div):
    """Drop a divisor two layers below b that has two lower covers itself:
    b keeps itself, its covers and the identity, only transitivity breaks."""
    b, a = next(
        (b, a)
        for b in range(len(interval))
        for a in interval.divisors(b)
        if interval.lengths[b] - interval.lengths[a] == 2 and len(interval.covers(a)) >= 2
    )
    div[b] &= ~(1 << a)


def _add_closed_cover(interval, div):
    """Make x a new lower cover of c and add div[x] to everything above c:
    the table stays closed under covers, but two covers lose their meet."""
    c = interval.layer_start[2]
    x = next(x for x in range(1, interval.layer_start[2]) if not (div[c] >> x) & 1)
    for y in range(len(interval)):
        if (div[y] >> c) & 1:
            div[y] |= div[x]


@pytest.mark.parametrize(
    "corrupt",
    [
        # each id names the order whose rows the corruption targets; the
        # first two are the corruptions of test_verify_lattice_detects_corruption
        # and test_corrupted_right_table_breaks_left_joins
        pytest.param(_drop_own_bit, id="_drop_own_bit-left"),
        pytest.param(_drop_own_right_bit, id="_drop_own_bit-right"),
        pytest.param(_drop_non_cover_divisor, id="_drop_non_cover_divisor-left"),
        pytest.param(_add_closed_cover, id="_add_closed_cover-left"),
    ],
)
def test_cover_pair_check_flags_corruptions_like_the_pairwise_oracle(corrupt):
    """The one table answers for both sides, so both fail together."""
    interval = build_interval(GroupParams(3, 3, 1))
    corrupt(interval, interval.div_left)
    fast, slow = verify_lattice(interval), lattice_pairwise_oracle(interval)
    assert (fast.all_ok, slow.all_ok) == (False, False)
    assert fast.counterexample.side == "left"
    assert fast.counterexample.operation == "meet"


def test_closure_failure_without_a_failing_meet_is_reported():
    """An identity bit missing breaks no extremality check, only the closure."""
    interval = build_interval(GroupParams(3, 3, 1))
    b = interval.delta_ordinal - 1
    interval.div_left[b] &= ~1
    assert lattice_pairwise_oracle(interval).all_ok
    report = verify_lattice(interval)
    assert not report.all_ok
    violation = report.counterexample
    assert (violation.side, violation.operation, violation.pair) == ("left", "closure", (b, b))
    assert violation.antichain == (0,)


def test_interval_admission_by_predicted_table_size(monkeypatch):
    from geen_garside import interval as interval_module
    from geen_garside.core import CapExceededError

    class Enumerated(Exception):
        pass

    def enumerated(params):
        raise Enumerated

    # the build admits G before it enumerates anything
    monkeypatch.setattr(interval_module, "admit_group", enumerated)
    with pytest.raises(
        CapExceededError, match=r"\|D\| .*= 322560 exceeds the cap 92681 .*INTERVAL_TABLE_CAP_BYTES"
    ):
        build_interval(GroupParams(2, 7, 1))
    # (3,6,1): |D| = 45,045, about 0.25 GB of table, is admitted (not built here)
    assert interval_module.interval_size(3, 6) == 45045
    with pytest.raises(Enumerated):
        build_interval(GroupParams(3, 6, 1))


@pytest.mark.parametrize("point", [(3, 3, 1), (4, 4, 2), (2, 5, 1)])
def test_build_lists_no_group(monkeypatch, point):
    """The members come from the staircase and the oracle scans G one
    permutation at a time: no list of G is made."""
    from geen_garside import core
    from geen_garside import interval as interval_module

    def listed(params):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(core, "enumerate_group", listed)
    monkeypatch.setattr(interval_module, "enumerate_group", listed)
    iv = build_interval(GroupParams(*point))
    assert len(iv) == interval_module.interval_size(*point[:2])
    members = set(iv.members)
    group = core.group_elements(GroupParams(*point[:2]))
    assert members == {w for w in group if in_interval(w, point[2])}


def test_build_peak_memory_is_close_to_what_it_keeps():
    """At (3,5,1), |G| = 9,720 and |D| = 3,465: the build's transient
    memory is far below that of a list of G, and what it keeps holds one
    divisibility table (a second one would add about 0.9 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        iv = build_interval(GroupParams(3, 5, 1))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(iv) == 3465
    assert peak - retained < 0.2e6
    assert retained < 2.5e6


def test_built_size_must_match_the_prediction(monkeypatch):
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError

    assert len(build_interval(GroupParams(4, 3, 1))) == interval_module.interval_size(4, 3)
    monkeypatch.setattr(interval_module, "interval_size", lambda e, n: 36)
    with pytest.raises(TheoremViolationError, match="differs from the predicted 36"):
        build_interval(GroupParams(3, 3, 1))


@pytest.mark.parametrize("point", [(3, 3, 1), (2, 3, 1)])
def test_a_kept_move_that_is_not_a_descent_is_refused(monkeypatch, point):
    """With a descent rule that keeps every t-move, some kept moves go up a
    layer and still land in the interval (21 of them at (3,3,1)).  The
    closure filled in ordinal order would take nothing from them, so the
    lattice check would pass and normal forms would not end; the build
    refuses the first such move, naming the atom and the member."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError

    monkeypatch.setattr(interval_module, "length_decreases", lambda x, w: True)
    e, n, k = point
    member = GroupElement(e, tuple(range(1, n + 1)), (0,) * n)
    message = f"the row move of t0 on {member} is not a descent"
    with pytest.raises(TheoremViolationError, match=f"^{re.escape(message)}$"):
        build_interval(GroupParams(*point))


def _transpose(div: list[int]) -> list[int]:
    """Bit b of out[a] says a divides b: the multiples of each member."""
    out = [0] * len(div)
    for b, mask in enumerate(div):
        for a in range(len(div)):
            if (mask >> a) & 1:
                out[a] |= 1 << b
    return out


def test_joins_are_least_common_multiples_on_small_grid_points():
    """Complemented meets against multiples tables transposed here."""
    checked = 0
    for c in default_grid():
        interval = cached_interval(c.e, c.n, c.k)
        size = len(interval)
        if size > 320:
            continue
        checked += 1
        for side, div in (("left", interval.div_left), ("right", right_rows(interval))):
            mult = _transpose(div)
            for a in range(size):
                for b in range(a, size):
                    upper = mult[a] & mult[b]
                    j = interval.join(side, a, b)
                    assert (upper >> j) & 1 and not upper & ~mult[j], (c, side, a, b)
    assert checked == 33


def test_atom_tables_against_products_on_small_grid_points():
    """down_left[p][b] is the ordinal of x_p * b exactly when the atom x_p
    left-divides b, by the divisibility table, and -1 otherwise."""
    checked = 0
    for c in default_grid():
        interval = cached_interval(c.e, c.n, c.k)
        size = len(interval)
        if size > 320:
            continue
        checked += 1
        gens = atoms(interval.params)
        assert len(interval.down_left) == len(gens)
        heads = [-1] * size
        for p in reversed(range(len(gens))):
            x = gens[p]
            xmat = generator_matrix(x, interval.params)
            a = interval.atom_ordinal[x]
            for b, w in enumerate(interval.members):
                if (interval.div_left[b] >> a) & 1:
                    heads[b] = p
                    expected = interval.index[multiply(xmat, w)]
                else:
                    expected = -1
                assert interval.down_left[p][b] == expected, (c, x, b)
        assert interval.head_left == heads, c
    assert checked == 33


@pytest.mark.parametrize("e,n,k", [(3, 3, 1), (4, 4, 2), (2, 5, 1), (4, 3, 1)])
def test_atom_lcm_table_identities(e, n, k):
    # (2,5,1) exercises the distant-commuting s-pair identity
    table = atom_lcm_table(cached_interval(e, n, k))
    pairs = (e + n - 2) * (e + n - 3) // 2
    assert len(table) == pairs


def test_atom_lcm_spec_examples():
    params = GroupParams(4, 4)
    interval = cached_interval(4, 4, 2)
    table = atom_lcm_table(interval)
    t1, s4 = Generator("t", 1), Generator("s", 4)
    assert table[(t1, s4)] == evaluate_word([t1, s4], params)
    s3 = Generator("s", 3)
    assert table[(s3, s4)] == evaluate_word([s3, s4, s3], params)


def test_lemma_level_lcm_facts():
    """If two atoms divide w, their pairwise lcm divides w too."""
    for e, n, k in [(3, 3, 1), (4, 3, 2)]:
        interval = cached_interval(e, n, k)
        gens = list(interval.atom_ordinal.values())
        for b in range(len(interval)):
            div = interval.div_left[b]
            present = [a for a in gens if (div >> a) & 1]
            for i, a1 in enumerate(present):
                for a2 in present[i + 1 :]:
                    assert (div >> interval.join("left", a1, a2)) & 1


def test_balanced_examples():
    params = GroupParams(3, 3)
    assert is_balanced(lambda_power(params, 1))
    assert is_balanced(identity(params))
    # maximal length but distinct lower diagonal entries: not balanced
    assert not is_balanced(GroupElement(3, (1, 2, 3), (0, 1, 2)))


def test_balanced_max_length_census():
    params = GroupParams(3, 3)
    assert balanced_max_length(params) == [
        lambda_power(params, 1),
        lambda_power(params, 2),
    ]
    params23 = GroupParams(2, 3)
    assert balanced_max_length(params23) == [lambda_power(params23, 1)]
    found = balanced_max_length(GroupParams(4, 3))
    assert len(found) == 3


def test_balanced_census_lists_the_group_once(monkeypatch):
    """Every candidate's scan reads one list of G, made by the census; a
    candidate tested alone lists G itself."""
    from geen_garside import interval as interval_module

    calls = []
    listing = interval_module.enumerate_group
    monkeypatch.setattr(
        interval_module, "enumerate_group", lambda params: calls.append(params) or listing(params)
    )
    params = GroupParams(4, 3)
    assert len(balanced_max_length(params)) == 3 and calls == [params]
    assert is_balanced(lambda_power(params, 2)) and len(calls) == 2


def test_divisor_theorem_oracle_reports_a_disagreement(monkeypatch):
    """The scan raises as soon as a divisor search contradicts membership."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError, divisor_theorem_oracle

    params = GroupParams(3, 3, 1)
    iv = cached_interval(3, 3, 1)
    divisor_theorem_oracle(iv)
    outsider = next(w for w in enumerate_group(params) if w not in iv.index)
    honest = interval_module.left_divides
    monkeypatch.setattr(
        interval_module, "left_divides", lambda a, b: a == outsider or honest(a, b)
    )
    with pytest.raises(TheoremViolationError, match="staircase criterion"):
        divisor_theorem_oracle(iv)


def _divisor_scan_calls(monkeypatch, params: GroupParams) -> int:
    """left_divides calls made by the divisor-theorem scan of one interval."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import divisor_theorem_oracle

    iv = cached_interval(*params)
    calls = []
    honest = interval_module.left_divides

    def counted(a, b):
        calls.append(1)
        return honest(a, b)

    monkeypatch.setattr(interval_module, "left_divides", counted)
    divisor_theorem_oracle(iv)
    monkeypatch.undo()
    return len(calls)


def test_divisor_scan_makes_two_tests_per_group_element(monkeypatch):
    """The divisor-theorem scan at (3,3,2) makes exactly 2 |G| = 108
    left_divides calls, one on w and one on its transpose; the benchmark's
    traced interval.divisor_scan_calls counts the same calls."""
    params = GroupParams(3, 3, 2)
    calls = _divisor_scan_calls(monkeypatch, params)
    assert calls == 2 * params.order() == 108, (
        f"the divisor scan made {calls} left_divides calls, not 2 |G| = "
        f"{2 * params.order()}; the benchmark asserts 2 |G| divisor tests per build"
    )


@pytest.mark.parametrize("point", [(4, 3, 2), (2, 4, 1)])
def test_divisor_scan_makes_two_tests_per_group_element_elsewhere(monkeypatch, point):
    """The 2 |G| count holds off (3,3,2) too, in rank 3 and in rank 4."""
    params = GroupParams(*point)
    assert _divisor_scan_calls(monkeypatch, params) == 2 * params.order()


@pytest.mark.parametrize("point", [(3, 3, 2), (2, 4, 1)])
def test_divisor_scan_covers_each_element_twice(monkeypatch, point):
    """The scan tests every element of G as a divisor of lambda^k exactly
    twice: once as w and once as the transpose of w^T.  The calls come in
    pairs, an element and then its transpose."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import divisor_theorem_oracle

    params = GroupParams(*point)
    iv = cached_interval(*point)
    delta = lambda_power(params, params.k)
    tested = []
    honest = interval_module.left_divides

    def spy(a, b):
        assert b == delta
        tested.append(a)
        return honest(a, b)

    monkeypatch.setattr(interval_module, "left_divides", spy)
    divisor_theorem_oracle(iv)
    monkeypatch.undo()
    group = enumerate_group(params)
    assert sorted(tested) == sorted(group + group)
    assert tested[1::2] == [transpose(GroupElement(*w)) for w in tested[::2]]


def test_divisor_scan_names_a_group_element(monkeypatch):
    """The scan runs on plain tuples, but its error names a GroupElement."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError, divisor_theorem_oracle

    iv = cached_interval(3, 3, 2)
    monkeypatch.setattr(interval_module, "left_divides", lambda a, b: True)
    with pytest.raises(TheoremViolationError, match=r"at GroupElement\(e=3, perm="):
        divisor_theorem_oracle(iv)


def test_left_divides_reads_plain_tuples():
    """A plain (e, perm, exps) tuple gets the answer of its GroupElement,
    against lambda and against a divisor that is not diagonal; plain tuples
    from different groups are refused."""
    params = GroupParams(3, 3)
    lam = lambda_power(params, 1)
    other = evaluate_word([Generator("t", 1), Generator("s", 3)], params)
    assert other.perm != (1, 2, 3)
    group = enumerate_group(params)
    for b in (lam, other):
        answers = [left_divides(w, b) for w in group]
        assert [left_divides(tuple(w), b) for w in group] == answers
        assert any(answers) and not all(answers)
    for a, b in [((3, (1, 2, 3), (0, 0, 0)), (4, (1, 2, 3), (0, 0, 0))),
                 ((3, (1, 2), (0, 0)), (3, (1, 2, 3), (0, 0, 0)))]:
        with pytest.raises(ParameterMismatchError, match="cannot divide elements"):
            left_divides(a, b)


def test_element_constructors_return_group_elements():
    """Plain tuples compare equal to elements, so only the type shows a
    constructor that leaks one."""
    from geen_garside.core import group_elements

    params = GroupParams(3, 3)
    a = evaluate_word([Generator("t", 1), Generator("s", 3)], params)
    b = generator_matrix(Generator("t", 2), params)
    built = [
        multiply(a, b), inverse(a), transpose(a), left_quotient(a, b), b,
        lambda_power(params, 1), identity(params), *group_elements(params),
    ]
    for point in [(3, 3, 1), (4, 4, 2)]:
        built += cached_interval(*point).members
    assert all(type(x) is GroupElement for x in built)


def test_divisibility_tables_against_the_definition_on_small_grid_points():
    """Every bit of both tables equals the length-additivity test: bit a of
    div_left[b] is left_divides(a, b), and bit a of the right row of b, read
    through the transpose, is right_divides(a, b).
    Covers each default-grid point with |D| <= 200 (n = 2, 3 and (2,4,1))."""
    checked = 0
    for c in default_grid():
        interval = cached_interval(c.e, c.n, c.k)
        if len(interval) > 200:
            continue
        checked += 1
        members = interval.members
        for b, (wb, right) in enumerate(zip(members, right_rows(interval))):
            left = interval.div_left[b]
            for a, wa in enumerate(members):
                assert (left >> a) & 1 == left_divides(wa, wb), (c, a, b)
                assert (right >> a) & 1 == right_divides(wa, wb), (c, a, b)
    assert checked == 31


def test_build_makes_one_product_per_right_cover(monkeypatch):
    """Each right cover x*b of a build is one row move: 9,072 at (3,5,1).
    The t-atoms shorten b all together or one at a time, so `length_decreases`
    is called once per member whose sigma(1) < sigma(2), on t_0, and decides
    for all e t-atoms; the other members have exactly one t-cover.  The only
    group products left are one x*lambda^k per atom, which check the row
    moves; the left table and comp_right come from lookups."""
    from geen_garside import core
    from geen_garside import interval as interval_module

    products, shortening = [], []
    honest_multiply = interval_module.multiply
    honest_decreases = interval_module.length_decreases

    def counted_multiply(u, v):
        products.append((u, v))
        return honest_multiply(u, v)

    def counted_decreases(x, w):
        out = honest_decreases(x, w)
        shortening.append((x, w, out))
        return out

    monkeypatch.setattr(interval_module, "multiply", counted_multiply)
    monkeypatch.setattr(interval_module, "length_decreases", counted_decreases)
    params = GroupParams(3, 5, 1)
    interval = build_interval(params)
    covers = sum(1 for row in interval.down_left for v in row if v >= 0)
    assert covers == 9072
    ordered = [w for w in interval.members if w.perm[0] < w.perm[1]]
    assert len(shortening) == len(ordered) == 1386
    assert {x for x, _, _ in shortening} == {Generator("t", 0)}
    assert sorted(w for _, w, _ in shortening) == sorted(ordered)
    t_covers = sum(1 for row in interval.down_left[:3] for v in row if v >= 0)
    shortened = sum(out for _, _, out in shortening)
    assert t_covers == 3 * shortened + len(interval) - len(ordered)
    delta = lambda_power(params, 1)
    assert products == [(generator_matrix(x, params), delta) for x in atoms(params)]
    assert not hasattr(interval_module, "inverse")
    assert not hasattr(interval_module, "left_quotient")
    assert not hasattr(core, "transpose_generator")


@pytest.mark.parametrize("point", [(2, 5, 1)] + [
    tuple(c) for c in default_grid() if c.n >= 3
], ids=str)
def test_transposes_and_complements_against_core(point):
    """Oracle for the per-permutation reads of the build: flip and comp_left
    agree member by member with `core.transpose` and `core.left_quotient`,
    the generic products that the build no longer forms."""
    interval = cached_interval(*point)
    index = interval.index
    delta = interval.members[interval.delta_ordinal]
    assert delta == lambda_power(interval.params, interval.k)
    for s, w in enumerate(interval.members):
        assert interval.flip[s] == index[transpose(w)], (point, s)
        assert interval.comp_left[s] == index[left_quotient(w, delta)], (point, s)


@pytest.mark.parametrize("e,n,k", [(2, 4, 1), (3, 5, 1), (6, 4, 2), (4, 3, 2)])
def test_atom_tables_are_the_shortening_products(e, n, k):
    """Oracle for the row moves: down_left[p][b] is the ordinal of the matrix
    product x_p * b where x_p shortens b, by `length_decreases`, and -1
    where it does not; head_left[b] is the first shortening atom."""
    interval = cached_interval(e, n, k)
    params = interval.params
    gens = atoms(params)
    heads = [-1] * len(interval)
    for p in reversed(range(len(gens))):
        x = gens[p]
        xmat = generator_matrix(x, params)
        row = interval.down_left[p]
        for b, w in enumerate(interval.members):
            if row[b] >= 0:
                assert length_decreases(x, w), (x, b)
                assert row[b] == interval.index[multiply(xmat, w)], (x, b)
                heads[b] = p
            else:
                assert row[b] == -1 and not length_decreases(x, w), (x, b)
    assert interval.head_left == heads


def _table_digest(interval) -> str:
    """sha256 over the members, lengths and every per-ordinal table, the
    right divisibility rows derived through the transpose."""
    payload = [
        [[list(w.perm), list(w.exps)] for w in interval.members],
        list(interval.lengths), list(interval.div_left), right_rows(interval),
        list(interval.comp_left), list(interval.head_left),
        [list(row) for row in interval.down_left],
    ]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("e,n,k,digest", [
    (3, 3, 1, "9cff3caf916da7eaa896f010d92825a68b97c2b516f66ad7c54b8e2d4a64a096"),
    (4, 3, 2, "047451ef080153ea928159ef20ce322d78a694e5bffdfc8fec301e8eac9ab611"),
    (6, 4, 2, "3e550b6424f00500c330c4a51ab8c1578c7ca414caabd44986c21b7dc6a1465f"),
    (2, 5, 1, "790f4f7a673fa92e484af500f90208b1ebe53b176d21d524c260a4f366c97bd5"),
    (3, 5, 1, "c33e4aaa9bbde407541a8315a74a1911841d0ecbda6345369e22a4281bf9341a"),
])
def test_interval_tables_are_golden(e, n, k, digest):
    """Ordinals feed `interval --export`, the normal-form goldens and
    `freeze`, so a build must reproduce its tables bit for bit."""
    assert _table_digest(cached_interval(e, n, k)) == digest


def test_build_checks_transposes_and_complements(monkeypatch):
    """Each fault is injected where the build reads: a row getter that
    keeps the rows in place sends transposes out of the interval, an
    exponent table of lambda^k read as all 0 sends every member of a
    permutation to one complement, and a wrong product of an atom with
    lambda^k fails the check of the row moves."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError

    params = GroupParams(3, 3, 1)
    honest = interval_module.inverse_order
    with monkeypatch.context() as m:
        m.setattr(interval_module, "inverse_order", lambda perm: (honest(perm)[0], tuple))
        with pytest.raises(TheoremViolationError, match="transpose of a member"):
            build_interval(params)
    with monkeypatch.context() as m:
        m.setattr(interval_module, "getitem", lambda table, x: 0)
        with pytest.raises(TheoremViolationError, match="not a permutation"):
            build_interval(params)
    with monkeypatch.context() as m:
        m.setattr(interval_module, "multiply", lambda u, v: identity(params))
        with pytest.raises(TheoremViolationError, match="row move of t0"):
            build_interval(params)


def test_build_checks_the_top_and_the_divisors_of_lambda_k(monkeypatch):
    """lambda^k must be the last ordinal, and the left table must give it
    every member as a divisor."""
    from geen_garside import interval as interval_module
    from geen_garside.interval import TheoremViolationError

    params = GroupParams(3, 3, 1)
    for wrong in (identity(params), lambda_power(params, 2)):  # below the top, outside
        with monkeypatch.context() as m:
            m.setattr(interval_module, "lambda_power", lambda params, k: wrong)
            with pytest.raises(TheoremViolationError, match="lambda\\^k is not the top member"):
                build_interval(params)
    # t-descents found on lambda^k alone: its row moves agree with their
    # products, but the closure of the left table misses members
    delta = lambda_power(params, 1)
    honest = interval_module.length_decreases
    monkeypatch.setattr(
        interval_module, "length_decreases", lambda x, w: w == delta and honest(x, w)
    )
    with pytest.raises(TheoremViolationError, match="some member does not left-divide lambda\\^k"):
        build_interval(params)
