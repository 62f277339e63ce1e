import itertools
import json
import random

import pytest

from geen_garside import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    NormalForm,
    ParameterMismatchError,
    atoms,
    enumerate_group,
    evaluate_word,
    generator_matrix,
    identity,
    inverse,
    lambda_power,
    left_divides,
    left_quotient,
    multiply,
    parse_word,
    transpose,
)
from geen_garside import AbelianGroup, LatticeReport, LatticeViolation, Presentation, __version__
from geen_garside.cli import RegressionRecord
from geen_garside.core import alternating, braid_m, lcm_word
from geen_garside.snf import SNFResult
from conftest import element_of_matrix, matrix_of, matrix_product


def test_params_validation():
    with pytest.raises(ValueError, match="e must be >= 2"):
        GroupParams(1, 3)
    with pytest.raises(ValueError, match="n must be >= 2"):
        GroupParams(3, 1)
    with pytest.raises(ValueError, match="k must satisfy"):
        GroupParams(3, 3, 3)
    with pytest.raises(ValueError, match="k must satisfy"):
        GroupParams(3, 3, 0)
    assert GroupParams(3, 3, 2).order() == 54


@pytest.mark.parametrize(
    "args, field",
    [((3.0, 3, 1), "e"), ((3, 3, True), "k"), (("3", 3), "e"), ((3, 3.0), "n"), ((3, False), "n")],
)
def test_params_must_be_integers(args, field):
    """A float, a bool or a string is refused up front, naming the field,
    not later by the interval build."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        GroupParams(*args)


def test_identity_shape():
    w = identity(GroupParams(3, 3))
    assert w.perm == (1, 2, 3)
    assert w.exps == (0, 0, 0)
    assert w.is_identity()


def test_identity_neutral_exhaustive_g332():
    params = GroupParams(3, 2)
    one = identity(params)
    for w in enumerate_group(params):
        assert multiply(one, w) == w
        assert multiply(w, one) == w


def test_generator_matrices():
    params = GroupParams(3, 3)
    t0 = generator_matrix(Generator("t", 0), params)
    assert t0.perm == (2, 1, 3) and t0.exps == (0, 0, 0)
    t1 = generator_matrix(Generator("t", 1), params)
    assert t1.perm == (2, 1, 3) and t1.exps == (2, 1, 0)  # -1 is 2 mod 3
    s3 = generator_matrix(Generator("s", 3), params)
    assert s3.perm == (1, 3, 2) and s3.exps == (0, 0, 0)
    with pytest.raises(ValueError):
        generator_matrix(Generator("t", 3), params)
    with pytest.raises(ValueError):
        generator_matrix(Generator("s", 4), params)


def test_generators_are_involutions():
    for e, n in [(2, 2), (3, 3), (4, 4)]:
        params = GroupParams(e, n)
        for x in atoms(params):
            m = generator_matrix(x, params)
            assert multiply(m, m).is_identity()


def test_multiply_against_matrix_oracle_exhaustive_g332():
    params = GroupParams(3, 2)
    group = enumerate_group(params)
    for u in group:
        for v in group:
            expected = element_of_matrix(
                matrix_product(matrix_of(u), matrix_of(v), 3), 3
            )
            assert multiply(u, v) == expected


def test_multiply_against_matrix_oracle_sampled_g333():
    params = GroupParams(3, 3)
    group = enumerate_group(params)
    for u in group[::7]:
        for v in group[::5]:
            expected = element_of_matrix(
                matrix_product(matrix_of(u), matrix_of(v), 3), 3
            )
            assert multiply(u, v) == expected


def test_permutation_braid_identity():
    params = GroupParams(3, 4)
    s3 = generator_matrix(Generator("s", 3), params)
    s4 = generator_matrix(Generator("s", 4), params)
    assert multiply(multiply(s3, s4), s3) == multiply(multiply(s4, s3), s4)


def test_dual_dihedral_relation_g332():
    params = GroupParams(3, 2)
    t = [generator_matrix(Generator("t", i), params) for i in range(3)]
    assert multiply(t[1], t[0]) == multiply(t[2], t[1])


def test_parameter_mismatch():
    with pytest.raises(ParameterMismatchError):
        multiply(identity(GroupParams(3, 2)), identity(GroupParams(3, 3)))


def test_inverse_exhaustive_g333():
    params = GroupParams(3, 3)
    group = enumerate_group(params)
    assert len(group) == 54
    for w in group:
        assert multiply(w, inverse(w)).is_identity()
        assert multiply(inverse(w), w).is_identity()


def _transpose_by_entries(w):
    """Entry (i, sigma(i)) of w goes to (sigma(i), i) with the same exponent."""
    n = w.n
    perm = [0] * n
    exps = [0] * n
    for i in range(1, n + 1):
        column, exponent = w.entry_of_row(i)
        perm[column - 1] = i
        exps[column - 1] = exponent
    return GroupElement(w.e, tuple(perm), tuple(exps))


def test_inverse_and_transpose_exhaustive_g335():
    """Every one of the 120 permutations of n = 5, against references that
    never read the per-permutation table.  e = 3, since mod 2 a negated
    exponent equals itself."""
    group = enumerate_group(GroupParams(3, 5))
    assert len(group) == 9720
    assert len({w.perm for w in group}) == 120
    for w in group:
        assert multiply(w, inverse(w)).is_identity()
        assert multiply(inverse(w), w).is_identity()
        assert transpose(w) == _transpose_by_entries(w)
        assert transpose(transpose(w)) == w


@pytest.mark.parametrize("e,n,step", [(3, 3, 1), (2, 4, 5)])
def test_row_getter_operations_are_their_matrix_definitions(e, n, step):
    """transpose, inverse (the conjugate transpose) and left_quotient read
    rows through the getter that `inverse_order` caches per permutation.
    Each equals its matrix definition on every element a, against every
    step-th b for the quotient."""
    group = enumerate_group(GroupParams(e, n))
    for a in group:
        plain = [list(column) for column in zip(*matrix_of(a))]
        conjugate = [[None if x is None else -x % e for x in row] for row in plain]
        assert transpose(a) == element_of_matrix(plain, e)
        assert inverse(a) == element_of_matrix(conjugate, e)
        for b in group[::step]:
            product = matrix_product(conjugate, matrix_of(b), e)
            assert left_quotient(a, b) == element_of_matrix(product, e)


def test_row_getter_operations_on_a_1x1_element():
    """`itemgetter` with one index returns a scalar, not a tuple; the row
    getter of a 1 x 1 permutation must still give tuples."""
    w = GroupElement(3, (1,), (0,))
    assert transpose(w) == inverse(w) == left_quotient(w, w) == w == (3, (1,), (0,))


def test_left_quotient_is_a_left_quotient_sampled_g335():
    group = enumerate_group(GroupParams(3, 5))
    rng = random.Random(335)
    for _ in range(3000):
        a, b = rng.choice(group), rng.choice(group)
        assert multiply(a, left_quotient(a, b)) == b


def test_inverse_of_generators():
    params = GroupParams(4, 3)
    assert inverse(identity(params)).is_identity()
    for x in atoms(params):
        m = generator_matrix(x, params)
        assert inverse(m) == m


def test_exponent_sum_invariant():
    params = GroupParams(4, 3)
    group = enumerate_group(params)
    for w in group[::11]:
        assert sum(w.exps) % 4 == 0
        for v in group[::13]:
            assert sum(multiply(w, v).exps) % 4 == 0
        assert sum(inverse(w).exps) % 4 == 0


def test_enumerate_counts_and_order():
    assert len(enumerate_group(GroupParams(2, 2))) == 4
    group = enumerate_group(GroupParams(3, 3))
    assert len(group) == 54
    assert len(set(group)) == 54
    keys = [(w.perm, w.exps) for w in group]
    assert keys == sorted(keys)
    assert identity(GroupParams(3, 3)) in group
    assert lambda_power(GroupParams(3, 3), 1) in group


@pytest.mark.parametrize("e,n", [(2, 2), (5, 2), (3, 3), (4, 4)])
def test_enumerate_equals_the_filtered_product(e, n):
    """Completing each exponent head by the sum rule lists the same elements,
    in the same order, as filtering every exponent vector."""
    expected = [
        GroupElement(e, perm, exps)
        for perm in itertools.permutations(range(1, n + 1))
        for exps in itertools.product(range(e), repeat=n)
        if sum(exps) % e == 0
    ]
    assert enumerate_group(GroupParams(e, n)) == expected


def test_enumerate_matches_order_formula():
    for e, n in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3)]:
        params = GroupParams(e, n)
        assert len(enumerate_group(params)) == params.order()


def test_enumerate_cap(monkeypatch):
    """Enumeration and the BFS oracle are admitted by one check, whose
    error names the predicted order and the knob; the stream is refused
    when it is asked for, before its first element."""
    from geen_garside import cayley_length_table
    from geen_garside.core import group_elements

    monkeypatch.setenv("GARSIDE_CAP", "100")
    for build in (enumerate_group, cayley_length_table, group_elements):
        with pytest.raises(CapExceededError, match=r"\| = 5184 exceeds .*GARSIDE_CAP"):
            build(GroupParams(6, 4))


def test_format_count_never_makes_a_string_past_the_limit():
    """Counts of up to COUNT_DIGITS = 30 digits come out in decimal; longer
    ones, far below Python's limit for int-to-str conversion, as the count
    of digits read from bit_length, which is exact or one over."""
    from geen_garside.core import COUNT_DIGITS, format_count

    assert COUNT_DIGITS == 30
    assert format_count(54) == "54"
    assert format_count(13005619200) == "13005619200"
    assert format_count(10**30 - 1) == "9" * 30
    for m in (30, 4299, 4300, 5000, 20000):
        text = format_count(10**m)
        assert text in (f"<about {m + 1} digits>", f"<about {m + 2} digits>")
    # a negative, as a JSON element's e can be, keeps its sign
    assert format_count(-54) == "-54"
    assert format_count(-(10**4000)) in ("-<about 4001 digits>", "-<about 4002 digits>")


def test_read_count_reads_ascii_digits_of_any_length():
    """`int()` reads up to 640 digits and `decimal` past that, so the value
    is exact on both sides of 640 and past int()'s 4,300; a sign, spaces,
    "_", a non-ASCII digit or nothing is refused, naming the value."""
    from geen_garside.core import read_count

    assert read_count("0", "--k") == 0 and read_count("007", "--k") == 7
    for digits in (640, 641, 5000):
        assert read_count("7" * digits, "--n") == (10**digits - 1) // 9 * 7
    for text in ("+1", "-1", " 3 ", "1_0", "\u0663", "1.5", "", "x" * 100):
        with pytest.raises(ValueError, match=r"^--e=.* is not a positive integer$"):
            read_count(text, "--e")


def test_shown_cuts_a_long_value_to_40_characters_and_its_length():
    from geen_garside.core import shown

    assert shown("t0") == "'t0'" and shown("x" * 40) == repr("x" * 40)
    assert shown("x" * 41) == f"{'x' * 40!r}... (41 characters)"
    assert shown(3.0) == "3.0" and shown([1, 2]) == "[1, 2]"
    long_list = list(range(100))
    assert shown(long_list) == f"{repr(long_list)[:40]!r}... ({len(repr(long_list))} characters)"
    # 40 bytes of UTF-8, not 40 characters: ten 4-byte characters, and a
    # repr's escapes count as they are written
    smile, nul, e_acute = "\U0001F600", "\x00", "\u00e9"
    assert shown(smile * 1000) == repr(smile * 10) + "... (1000 characters)"
    assert shown(nul * 30) == repr(nul * 10) + "... (30 characters)"
    assert shown(e_acute * 20) == repr(e_acute * 20)


@pytest.mark.parametrize("text, message", [
    ('{"e":"3","n":2,"perm":"x","exps":[0,0]}', "^e must be an integer, got '3'$"),
    ('{"e":3,"n":true,"perm":[1,2],"exps":"x"}', "^n must be an integer, got True$"),
    ('{"e":3,"n":2,"perm":[1,2],"exps":[0,0.0]}', r"^exps must be a list of integers"),
])
def test_from_json_reads_e_and_n_through_group_params(text, message):
    """e and n are checked by GroupParams, naming the field, before the
    lists are read."""
    with pytest.raises(ValueError, match=message):
        GroupElement.from_json(text)


@pytest.mark.parametrize("perm, exps, message", [
    ([1, 2], [0, 0], "^perm has length 2, expected n=3$"),
    ([1, 1, 2], [0, 0, 0], r"^perm \(1, 1, 2\) is not a permutation of 1..3$"),
    ([3, 1, 2], [0, 0], "^exps and perm have different lengths$"),
    ([3, 1, 2], [1, 3, 2], r"^exponents \(1, 3, 2\) out of range mod 3$"),
    ([3, 1, 2], [-1, 1, 0], r"^exponents \(-1, 1, 0\) out of range mod 3$"),
    ([3, 1, 2], [1, 1, 0], r"^exponent sum of \(1, 1, 0\) is not 0 mod 3$"),
])
def test_from_json_refuses_an_element_outside_the_group(perm, exps, message):
    """Each of the element checks names what is wrong, for n = 3, e = 3."""
    text = json.dumps({"e": 3, "n": 3, "perm": perm, "exps": exps})
    with pytest.raises(ValueError, match=message):
        GroupElement.from_json(text)


def test_admit_draws_no_factor_past_the_one_that_crosses_the_bound():
    """`admit` returns the exact product up to the cap; above it, the error
    gives the exact size below max(cap, 10^COUNT_DIGITS) and "more than"
    that bound past it, and no factor after the crossing one is drawn."""
    from geen_garside.core import admit, admit_group

    def factors(*values):
        yield from values
        raise AssertionError("a factor past the bound was drawn")

    assert admit("x", iter([2, 3, 9]), 54, "K") == 54
    with pytest.raises(CapExceededError, match=r"^x = 54 exceeds the cap 53 \(set by K\)$"):
        admit("x", [2, 3, 9], 53, "K")
    with pytest.raises(CapExceededError, match=r"^x = more than <about 31 digits> exceeds"):
        admit("x", factors(10**29, 11), 53, "K")
    with pytest.raises(CapExceededError, match=r"^x = more than <about 31 digits> exceeds"):
        admit("x", itertools.repeat(2), 53, "K")
    # a cap above 10^30 is its own bound
    with pytest.raises(CapExceededError, match=r"more than <about 4[12] digits> exceeds the cap <"):
        admit("x", factors(10**20, 10**21, 10), 10**40, "K")
    assert admit("x", [10**20, 10**20], 10**40, "K") == 10**40
    assert admit_group(GroupParams(3, 3)) == 54 == GroupParams(3, 3).order()


def test_lambda_power_values():
    params = GroupParams(3, 3)
    lam = lambda_power(params, 1)
    assert lam.perm == (1, 2, 3)
    assert lam.exps == (1, 1, 1)  # -2 is 1 mod 3
    assert lambda_power(params, 0).is_identity()
    lam2 = lambda_power(params, 2)
    assert lam2 == multiply(lam, lam)


def test_lambda_power_refuses_a_negative_exponent_in_one_short_line():
    """A negative exponent is named through `format_count`, so one past
    Python's 4,300-digit string limit is refused in lambda_power's own
    words, not by the limit's ValueError."""
    params = GroupParams(3, 3)
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -3$"):
        lambda_power(params, -3)
    with pytest.raises(ValueError) as info:
        lambda_power(params, -(10**5000))
    assert str(info.value) in (
        "k must be >= 0, got -<about 5001 digits>", "k must be >= 0, got -<about 5002 digits>"
    )


def test_an_unknown_generator_kind_is_shown_cut():
    params = GroupParams(3, 3)
    with pytest.raises(ValueError, match=r"^unknown generator kind 'u'$"):
        generator_matrix(Generator("u", 0), params)
    with pytest.raises(ValueError) as info:
        generator_matrix(Generator("u" * 100000, 0), params)
    assert str(info.value) == f"unknown generator kind {'u' * 40!r}... (100000 characters)"


def test_transpose_is_antiautomorphism():
    params = GroupParams(4, 3)
    group = enumerate_group(params)
    for u in group[::9]:
        for v in group[::7]:
            assert transpose(multiply(u, v)) == multiply(transpose(v), transpose(u))
    t1 = generator_matrix(Generator("t", 1), params)
    assert transpose(t1) == generator_matrix(Generator("t", 3), params)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cp_presentation_relations_hold(e, n):
    """All defining relations of the reflection-group presentation, as matrices."""
    params = GroupParams(e, n)

    def value(word):
        return evaluate_word(word, params)

    t = [Generator("t", i) for i in range(e)]
    s = {j: Generator("s", j) for j in range(3, n + 1)}
    for x in atoms(params):
        assert value([x, x]).is_identity()
    for i in range(e):
        for j in range(e):
            assert value([t[i], t[(i - 1) % e]]) == value([t[j], t[(j - 1) % e]])
    if n >= 3:
        for i in range(e):
            assert value([s[3], t[i], s[3]]) == value([t[i], s[3], t[i]])
    for j in range(4, n + 1):
        for i in range(e):
            assert value([s[j], t[i]]) == value([t[i], s[j]])
    for j in range(3, n):
        assert value([s[j], s[j + 1], s[j]]) == value([s[j + 1], s[j], s[j + 1]])
    for j in range(3, n + 1):
        for jj in range(j + 2, n + 1):
            assert value([s[j], s[jj]]) == value([s[jj], s[j]])


@pytest.mark.parametrize("e,n", [(2, 4), (3, 5), (4, 4)])
def test_braid_m_is_the_order_of_the_pair(e, n):
    """For distinct atoms x, y with m = braid_m(x, y) > 0, the alternating
    words of m letters agree as matrices and the shorter ones do not; two
    t's read 0."""
    params = GroupParams(e, n)
    for x, y in itertools.permutations(atoms(params), 2):
        m = braid_m(x, y)
        assert m == braid_m(y, x)
        if x.kind == y.kind == "t":
            assert m == 0
            continue
        assert m in (2, 3)
        for shorter in range(1, m):
            assert evaluate_word(alternating(x, y, shorter), params) != evaluate_word(
                alternating(y, x, shorter), params
            )
        assert evaluate_word(alternating(x, y, m), params) == evaluate_word(
            alternating(y, x, m), params
        )
    t0, s3 = Generator("t", 0), Generator("s", 3)
    assert alternating(t0, s3, 3) == (t0, s3, t0)
    assert alternating(s3, t0, 2) == (s3, t0)
    assert alternating(t0, s3, 0) == ()


@pytest.mark.parametrize("e,n,k", [(2, 4, 1), (4, 4, 2), (6, 3, 4)])
def test_lcm_word_ends_in_its_second_atom(e, n, k):
    """lcm_word(x, y) ends in y and equals lcm_word(y, x) as a matrix; it has
    braid_m(x, y) letters, or two for two t's."""
    params = GroupParams(e, n, k)
    for x, y in itertools.permutations(atoms(params), 2):
        word = lcm_word(x, y, params)
        assert word[-1] == y
        assert len(word) == (braid_m(x, y) or 2)
        assert evaluate_word(word, params) == evaluate_word(lcm_word(y, x, params), params)
    t1, t3, s3 = Generator("t", 1), Generator("t", 3), Generator("s", 3)
    assert lcm_word(t1, t3, params) == (Generator("t", (3 + k) % e), t3)
    assert lcm_word(t1, s3, params) == (s3, t1, s3)


def test_json_round_trip():
    w = GroupElement(3, (4, 2, 3, 1), (0, 2, 1, 0))
    assert w.to_json() == '{"e":3,"exps":[0,2,1,0],"n":4,"perm":[4,2,3,1]}'
    assert GroupElement.from_json(w.to_json()) == w
    with pytest.raises(ValueError):
        GroupElement.from_json('{"e":3,"n":2,"perm":[1,2],"exps":[1,1]}')


@pytest.mark.parametrize(
    "text",
    ['{"e":3,"n":0,"perm":[],"exps":[]}', '{"e":3,"n":1,"perm":[1],"exps":[0]}'],
    ids=["n0", "n1"],
)
def test_from_json_refuses_n_below_2(text):
    """Like GroupParams, from_json supports no group G(e,e,n) with n < 2."""
    with pytest.raises(ValueError, match="n must be >= 2"):
        GroupElement.from_json(text)


def test_from_json_refuses_deep_nesting_as_a_value_error():
    """The JSON parser recurses once per bracket; nesting past the
    interpreter's recursion limit is a malformed element, not a crash."""
    with pytest.raises(ValueError, match="nested too deeply"):
        GroupElement.from_json("[" * 100000 + "]" * 100000)


def test_left_quotient_matches_inverse_product_exhaustive_g333():
    group = enumerate_group(GroupParams(3, 3))
    for a in group:
        inv = inverse(a)
        for b in group:
            assert left_quotient(a, b) == multiply(inv, b)


def test_left_quotient_matches_inverse_product_sampled_g444():
    group = enumerate_group(GroupParams(4, 4))
    rng = random.Random(444)
    for _ in range(3000):
        a, b = rng.choice(group), rng.choice(group)
        assert left_quotient(a, b) == multiply(inverse(a), b)


def test_left_quotient_refuses_mixed_groups():
    a = identity(GroupParams(3, 3))
    for b in (identity(GroupParams(4, 3)), identity(GroupParams(3, 4))):
        for op in (left_quotient, multiply, left_divides):
            with pytest.raises(ParameterMismatchError):
                op(a, b)
            with pytest.raises(ParameterMismatchError):
                op(b, a)


_VIOLATION = LatticeViolation("left", "meet", (1, 2), (3, 4))


@pytest.mark.parametrize(
    "value, fields, text",
    [
        (
            GroupElement(3, (1, 2, 3), (0, 0, 0)),
            (3, (1, 2, 3), (0, 0, 0)),
            "GroupElement(e=3, perm=(1, 2, 3), exps=(0, 0, 0))",
        ),
        (Generator("s", 3), ("s", 3), "Generator(kind='s', index=3)"),
        (NormalForm(2, (5, 7)), (2, (5, 7)), "NormalForm(delta_power=2, factors=(5, 7))"),
        (GroupParams(3, 4, 2), (3, 4, 2), "GroupParams(e=3, n=4, k=2)"),
        (GroupParams(3, 4), (3, 4, None), "GroupParams(e=3, n=4, k=None)"),
        (
            _VIOLATION,
            ("left", "meet", (1, 2), (3, 4)),
            "LatticeViolation(side='left', operation='meet', pair=(1, 2), antichain=(3, 4))",
        ),
        (
            LatticeReport(False, _VIOLATION),
            (False, _VIOLATION),
            "LatticeReport(all_ok=False, counterexample="
            "LatticeViolation(side='left', operation='meet', pair=(1, 2), antichain=(3, 4)))",
        ),
        (
            Presentation((Generator("t", 0),), ()),
            ((("t", 0),), ()),
            "Presentation(generators=(Generator(kind='t', index=0),), relations=())",
        ),
        (AbelianGroup(1, (2, 4)), (1, (2, 4)), "AbelianGroup(free_rank=1, torsion=(2, 4))"),
        (RegressionRecord("k", 3), ("k", 3), "RegressionRecord(key='k', value=3)"),
    ],
)
def test_value_records_hash_as_their_fields(value, fields, text):
    """Set and dict order, and so every golden file, rests on these hashes."""
    assert hash(value) == hash(fields)
    assert value == fields
    assert repr(value) == text
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


def test_smith_result_is_a_record_of_its_fields():
    """The diagonal is a list, so the record is unhashable like its fields."""
    res = SNFResult([1, 2, 6, 0], 3)
    assert res == ([1, 2, 6, 0], 3)
    assert repr(res) == "SNFResult(diagonal=[1, 2, 6, 0], rank=3)"
    assert res.invariant_factors == [1, 2, 6] and res.torsion == [2, 6]
    with pytest.raises(TypeError):
        hash(res)
    with pytest.raises(AttributeError):
        res.rank = 2


def test_record_defaults_and_properties():
    assert GroupParams(3, 3).k is None
    report = LatticeReport(True)
    assert report.counterexample is None and report.all_ok
    report = LatticeReport(False, _VIOLATION)
    assert not report.all_ok and report.counterexample is _VIOLATION
    record = RegressionRecord("key", {"b": 1, "a": [2]})
    assert record.line() == f'{{"key":"key","value":{{"a":[2],"b":1}},"version":"{__version__}"}}'


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, ()), "free rank must be >= 0"),
        ((0, (4, 6)), "not a divisibility chain"),
        ((0, (1, 2)), "must exceed 1"),
        ((2, (0,)), "must exceed 1"),
    ],
)
def test_abelian_group_validation(args, message):
    with pytest.raises(ValueError, match=message):
        AbelianGroup(*args)


def test_generators_sort_by_kind_then_index():
    gens = [Generator("t", 2), Generator("s", 4), Generator("t", 0), Generator("s", 3)]
    assert sorted(gens) == [
        Generator("s", 3), Generator("s", 4), Generator("t", 0), Generator("t", 2)
    ]
    assert str(Generator("t", 2)) == "t2"


def test_word_parsing():
    params = GroupParams(3, 4)
    word = parse_word("t0 s3 t1 t0 s4 s3 t0", params)
    assert [str(x) for x, _ in word] == ["t0", "s3", "t1", "t0", "s4", "s3", "t0"]
    assert {sign for _, sign in word} == {1}
    signed = parse_word("t0 t1^-1", params)
    assert signed == [(Generator("t", 0), 1), (Generator("t", 1), -1)]
    with pytest.raises(ValueError):
        parse_word("q7", params)
    with pytest.raises(ValueError):
        parse_word("t9", params)
    # indices are ASCII digits only: no sign, underscore or other Unicode digit
    for text in ("s+3", "t\u0660", "t-0", "t0_0", "s\u00b3"):
        with pytest.raises(ValueError):
            parse_word(text, params)
