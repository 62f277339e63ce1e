"""
The interval Garside monoid on [1, lambda^k] and its group of fractions.

Monoid elements are only ever touched through their left-greedy normal form
Delta^p f_1 ... f_m: an integer power of the Garside element Delta
(= lambda^k) followed by simples, none of them trivial or Delta, with every
adjacent pair (a, b) left-weighted: no atom can move from the head of b into
a, i.e. meet(complement(a), b) = 1.  Two words represent the same group
element exactly when their normal forms coincide, which settles the word
problem.

Above the interval, simples are only ordinals and every step is an integer
table lookup.  A pair is normalized by stripping its head from b atom by
atom through the interval's atom tables, and a product of simples is made
left-greedy incrementally: each new simple is pushed leftwards until a pair
stays unchanged (the domino rule).  Matrices come back only in
`evaluate_nf`, which serves as the oracle.

Simples, products and right quotients all take this one path, with no
identity or Delta special case: a Delta factor moves to the front pair by
pair, (f, Delta) -> (Delta, tau(f)), and a trivial factor vanishes, as in
any Garside normal form (Dehornoy-Paris, Gaussian groups and Garside
groups, Proc. LMS 1999).

Inverse letters ride on the balanced structure: x^(-1) = Delta^(-1) (Delta
x^(-1)), whose second factor is a simple because every generator
right-divides Delta.  Delta powers migrate to the front through the
conjugation permutation tau(s) = Delta^(-1) s Delta of the simples, whose
powers are tabulated once per structure.

The same file carries the presentation machinery: the defining relations of
the monoid (dual relations t_i t_{i-k} = t_j t_{j-k} plus the braid and
commutation relations), the cycle structure of the t-generators, the
gcd(e,k) = 1 criterion deciding isomorphism with the k = 1 monoid, the
one-rewriting-class property of reduced expressions, and the lcm
compatibility of the embedded Artin monoid of type B.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .core import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    alternating,
    atoms,
    evaluate_word,
    inverse,
    is_atom,
    lcm_word,
    multiply,
    parse_word,
)
from .interval import (
    Interval,
    LatticeViolationError,
    TheoremViolationError,
    cached_interval,
    verify_lattice,
)
from .words import all_reduced_expressions

# Bound on every word list garside.py builds: the relations of
# `emit_presentation`, and the reduced expressions and rewritten words of
# `matsumoto_check`; the CLI's `reduce` also refuses n(n-1), the length of
# the longest reduced word, above it.
MATSUMOTO_CAP = 10**5


class NormalForm(NamedTuple):
    """Canonical form Delta^p f_1 ... f_m; factors are interval ordinals."""

    delta_power: int
    factors: tuple[int, ...]

    def is_monoid_element(self) -> bool:
        return self.delta_power >= 0


class GarsideStructure:
    """Tables turning an interval into a working Garside monoid.

    comp_left[s]  = ordinal of s^(-1) Delta   (right complement: s * that = Delta)
    comp_right[s] = ordinal of Delta s^(-1)   (left complement: that * s = Delta)
    tau[s]        = ordinal of Delta^(-1) s Delta, a bijection of the simples;
    tau_powers[p] = tau^p for 0 <= p < the order of tau, and tau_inv its last.
    """

    def __init__(self, interval: Interval):
        self.interval = interval
        self.params = interval.params
        self.delta = interval.delta_ordinal
        self.identity = interval.identity_ordinal
        members = interval.members
        lengths = interval.lengths
        delta_len = lengths[self.delta]

        comp_left = self.comp_left = interval.comp_left
        self.comp_right = interval.comp_right
        for s, c in enumerate(comp_left):
            if lengths[s] + lengths[c] != delta_len:
                raise TheoremViolationError(
                    f"complement of {members[s]} is not length-complementary"
                )

        # tau = complement applied twice: a permutation, as build_interval
        # checks comp_left is one.
        tau = [comp_left[comp_left[s]] for s in range(len(members))]
        if tau[self.identity] != self.identity or tau[self.delta] != self.delta:
            raise TheoremViolationError("tau moves the identity or Delta")
        self.tau = tau
        powers = [list(range(len(members)))]
        image = tau
        while image != powers[0]:
            powers.append(image)
            image = [tau[s] for s in image]
        self.tau_powers = powers
        self.tau_inv = powers[-1]

        self._div_left = interval.div_left
        self._head_left = interval.head_left
        self._down_left = interval.down_left
        self._atom = interval.atom_ordinal

    # -- normalization -----------------------------------------------------

    def normalize_pair(self, a: int, b: int) -> tuple[int, int]:
        """Move the head t = meet(complement(a), b) from b into a: (a t, t^(-1) b).

        The lattice has been verified at build time, so the meet candidate
        (top ordinal of the intersected divisor bitsets) needs no recheck.
        t is stripped atom by atom from b and from c = complement(a) =
        a^(-1) Delta, both of which it left-divides.  What is left of c is
        (a t)^(-1) Delta, whose left complement is a t.
        """
        identity = self.identity
        c = self.comp_left[a]
        div = self._div_left
        t = (div[c] & div[b]).bit_length() - 1
        if t == identity:
            return a, b
        head, down = self._head_left, self._down_left
        while t != identity:
            row = down[head[t]]
            t, b, c = row[t], row[b], row[c]
        return self.comp_right[c], b

    def normalize_factors(self, factors: list[int]) -> NormalForm:
        """Left-greedy form of a product of simples, built left to right."""
        return self._push([], factors)

    def _push(self, out: list[int], factors) -> NormalForm:
        """The normal form of out followed by factors, where out is a
        left-greedy list of simples without Delta or the identity.

        Each simple is pushed onto the left-greedy form of the ones before it
        and normalized leftwards, pair by pair.  By the domino rule the pass
        can stop at the first pair that normalize_pair leaves unchanged.
        Delta factors collect at the front; an identity factor can only be
        the last, and is dropped.
        """
        normalize_pair = self.normalize_pair
        identity = self.identity
        for s in factors:
            out.append(s)
            i = len(out) - 1
            while i:
                a = out[i - 1]
                a2, b2 = normalize_pair(a, out[i])
                if a2 == a:
                    break
                out[i - 1], out[i] = a2, b2
                i -= 1
            if out[-1] == identity:
                out.pop()
        lo = 0
        while lo < len(out) and out[lo] == self.delta:
            lo += 1
        return NormalForm(lo, tuple(out[lo:]))

    def normal_form(self, word) -> NormalForm:
        """Normal form of a signed word (string or (Generator, sign) list).

        x^(-1) = Delta^(-1) (Delta x^(-1)), and Delta^(-1) moves to the front
        by conjugating every simple before it by tau^(-1).  Instead of doing
        that on each inverse letter, a simple read after j inverse letters is
        stored as tau^j of itself; once the word is read, with d inverse
        letters in all, the whole list is mapped back by tau^(-d).
        """
        if isinstance(word, str):
            word = parse_word(word, self.params)
        powers = self.tau_powers
        d = 0
        frame = powers[0]
        factors: list[int] = []
        for gen, sign in word:
            x = self._atom[gen]
            if sign > 0:
                factors.append(frame[x])
            else:
                d += 1
                frame = powers[d % len(powers)]
                factors.append(frame[self.comp_right[x]])
        back = powers[-d % len(powers)]
        nf = self.normalize_factors([back[f] for f in factors])
        return NormalForm(nf.delta_power - d, nf.factors)

    def nf_product(self, a: NormalForm, b: NormalForm) -> NormalForm:
        """Product of two normal forms; a must be a normal form, not just any
        (delta_power, factors) pair.

        The Delta power q of b moves left past the simples of a, conjugating
        them by tau^q.  tau is an automorphism of the lattice of simples, so
        the conjugated factors of a stay left-greedy, with no identity or
        Delta among them: only the factors of b are pushed onto them.
        """
        shift = self.tau_powers[b.delta_power % len(self.tau_powers)]
        nf = self._push([shift[f] for f in a.factors], b.factors)
        return NormalForm(a.delta_power + b.delta_power + nf.delta_power, nf.factors)

    def nf_of_simple(self, s: int) -> NormalForm:
        return self.normalize_factors([s])

    def nf_right_quotient(self, a: NormalForm, s: int) -> NormalForm:
        """a * s^(-1) = a * Delta^(-1) * comp_right[s]; lands in the monoid iff
        the simple s right-divides a.

        No case is special: for s = 1 the pushed factor is Delta, which
        normalize_factors moves to the front pair by pair, (f, Delta) ->
        (Delta, tau(f)); for s = Delta it is the identity, which it drops.
        """
        return self.nf_product(a, NormalForm(-1, (self.comp_right[s],)))

    def evaluate_nf(self, nf: NormalForm) -> GroupElement:
        members = self.interval.members
        delta = members[self.delta]
        if nf.delta_power < 0:
            delta = inverse(delta)
        w = members[self.identity]
        for x in [delta] * abs(nf.delta_power) + [members[f] for f in nf.factors]:
            w = multiply(w, x)
        return w

    def is_left_greedy(self, nf: NormalForm) -> bool:
        meet = self.interval.meet
        for a, b in zip(nf.factors, nf.factors[1:]):
            if meet("left", self.comp_left[a], b) != self.identity:
                return False
        return all(f not in (self.identity, self.delta) for f in nf.factors)

    def words_equal(self, w1, w2) -> bool:
        return self.normal_form(w1) == self.normal_form(w2)


def build_garside(interval: Interval) -> GarsideStructure:
    """Garside tables over an interval, after checking that it is a lattice.

    The meet shortcut in normalize_pair relies on the lattice property.
    """
    report = verify_lattice(interval)
    if not report.all_ok:
        raise LatticeViolationError(report.counterexample)
    return GarsideStructure(interval)


@lru_cache(maxsize=None)
def cached_garside(e: int, n: int, k: int) -> GarsideStructure:
    return build_garside(cached_interval(e, n, k))


# -- presentations ----------------------------------------------------------


class Presentation(NamedTuple):
    generators: tuple[Generator, ...]
    relations: tuple[tuple[tuple[Generator, ...], tuple[Generator, ...]], ...]


def emit_presentation(params: GroupParams) -> Presentation:
    """Defining relations of the monoid attached to (e, n, k).

    Dual relations are emitted with the fixed right side i = 0, giving e-1
    independent instances instead of a quadratic list.  The relation count,
    e(n-1) - 1 + (n-2)(n-3)/2, is checked against MATSUMOTO_CAP before any
    relation is built.
    """
    if params.k is None:
        raise ValueError("presentation needs params.k")
    e, n, k = params.e, params.n, params.k
    count = e * (n - 1) - 1 + (n - 2) * (n - 3) // 2
    if count > MATSUMOTO_CAP:
        raise CapExceededError(
            f"presentation of (e,n) = ({e},{n}) has {count} relations, "
            f"above MATSUMOTO_CAP = {MATSUMOTO_CAP}"
        )
    t = lambda i: Generator("t", i % e)
    s = lambda j: Generator("s", j)
    gens = tuple(atoms(params))
    relations = []
    for i in range(3, n):
        relations.append(((s(i), s(i + 1), s(i)), (s(i + 1), s(i), s(i + 1))))
    for i in range(3, n + 1):
        for j in range(i + 2, n + 1):
            relations.append(((s(i), s(j)), (s(j), s(i))))
    if n >= 3:
        for i in range(e):
            relations.append(((s(3), t(i), s(3)), (t(i), s(3), t(i))))
    for j in range(4, n + 1):
        for i in range(e):
            relations.append(((s(j), t(i)), (t(i), s(j))))
    for i in range(1, e):
        relations.append(((t(i), t(i - k)), (t(0), t(-k))))
    return Presentation(gens, tuple(relations))


def is_defining_relation(
    lhs: tuple[Generator, ...], rhs: tuple[Generator, ...], params: GroupParams
) -> bool:
    """Whether lhs = rhs is a defining relation: with x and y the last
    letters of lhs and rhs, lhs is lcm_word(y, x), rhs is lcm_word(x, y),
    and every letter is an atom of params.  Two equal dual words t_i t_{i-k}
    count as a relation; a braid or commutation relation needs x != y."""
    if not lhs or not rhs:
        return False
    x, y = lhs[-1], rhs[-1]
    return (
        (x != y or x.kind == "t")
        and lhs == lcm_word(y, x, params)
        and rhs == lcm_word(x, y, params)
        and all(is_atom(z, params) for z in lhs + rhs)
    )


def t_cycle_components(e: int, k: int) -> int:
    """Connected components of the graph on Z/eZ with edges {i, i-k}.

    Every edge joins i to its image under the bijection i -> i + k, so each
    component is one orbit of that map, a cycle: following the orbit from
    any unseen vertex visits the whole component.
    """
    GroupParams(e, 2, k)  # checks 1 <= k <= e-1
    seen = [False] * e
    components = 0
    for start in range(e):
        if seen[start]:
            continue
        components += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = (i + k) % e
    return components


def is_isomorphic_to_CP(
    e: int, k: int, n: int = 3
) -> tuple[bool, dict[Generator, Generator] | None]:
    """Decide isomorphism with the k = 1 monoid; produce and check a witness.

    For gcd(k, e) = 1 the witness fixes the s-generators and sends t_i to
    t_{(i+sigma)k}, with sigma = 1, or sigma = 0 at k = 1, where it is the
    identity map.  The witness is checked to be a bijection on generators
    sending every defining relation of the k = 1 presentation to a defining
    relation of the target.
    """
    target_params = GroupParams(e, n, k)
    if math.gcd(e, k) != 1:
        return False, None
    sigma = 0 if k == 1 else 1
    witness = {
        x: Generator("t", (x.index + sigma) * k % e) if x.kind == "t" else x
        for x in atoms(target_params)
    }
    if sorted(map(str, witness.values())) != sorted(map(str, witness.keys())):
        raise TheoremViolationError("witness map is not a bijection on generators")
    source = emit_presentation(GroupParams(e, n, 1))
    for lhs, rhs in source.relations:
        mapped_l = tuple(witness[x] for x in lhs)
        mapped_r = tuple(witness[x] for x in rhs)
        if not is_defining_relation(mapped_l, mapped_r, target_params):
            raise TheoremViolationError(
                f"witness sends {lhs} = {rhs} to a non-relation"
            )
    return True, witness


# -- rewriting and embeddings ------------------------------------------------


def matsumoto_check(g: GarsideStructure, w: GroupElement) -> bool:
    """All reduced expressions of a member form one class under the relations.

    BFS over words, applying every defining relation at every position in
    both directions.  Relations preserve letter count and group image, so the
    closure can only contain reduced expressions of w; the check is that it
    contains all of them.  More than MATSUMOTO_CAP reduced expressions, or
    closure words, raise `CapExceededError`.
    """
    params = g.params
    expressions = all_reduced_expressions(w, params, cap=MATSUMOTO_CAP)
    target = set(expressions)
    moves = []
    for lhs, rhs in emit_presentation(params).relations:
        moves.append((lhs, rhs))
        moves.append((rhs, lhs))
    start = expressions[0]
    seen = {start}
    frontier = [start]
    while frontier:
        word = frontier.pop()
        for lhs, rhs in moves:
            width = len(lhs)
            for pos in range(len(word) - width + 1):
                if word[pos : pos + width] == lhs:
                    new = word[:pos] + rhs + word[pos + width :]
                    if new not in seen:
                        if len(seen) >= MATSUMOTO_CAP:
                            raise CapExceededError(
                                f"rewriting closure exceeded {MATSUMOTO_CAP} words"
                            )
                        seen.add(new)
                        frontier.append(new)
    return seen == target


def embedding_lcm_check(g: GarsideStructure, i: int = 0) -> bool:
    """lcm compatibility of the type-B embedding, pair by pair.

    The Artin group of type B on q_1..q_{n-1} maps by q_1 -> t_i t_{i-k} and
    q_m -> s_{m+1} for m >= 2.  Its Coxeter entries are m(1,2) = 4,
    m(a,b) = 3 for the other neighbours b = a+1, and 2 otherwise.  For each
    pair (a, b), the join (both sides agree) of the image simples must
    normalize to the image of the alternating Artin lcm word q_a q_b q_a ...
    of m(a,b) letters.
    """
    params = g.params
    e, n, k = params.e, params.n, params.k
    if n < 3:
        raise ValueError("the embedded Artin group needs n >= 3")
    images = [(Generator("t", i % e), Generator("t", (i - k) % e))]
    images += [(Generator("s", m + 1),) for m in range(2, n)]
    interval = g.interval
    ordinals = [interval.index[evaluate_word(img, params)] for img in images]
    # images[a] is the image of q_{a+1}.
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            m = 4 if (a, b) == (0, 1) else 3 if b == a + 1 else 2
            word = alternating(images[a], images[b], m)
            expected = g.normal_form([(x, 1) for image in word for x in image])
            join_left = interval.join("left", ordinals[a], ordinals[b])
            join_right = interval.join("right", ordinals[a], ordinals[b])
            if join_left != join_right:
                return False
            if g.nf_of_simple(join_left) != expected:
                return False
    return True
