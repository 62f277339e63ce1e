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
table lookup.  A pair (a, b) is normalized by one of two walks through the
interval's atom tables, whichever is shorter: stripping its head t from b
atom by atom, or stripping comp_left[b] and tau(a) from the right of the
complement of t.  A product of simples is made left-greedy incrementally:
each new simple is pushed leftwards until a pair stays unchanged (the
domino rule).  Matrices come back only in `evaluate_nf`, which serves as
the oracle.

Words, simples, products and right quotients all take this one path, and
Delta moves in one way only.  Inverse letters ride on the balanced
structure: x^(-1) = Delta^(-1) (Delta x^(-1)), whose second factor is a
simple because every generator right-divides Delta.  Delta^(+-1) goes to
the front by the moves (f, Delta) -> (Delta, tau(f)) and
(f, Delta^(-1)) -> (Delta^(-1), tau^(-1)(f)), with tau(s) = Delta^(-1) s
Delta the conjugation permutation of the simples, whose powers are
tabulated once per structure.  These moves are never made one by one: the
list under construction is kept in a tau-frame, holding tau^(-p) of the
factors f_i of Delta^p f_1 ... f_m, so that a pushed Delta or Delta^(-1)
only changes p, a Delta made by a pair also maps the few simples to its
right by tau^(-1), and the list is mapped by tau^p once, at the end.  A
trivial factor vanishes, as in any Garside normal form
(Dehornoy-Paris, Gaussian groups and Garside groups, Proc. LMS 1999).

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
    Generator,
    GroupElement,
    GroupParams,
    admit,
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
        # tau^0 holds the index's own ordinals, not a fresh int per simple
        powers = [list(interval.index.values())]
        image = tau
        while image != powers[0]:
            powers.append(image)
            image = [tau[s] for s in image]
        self.tau_powers = powers
        self.tau_inv = powers[-1]

        self._div_left = interval.div_left
        self._head_left = interval.head_left
        self._down_left = interval.down_left
        self._flip = interval.flip
        self._lengths = lengths
        self._delta_len = delta_len
        self._atom = interval.atom_ordinal

    # -- normalization -----------------------------------------------------

    def normalize_pair(self, a: int, b: int) -> tuple[int, int]:
        """Move the head t = meet(complement(a), b) from b into a: (a t, t^(-1) b).

        The lattice has been verified at build time, so the meet candidate
        (top ordinal of the intersected divisor bitsets) needs no recheck.
        Either walk strips atoms through the left atom tables, and takes
        the shorter of:

        * l(t) steps on the left: t is stripped atom by atom from b and from
          c = complement(a) = a^(-1) Delta, both of which it left-divides.
          What is left of c is (a t)^(-1) Delta, whose left complement is
          a t.
        * l(Delta) - l(b) + l(a) steps on the complements: with
          u = comp_left[t], t^(-1) b = u comp_left[b]^(-1) and
          t^(-1) c = u tau(a)^(-1), two right quotients of u.  A right
          quotient is a left quotient of transposes, so these two walks run
          on the same tables, read through flip.
        """
        identity = self.identity
        comp_left = self.comp_left
        c = comp_left[a]
        div = self._div_left
        t = (div[c] & div[b]).bit_length() - 1
        if t == identity:
            return a, b
        head, down = self._head_left, self._down_left
        lengths = self._lengths
        if self._delta_len - lengths[b] + lengths[a] < lengths[t]:
            flip = self._flip
            u = flip[comp_left[t]]
            x, b = flip[comp_left[b]], u
            while x != identity:
                row = down[head[x]]
                x, b = row[x], row[b]
            x, c = flip[self.tau[a]], u
            while x != identity:
                row = down[head[x]]
                x, c = row[x], row[c]
            return self.comp_right[flip[c]], flip[b]
        while t != identity:
            row = down[head[t]]
            t, b, c = row[t], row[b], row[c]
        return self.comp_right[c], b

    def normalize_factors(self, factors: list[int]) -> NormalForm:
        """Left-greedy form of a product of simples, built left to right; a
        factor -1 stands for Delta^(-1)."""
        return self._push([], factors)

    def _push(self, out: list[int], factors, frame: int = 0) -> NormalForm:
        """The normal form of the product out Delta^frame factors, where out
        is a left-greedy list of simples without Delta or the identity, and
        a factor -1 stands for Delta^(-1).

        Each simple is pushed onto the left-greedy form of the ones before it
        and normalized leftwards, pair by pair, through self.normalize_pair,
        so that a wrapper set on the instance sees every call.  By the domino
        rule the pass can stop at the first pair that normalize_pair leaves
        unchanged.

        Delta never enters the list, and no pass moves it: the list holds
        tau^(-frame) of the factors f_i of Delta^frame f_1 ... f_m built so
        far (out itself at the start, as out Delta^frame = Delta^frame
        tau^frame(out)).  tau is a lattice automorphism, so normalize_pair
        works on the stored simples as on the factors.  A pushed Delta adds
        one to frame and a -1 subtracts one, with nothing mapped.  A Delta
        made by the pair at position i adds one too; only the simples to its
        right, b2 and the suffix this cascade has walked, had not passed it,
        and they alone are mapped by tau_inv.  The pass then stops, since
        the pairs to its right are left-weighted already.  An identity
        factor can only be the last, and is dropped.  The list leaves the
        frame once, at the end, and the Delta power is frame.
        """
        normalize_pair, powers, tau_inv = self.normalize_pair, self.tau_powers, self.tau_inv
        identity, delta, order = self.identity, self.delta, len(powers)
        into = powers[-frame % order]  # a factor, as the list stores it
        for s in factors:
            if s == delta or s == -1:
                frame += 1 if s == delta else -1
                into = powers[-frame % order]
                continue
            out.append(into[s])
            i = len(out) - 1
            while i:
                a = out[i - 1]
                a2, b2 = normalize_pair(a, out[i])
                if a2 == a:
                    break
                if a2 == delta:
                    frame += 1
                    into = powers[-frame % order]
                    out[i - 1 :] = [tau_inv[f] for f in (b2, *out[i + 1 :])]
                    break
                out[i - 1], out[i] = a2, b2
                i -= 1
            if out[-1] == identity:
                out.pop()
        back = powers[frame % order]  # mapped as a list, so tuple() gets its exact size
        return NormalForm(frame, tuple([back[f] for f in out] if frame % order else out))

    def normal_form(self, word) -> NormalForm:
        """Normal form of a signed word (string or (Generator, sign) list).

        Each letter becomes ordinals for one `normalize_factors` call: x is
        its atom, and x^(-1) = Delta^(-1) (Delta x^(-1)) is -1, for
        Delta^(-1), and comp_right[x], a simple because every generator
        right-divides Delta.  `_push` moves each Delta^(-1) to the front
        through its frame.
        """
        if isinstance(word, str):
            word = parse_word(word, self.params)
        atom, comp_right = self._atom, self.comp_right
        factors: list[int] = []
        for gen, sign in word:
            if sign > 0:
                factors.append(atom[gen])
            else:
                factors += (-1, comp_right[atom[gen]])
        return self.normalize_factors(factors)

    def nf_product(self, a: NormalForm, b: NormalForm) -> NormalForm:
        """Product of two normal forms; a must be a normal form, not just any
        (delta_power, factors) pair.

        Delta^p a_1 ... a_m Delta^q b_1 ... b_r: `_push` takes a_1 ... a_m
        Delta^q as its list at frame q, with nothing mapped.  tau is an
        automorphism of the lattice of simples, so that list stays
        left-greedy, with no identity or Delta in it: only the factors of b
        are pushed onto it.
        """
        nf = self._push(list(a.factors), b.factors, b.delta_power)
        return NormalForm(a.delta_power + nf.delta_power, nf.factors)

    def nf_of_simple(self, s: int) -> NormalForm:
        return self.normalize_factors([s])

    def nf_right_quotient(self, a: NormalForm, s: int) -> NormalForm:
        """a * s^(-1) = a * Delta^(-1) * comp_right[s]; lands in the monoid iff
        the simple s right-divides a.

        No case is special: for s = 1 the pushed factor is Delta, which
        `_push` takes into its frame, with no pair call; for s = Delta it is
        the identity, which it drops.
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
    e(n-1) - 1 + (n-2)(n-3)/2, is admitted against MATSUMOTO_CAP by `admit`
    before any relation is built.
    """
    if params.k is None:
        raise ValueError("presentation needs params.k")
    e, n, k = params.e, params.n, params.k
    count = e * (n - 1) - 1 + (n - 2) * (n - 3) // 2
    admit("the presentation's relation count", (count,), MATSUMOTO_CAP, "garside.MATSUMOTO_CAP")
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
                            what = "rewriting closure words"
                            admit(what, (len(seen) + 1,), MATSUMOTO_CAP, "garside.MATSUMOTO_CAP")
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
