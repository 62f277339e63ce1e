"""
Divisibility intervals [1, lambda^k] in G(e,e,n) and their lattice structure.

Left divisibility a <= b means b = a*c with additive lengths; right
divisibility mirrors it.  The interval below lambda^k has a closed-form
membership test: call the nonzero entries of w that are strict left-to-right
column minima its bullets; then w divides lambda^k exactly when every
non-bullet entry is 1 or zeta_e^k.  The bullets depend on the permutation
alone, and `_bullets` finds them, the one place a running column minimum is
kept; `bullet_rows`, `in_interval` and the build all read it.
`build_interval` does not test the group against the criterion: it lists
the members per permutation straight from the staircase, row 1's exponent
fixed by the exponent-sum rule, the other bullet rows free and the
non-bullet rows 0 or k.  It forms the products x*s, for the atoms x
that left-divide a member s, as moves of two rows of s: s_j swaps rows j-1
and j, and t_m swaps rows 1 and 2 and adds -m and +m to their exponents.
Each product is looked up in the member index as a plain tuple, and one
`multiply` per atom, x*lambda^k, checks the moves against the group
product.  Their ordinals give the atom tables the Garside layer walks a
simple down with.

One bitset table is kept, the left one.  The transpose is an
anti-automorphism of G(e,e,n) that keeps the atom set (s_j^T = s_j,
t_i^T = t_(-i)) and fixes the diagonal lambda^k, so a <= b on the right
exactly when a^T <= b^T on the left: with flip[s] the ordinal of s^T, right
divisibility is the left table read through flip, and the left table itself
is built from the atom tables through flip.  lambda^k s^(-1) is the inverse
permutation of s^(-1) lambda^k, by integer lookups.  The member set is
checked against a divisor test on the whole group that never looks at the
staircase: length additivity len(a) + len(a^(-1) b) = len(b), read as one
sum of table entries without forming a^(-1) b.  The scan goes through G
one permutation at a time, on plain (e, perm, exps) tuples built in C,
so that no list of |G| elements is held.  `words.divisor_rows` gives,
for the permutation of a and the divisor b, one row table per row, indexed
by a's exponent there, and a target, from one small bounded cache: the
scan alternates between the permutations sigma and sigma^(-1) against the
one divisor lambda^k, its own transpose, so it misses at most twice per
permutation.

Meets are bitset intersections followed by an extremality check,
`_meet_violation`, the one check behind `Interval.meet` and the lattice
verifiers alike; `verify_lattice` inlines its test on cover pairs and
calls it only to report a failure.  A right meet is a left meet read
through flip, and s -> s^(-1) lambda^k turns left divisibility upside down
into right divisibility, so each join is the complement of a meet on the
other side.  `verify_lattice` proves the lattice property from the table
in about |D| * atoms^2 bitset operations: the table must be closed under
covers (so it is a graded poset), and every two lower covers of a member
must have a meet (Bjorner-Edelman-Ziegler).  `lattice_pairwise_oracle` is
the all-pairs scan it replaced, kept for the tests.  Failures of uniqueness
are data, not crashes: they are reported as LatticeViolation values
carrying the offending antichain, which turns the lattice theorems into
cheap, high-coverage oracles for the implementation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, compress, permutations, product, repeat
from operator import eq, getitem, itemgetter, mul
from typing import Iterator, NamedTuple

from .core import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    ParameterMismatchError,
    admit_group,
    atoms,
    enumerate_group,
    evaluate_word,
    exponent_vectors,
    format_count,
    generator_matrix,
    group_cap,
    inverse_order,
    lambda_power,
    lcm_word,
    left_quotient,
    multiply,
    new_element,
    transpose,
)
from .words import divisor_rows, length, length_decreases, maximal_length_elements

# Largest predicted size, in bytes, of the divisibility bitset table
# (|D|^2 / 8) that `build_interval` accepts; it refuses larger intervals
# before enumerating the group.
INTERVAL_TABLE_CAP_BYTES = 2**30


class TheoremViolationError(AssertionError):
    """A computation contradicted a statement that is a theorem; implementation bug."""


class LatticeViolation(NamedTuple):
    """Meet or join failed to be unique: the offending pair and the antichain.

    Operation "closure" marks a table that is not closed under its covers;
    its antichain lists the ordinals whose bits disagree with the closure.
    """

    side: str
    operation: str
    pair: tuple[int, int]
    antichain: tuple[int, ...]


class LatticeViolationError(TheoremViolationError):
    def __init__(self, violation: LatticeViolation):
        self.violation = violation
        super().__init__(
            f"{violation.operation} on side {violation.side} not unique for pair "
            f"{violation.pair}: antichain {violation.antichain}"
        )


def _bullets(perm: tuple[int, ...]) -> list[bool]:
    """Per row of a permutation, whether its entry is a bullet: a strict
    running minimum of the columns.  The entries are distinct, so a row's
    entry is one exactly when it equals the minimum of the rows up to it.

    Row 1 always is.  The bullets are exactly the entries with only zeros
    above and to the left, the corners of the staircase separating the
    zero region of the matrix.
    """
    return list(map(eq, perm, accumulate(perm, min)))


def bullet_rows(w: GroupElement) -> list[int]:
    """Rows (1-based) of the bullets of w, by `_bullets`."""
    return list(compress(range(1, len(w.perm) + 1), _bullets(w.perm)))


def in_interval(w: GroupElement, k: int) -> bool:
    """Membership of w in [1, lambda^k]: non-bullet entries must be 1 or zeta^k.

    A k outside 1 <= k <= e-1 is refused by `GroupParams`.
    """
    GroupParams(w.e, w.n, k)
    return all(bullet or a in (0, k) for bullet, a in zip(_bullets(w.perm), w.exps))


def left_divides(a: GroupElement, b: GroupElement) -> bool:
    """a <= b in left divisibility: len(a) + len(a^(-1) b) = len(b).

    This is the definition of the order, b = a * (a^(-1) b) with additive
    lengths, evaluated from closed-form lengths without forming the
    quotient: `divisor_rows(aperm, b)`, a bounded cache keyed by the
    permutation of a and the divisor, gives a target and one row table per
    row, whose entry at a's exponent x is what that row adds to len(a) +
    len(a^(-1) b), so the test is one sum of n table entries.  It never
    consults the staircase criterion of `in_interval`, so it can serve as
    its oracle.  The operands are read by unpacking, so a plain
    (e, perm, exps) tuple gets the answer of its GroupElement.  Operands
    from different groups raise ParameterMismatchError: e is compared here
    on every call, n by `divisor_rows` on a miss, as no key of another n
    than b's is ever cached.
    """
    ae, aperm, aexps = a
    if ae != b[0]:
        raise ParameterMismatchError(
            f"cannot divide elements of G({ae},{ae},{len(aperm)}) "
            f"and G({b[0]},{b[0]},{len(b[1])})"
        )
    rows, target = divisor_rows(aperm, b)
    return sum(map(getitem, rows, aexps)) == target


def right_divides(a: GroupElement, b: GroupElement) -> bool:
    """a <= b in right divisibility; the transpose swaps the two orders."""
    return left_divides(transpose(a), transpose(b))


def is_balanced(w: GroupElement) -> bool:
    """Whether the left and right divisor sets of w coincide, by full scan."""
    params = GroupParams(w.e, w.n)
    wt = transpose(w)
    for a in enumerate_group(params):
        if left_divides(a, w) != left_divides(transpose(a), wt):
            return False
    return True


def balanced_max_length(params: GroupParams) -> list[GroupElement]:
    """The balanced elements among those of maximal length: the lambda^k.

    The equality with {lambda^k : 1 <= k <= e-1} is a theorem; its failure
    is raised as a violation.  The group is admitted before the (e-1)^(n-1)
    candidates are listed, and then the census itself, which scans G once
    per candidate: |G| (e-1)^(n-1) must not exceed the same cap.
    """
    admit_group(params)
    scans, cap = params.order() * (params.e - 1) ** (params.n - 1), group_cap()
    if scans > cap:
        raise CapExceededError(
            f"the balanced census scans |G| (e-1)^(n-1) = {format_count(scans)} elements, "
            f"above the group-size cap {format_count(cap)} (set by GARSIDE_CAP)"
        )
    found = [w for w in maximal_length_elements(params) if is_balanced(w)]
    expected = {lambda_power(params, k) for k in range(1, params.e)}
    if set(found) != expected:
        raise TheoremViolationError(
            f"balanced maximal-length elements {found} differ from the "
            f"powers of lambda"
        )
    return found


class Interval:
    """The interval [1, lambda^k] with its divisibility table.

    Members are sorted by (length, perm, exps), so ordinal order refines the
    length grading: ordinal 0 is the identity and the last ordinal is
    lambda^k, and the members of length l are the contiguous ordinals
    layer_start[l] <= s < layer_start[l + 1].  div_left is a bitset over
    ordinals: bit a of div_left[b] says a <= b on the left.  flip[s] is the
    ordinal of s^T, an involution; a <= b on the right exactly when bit
    flip[a] of div_left[flip[b]] is set, and every right-side question,
    `right_row` among them, is read that way.  comp_left[s] = s^(-1) lambda^k and comp_right[s] =
    lambda^k s^(-1) are mutually inverse and swap the two orders upside
    down, so joins are complemented meets.

    The atom tables strip one atom off the left: down_left[p][s] is the
    ordinal of x_p^(-1) s = x_p s when the p-th atom x_p (in `atoms` order)
    left-divides s, and -1 otherwise; head_left[s] is the first such p, or
    -1 for the identity.
    """

    def __init__(
        self, params: GroupParams, members, lengths, index, div_left, flip,
        complements, atom_tables,
    ):
        self.params = params
        self.e, self.n, self.k = params.e, params.n, params.k
        self.members: tuple[GroupElement, ...] = tuple(members)
        self.lengths: tuple[int, ...] = tuple(lengths)
        self.layer_start: list[int] = [0]
        for i, ell in enumerate(self.lengths):
            while len(self.layer_start) <= ell:
                self.layer_start.append(i)
        self.layer_start.append(len(self.lengths))
        self.index: dict[GroupElement, int] = index
        self.div_left: list[int] = div_left
        self.flip: list[int] = flip
        self.comp_left, self.comp_right = complements
        self.head_left, self.down_left = atom_tables
        self.identity_ordinal = 0
        self.delta_ordinal = len(self.members) - 1
        self.atom_ordinal: dict[Generator, int] = {
            x: self.index[generator_matrix(x, params)] for x in atoms(params)
        }

    def __len__(self) -> int:
        return len(self.members)

    def element(self, ordinal: int) -> GroupElement:
        return self.members[ordinal]

    def ordinal(self, w: GroupElement) -> int:
        return self.index[w]

    def right_row(self, ordinal: int) -> int:
        """Bitset of the right divisors of a member: the left row of its
        transpose, read through flip."""
        flip = self.flip
        return sum(1 << flip[a] for a in _bits(self.div_left[flip[ordinal]]))

    def divisors(self, ordinal: int) -> list[int]:
        """Ordinals of the left divisors of a member."""
        return _bits(self.div_left[ordinal])

    def covers(self, ordinal: int) -> list[int]:
        """Ordinals covered by `ordinal` on the left: its divisors one length
        layer below."""
        ell = self.lengths[ordinal]
        if ell == 0:
            return []
        lo, hi = self.layer_start[ell - 1], self.layer_start[ell]
        return [lo + a for a in _bits((self.div_left[ordinal] >> lo) & ((1 << (hi - lo)) - 1))]

    def meet(self, side: str, a: int, b: int) -> int:
        """Greatest common divisor of two members under the chosen order.

        Ordinals refine length, so only the top common divisor can be it.
        On the right: flip[meet("left", flip[a], flip[b])].
        """
        if side == "right":
            flip = self.flip
            try:
                return flip[self.meet("left", flip[a], flip[b])]
            except LatticeViolationError as exc:
                raise _read_through(exc, flip, side, "meet", (a, b)) from exc
        div = self.div_left
        violation = _meet_violation(div, a, b)
        if violation:
            raise LatticeViolationError(violation)
        return (div[a] & div[b]).bit_length() - 1

    def join(self, side: str, a: int, b: int) -> int:
        """Least common multiple of two members; lambda^k always bounds it.

        On the left: comp_right[meet("right", comp_left[a], comp_left[b])].
        """
        if side == "left":
            there, back, other = self.comp_left, self.comp_right, "right"
        else:
            there, back, other = self.comp_right, self.comp_left, "left"
        try:
            return back[self.meet(other, there[a], there[b])]
        except LatticeViolationError as exc:
            raise _read_through(exc, back, side, "join", (a, b)) from exc


def _read_through(
    exc: LatticeViolationError, perm: list[int], side: str, operation: str,
    pair: tuple[int, int],
) -> LatticeViolationError:
    """A violation found on the ordinals that perm maps from, restated as a
    violation of `operation` on `pair` with its antichain mapped by perm."""
    antichain = tuple(sorted(perm[x] for x in exc.violation.antichain))
    return LatticeViolationError(LatticeViolation(side, operation, pair, antichain))


class LatticeReport(NamedTuple):
    """Whether every pair of members has a meet and a join on both sides,
    with the first violation found when not.

    One verdict covers all four: the right order is the left order read
    through the transpose, and a join on one side is a complemented meet on
    the other.
    """

    all_ok: bool
    counterexample: LatticeViolation | None = None


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal(common: int, div: list[int]) -> tuple[int, ...]:
    """The maximal members of a bitset under a divisibility table."""
    members = _bits(common)
    return tuple(
        a for a in members
        if not any(b != a and (div[b] >> a) & 1 for b in members)
    )


def _meet_violation(div: list[int], a: int, b: int) -> LatticeViolation | None:
    """The extremality check behind every meet, on the left table, or None
    if a and b pass it.

    The top common divisor of a and b is their meet exactly when every
    common divisor divides it; otherwise the maximal common divisors are
    the antichain of the violation.
    """
    common = div[a] & div[b]
    if common & ~div[common.bit_length() - 1]:
        return LatticeViolation("left", "meet", (a, b), _maximal(common, div))
    return None


def divisor_theorem_oracle(interval: Interval) -> None:
    """Oracle: the staircase members are exactly the divisors of lambda^k.

    Scans the whole group with the length-additivity test `left_divides`,
    on the left and on transposes for the right, and raises on any element
    where either test disagrees with membership, read from the interval's
    index.  The scan goes one permutation sigma at a time: sigma^(-1) and
    the row getter are read once from `inverse_order`, and each element
    (e, sigma, x), for x in `exponent_vectors`, is paired with its
    transpose (e, sigma^(-1), rows(x)), both as plain tuples built in C;
    the error names the element as a GroupElement.  lambda^k is its own
    transpose, so both tests divide into it, and the right test at w
    repeats the left test at w^T, which the scan reaches as well; it is
    kept because the benchmark asserts 2 |G| divisor tests per build, a
    count that a check by atom closure would change together with that
    assertion.
    """
    index = interval.index
    delta = interval.members[interval.delta_ordinal]
    e = interval.e
    vectors = exponent_vectors(e, interval.n)
    for perm in permutations(range(1, interval.n + 1)):
        inv, rows = inverse_order(perm)
        elements = zip(repeat(e), repeat(perm), vectors)
        transposes = zip(repeat(e), repeat(inv), map(rows, vectors))
        for w, wt in zip(elements, transposes):
            member = w in index
            if left_divides(w, delta) != member or left_divides(wt, delta) != member:
                raise TheoremViolationError(
                    f"divisors of lambda^{interval.k} disagree with the staircase "
                    f"criterion at {new_element(w)}"
                )


def _row_swap(n: int, j: int):
    """Getter of the n rows of a tuple with rows j-1 and j (1-based) swapped."""
    order = list(range(n))
    order[j - 2], order[j - 1] = j - 1, j - 2
    return itemgetter(*order)


def _staircase(params: GroupParams) -> Iterator[GroupElement]:
    """The members of [1, lambda^k], generated per permutation.

    The bullet rows of a permutation are fixed by it.  Row 1 is one, and
    its exponent is fixed by the exponent-sum rule; the other bullet rows
    take any exponent, and the non-bullet rows 0 or k.  Each exponent
    tuple is taken from `exponent_vectors` at the position of its head, so
    the members share them as the elements of `group_elements` do.
    """
    e, n, k = params.e, params.n, params.k
    vectors = exponent_vectors(e, n)
    first, *weights = [e ** (n - 2 - i) for i in range(n - 1)]
    free, fixed = range(e), (0, k)
    for perm in permutations(range(1, n + 1)):
        choices = [free if bullet else fixed for bullet in _bullets(perm)[1:]]
        for rest in product(*choices):
            # zip in map stops at row n-1: the last row is not in the head
            position = (-sum(rest) % e) * first + sum(map(mul, rest, weights))
            yield new_element((e, perm, vectors[position]))


def interval_size(e: int, n: int) -> int:
    """|[1, lambda^k]| in G(e,e,n) = prod_{i=1}^{n-1} (e + 2i), for every k."""
    return math.prod(e + 2 * i for i in range(1, n))


def build_interval(params: GroupParams) -> Interval:
    """Construct [1, lambda^k] with its divisibility table, the transpose
    permutation, the complements and the atom tables.

    The members come per permutation from the staircase (`_staircase`),
    never by a test over the group, and are sorted by (length, perm, exps).
    For b in ordinal order and the atoms x that shorten b, by
    `length_decreases`, x*b is a move of two rows of b (s_j swaps rows j-1
    and j; t_m swaps rows 1 and 2 and adds -m and +m to their exponents),
    looked up in the index as a plain (e, perm, exps) tuple.  These give the
    atom tables (x*b = x^(-1) b for a reflection x).  The one group product
    per atom, `multiply(x, lambda^k)`, must agree with the row move on
    lambda^k.  lambda^k is diagonal, so with flip[s] the ordinal of s^T, the
    left covers of b are flip[down_left[p][flip[b]]], as (b x)^T = x^T b^T;
    the left table is their closure, and the right order is read from it
    through flip.  comp_left is one `left_quotient` per member and
    comp_right its inverse permutation.  A row move that leaves the interval
    or disagrees with its product, a transpose leaving the interval, or a
    comp_left that is not a permutation, is a theorem violation.  Last,
    `divisor_theorem_oracle` checks the member set against divisor tests of
    lambda^k over the whole group, one permutation at a time.

    Before anything is enumerated, |D| is predicted by `interval_size` and
    the interval is refused with CapExceededError when its bitset table
    would exceed INTERVAL_TABLE_CAP_BYTES, and the group is admitted by
    `admit_group`; a built size that differs from the prediction is a
    theorem violation.
    """
    if params.k is None:
        raise ValueError("interval construction needs params.k")
    k = params.k
    predicted = interval_size(params.e, params.n)
    table_bytes = predicted * predicted // 8
    if table_bytes > INTERVAL_TABLE_CAP_BYTES:
        raise CapExceededError(
            f"[1, lambda^{k}] in G({params.e},{params.e},{params.n}) has "
            f"|D| = {format_count(predicted)} members; its divisibility table would take "
            f"{format_count(table_bytes)} bytes, above INTERVAL_TABLE_CAP_BYTES = "
            f"{INTERVAL_TABLE_CAP_BYTES}"
        )
    admit_group(params)
    members = list(_staircase(params))
    if len(members) != predicted:
        raise TheoremViolationError(
            f"|D| = {len(members)} differs from the predicted {predicted}"
        )
    lengths, members = zip(*sorted(zip(map(length, members), members)))
    index = {w: i for i, w in enumerate(members)}

    delta = lambda_power(params, k)
    if delta not in index or index[delta] != len(members) - 1:
        raise TheoremViolationError("lambda^k is not the top member of its interval")

    flip = [index.get(transpose(w)) for w in members]
    if None in flip:
        raise TheoremViolationError("the transpose of a member left the interval")

    e, n = params.e, params.n
    gens = atoms(params)
    size = len(members)
    head_left = [-1] * size
    down_left = [[-1] * size for _ in gens]
    # per atom: the rows it swaps, and whether it shifts their exponents
    moves = [
        (p, x, _row_swap(n, x.index if x.kind == "s" else 2), x.kind == "t", row)
        for p, (x, row) in enumerate(zip(gens, down_left))
    ]
    try:
        for b, w in enumerate(members):
            perm, exps = w.perm, w.exps
            head = -1
            for p, x, swap, shift, row in moves:
                if length_decreases(x, w):
                    moved = swap(exps)
                    if shift:
                        m = x.index
                        moved = ((moved[0] - m) % e, (moved[1] + m) % e) + moved[2:]
                    # a plain (e, perm, exps) tuple hashes and compares as the element
                    row[b] = index[(e, swap(perm), moved)]
                    if head < 0:
                        head = p
            head_left[b] = head
    except KeyError:
        raise TheoremViolationError(
            f"the row move of {x} on the member {w} left the interval"
        ) from None
    for x, row in zip(gens, down_left):
        if row[-1] != index.get(multiply(generator_matrix(x, params), delta)):
            raise TheoremViolationError(
                f"the row move of {x} on lambda^{k} disagrees with the product"
            )
    # (b x)^T = x^T b^T: the left covers of b transpose the right ones of b^T.
    div_left = [0] * size
    for b, bt in enumerate(flip):
        mask = 1 << b
        for row in down_left:
            if row[bt] >= 0:
                mask |= div_left[flip[row[bt]]]
        div_left[b] = mask

    comp_left = [index.get(left_quotient(w, delta)) for w in members]
    # lambda^k (s^(-1) lambda^k)^(-1) = s; a slot left at -1 means comp_left
    # left the interval or hit some ordinal twice.  The ordinals are read
    # from the index, so comp_right shares their int objects instead of
    # holding a fresh one per member.
    comp_right = [-1] * size
    if None not in comp_left:
        for s, c in zip(index.values(), comp_left):
            comp_right[c] = s
    if -1 in comp_right:
        raise TheoremViolationError("the complement is not a permutation of the simples")

    interval = Interval(
        params, members, lengths, index, div_left, flip,
        (comp_left, comp_right), (head_left, down_left),
    )

    if div_left[interval.delta_ordinal] != (1 << size) - 1:
        raise TheoremViolationError("some member does not left-divide lambda^k")

    divisor_theorem_oracle(interval)
    return interval


@lru_cache(maxsize=None)
def cached_interval(e: int, n: int, k: int) -> Interval:
    """Interval construction is deterministic; share one copy per (e, n, k)."""
    return build_interval(GroupParams(e, n, k))


def verify_lattice(interval: Interval) -> LatticeReport:
    """Prove the divisibility table is a lattice, from cover pairs only.

    Per member b, with covers(b) the members of div[b] one length layer
    below b:

    * closure: div[b] contains the identity and equals b together with the
      union of div[a] over a in covers(b), and div[lambda^k] holds every
      member.  By induction on length, div is then the reflexive-transitive
      closure of the cover relation, which lowers length by one: any table
      passing this is a bounded poset graded by length, whatever it was
      before, and covers(b) are exactly its lower covers.
    * cover pairs: every two lower covers of b pass `_meet_violation`, the
      extremality check of `Interval.meet`.

    A finite bounded poset in which any two elements covered by a common
    element have a meet is a lattice: the dual of Bjorner-Edelman-Ziegler,
    Hyperplane arrangements with a lattice of regions (DCG 1990), Lemma
    2.1.  So the two checks decide that every pair has a meet, at the cost
    of sum_b |covers(b)|^2 bitset operations instead of |D|^2.  The check
    is stricter than `lattice_pairwise_oracle`: a table that is not closed
    under covers fails here even where every extremality check happens to
    pass.  A closure failure at b is reported as the first pair (b, x) that
    fails the meet check, or else as a "closure" violation at (b, b) whose
    antichain lists the bits of div[b] that disagree with the closure.

    The table is the left one.  The right order is the left order read
    through the transpose, an order isomorphism onto it, so right meets
    exist exactly when left meets do; joins are complemented meets, so all
    joins on one side exist exactly when all meets on the other do.  The
    report's one verdict therefore covers meets and joins on both sides.
    """
    div = interval.div_left
    top = interval.delta_ordinal
    full = (1 << len(interval)) - 1
    if div[top] != full:
        return LatticeReport(False, _closure_violation(div, top, full & ~div[top]))
    lengths, layer_start = interval.lengths, interval.layer_start
    for b in range(len(interval)):
        # the covers of b, as in `Interval.covers`, and the union of their tables
        here = div[b]
        closure = 1 << b
        covers = []
        ell = lengths[b]
        if ell:
            lo = layer_start[ell - 1]
            mask = (here >> lo) & ((1 << (layer_start[ell] - lo)) - 1)
            while mask:
                low = mask & -mask
                a = lo + low.bit_length() - 1
                covers.append(a)
                closure |= div[a]
                mask ^= low
        # bits that differ from the closure, and bit 0 if the identity is missing
        wrong = (closure ^ here) | (~here & 1)
        if wrong:
            return LatticeReport(False, _closure_violation(div, b, wrong))
        # the check of `_meet_violation` on every pair of covers
        for i, a in enumerate(covers):
            above = div[a]
            for c in covers[i + 1:]:
                common = above & div[c]
                if common & ~div[common.bit_length() - 1]:
                    return LatticeReport(False, _meet_violation(div, a, c))
    return LatticeReport(True)


def _closure_violation(div: list[int], b: int, wrong: int) -> LatticeViolation:
    """The first pair (b, x) failing the meet check, else the bits of div[b]
    that disagree with the closure, as a "closure" violation at (b, b)."""
    for x in range(len(div)):
        violation = _meet_violation(div, b, x)
        if violation:
            return violation
    return LatticeViolation("left", "closure", (b, b), tuple(_bits(wrong)))


def lattice_pairwise_oracle(interval: Interval) -> LatticeReport:
    """Oracle for `verify_lattice`: the meet check on every pair.

    It assumes nothing about the table and costs |D|^2 bitset operations;
    only the tests call it.
    """
    div = interval.div_left
    for a in range(len(div)):
        for b in range(a, len(div)):
            violation = _meet_violation(div, a, b)
            if violation:
                return LatticeReport(False, violation)
    return LatticeReport(True)


def atom_lcm_table(interval: Interval):
    """Join of every generator pair on both sides, with the closed forms.

    Left and right joins agree, and the join of x and y is the word
    `lcm_word(x, y)`: both sides of a defining relation spell the lcm.
    """
    params = interval.params
    gens = atoms(params)
    table: dict[tuple[Generator, Generator], GroupElement] = {}
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            a = interval.atom_ordinal[x]
            b = interval.atom_ordinal[y]
            left = interval.join("left", a, b)
            right = interval.join("right", a, b)
            if left != right:
                raise TheoremViolationError(
                    f"left and right joins of {x}, {y} differ"
                )
            value = interval.element(left)
            table[(x, y)] = value
            expected = evaluate_word(lcm_word(x, y, params), params)
            if value != expected:
                raise TheoremViolationError(
                    f"join of {x}, {y} is {value}, expected {expected}"
                )
    return table
