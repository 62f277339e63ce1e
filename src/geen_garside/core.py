"""
Exact arithmetic for the complex reflection group G(e,e,n).

G(e,e,n) is the group of n x n monomial matrices whose nonzero entries are
e-th roots of unity multiplying to 1.  A matrix w is stored as the pair

    perm : tuple of length n, perm[i-1] = the column of the unique nonzero
           entry of row i (1-based values, so perm is a permutation of 1..n);
    exps : tuple of length n, exps[i-1] = a with w[i, perm[i-1]] = zeta_e^a.

Roots of unity never appear as floating point: zeta_e^a is just the integer
a mod e, which keeps every operation exact and every element hashable.  The
exponent sum is 0 mod e for every group element (determinant-of-moduli
condition), and all indices in serialized forms are 1-based like the matrices.

The distinguished generators are the reflections

    t_i  (i mod e)   : swaps rows 1,2 with entries zeta_e^{-i}, zeta_e^{i},
    s_j  (3 <= j <= n): the transposition matrix of (j-1, j),

and the diagonal element lambda = diag(zeta_e^{-(n-1)}, zeta_e, ..., zeta_e)
whose powers bound the divisibility intervals built in `interval`.

Each pair of atoms has one defining relation, whose length `braid_m`
gives: x y x = y x y, x y = y x, or for two t's the dual t_i t_{i-k} =
t_j t_{j-k}.  Both sides spell lcm(x, y), as the presentation is
complemented (Dehornoy-Paris, Proc. LMS 1999), and `lcm_word(x, y)` is the
side that ends in y.  Every reader takes its relation words from
`lcm_word` but `garside.emit_presentation`, which writes the relations out
and is tested against it.

Elements, the generator symbols and the group parameters are NamedTuples,
like every value record of the package: immutable, hashable, and equal to
the tuple of their fields, so hashing and comparing them runs in C.
Building one through its class does not: the generated `__new__` is a
Python function.  `new_element` builds a GroupElement from one
(e, perm, exps) tuple with `tuple.__new__`, in C, and is the route of the
hot paths: `multiply`, `inverse`, `transpose`, `left_quotient`,
`group_elements` and the interval's staircase.  `left_quotient` forms
a^(-1) b in one pass, without the intermediate inverse.  The interval
build forms neither transposes nor complements with them: it reads both
per permutation, and `transpose` and `left_quotient` are the oracle its
tests check those reads against.  `group_elements`
streams the group, so that a scan over it holds no list of |G| elements;
the elements share their exponent tuples, from the one table
`exponent_vectors` per (e, n).

Data that depends on the permutation alone is tabulated once per
permutation, not once per element: `inverse_order` here (the inverse
permutation and a row getter, read by `inverse`, `transpose`,
`left_quotient` and the interval's build and divisor scan) and the row
counts of `words.length`.  Each table is keyed by the permutation tuple, so it
holds at most n! entries per n, and it has no size option.

Every value from outside is read here.  `read_count` reads an integer
(an option, GARSIDE_CAP, a generator's index) from ASCII digits of any
length and from nothing else, and every message that echoes outside text
shows it through `shown`, cut to 40 bytes and its length; an integer
in a message goes through `format_count`.

Every size cap of the package that is known before the work starts goes
through `admit`: the size's closed-form factors (e, n-1 times, and 2..n
for |G(e,e,n)|; e + 2i for the interval below lambda^k) are multiplied in
order until the product passes max(cap, 10^COUNT_DIGITS), so a refused
size is never formed in full.  Each refusal is a CapExceededError of one
shape, naming the size (exact, or "more than" that bound), the cap and
the knob that sets it.  `admit_group` admits G(e,e,n) against
`group_cap`, the GARSIDE_CAP setting, and returns |G|.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

DEFAULT_GROUP_CAP = 10**6

# Digits up to which `format_count` prints a count in full; a longer count
# is given by its number of digits, which keeps a cap message to one short
# line, far below Python's int-to-str limit (640 digits at the least).
# `admit` stops multiplying past 10^COUNT_DIGITS, or past a larger cap.
COUNT_DIGITS = 30


class CapExceededError(RuntimeError):
    """An enumeration or search outgrew its configured cap."""


class ParameterMismatchError(ValueError):
    """Operands live in different groups G(e,e,n)."""


def read_count(text: str, name: str) -> int:
    """The integer that `text` writes in ASCII digits, of any length.

    Any other text (a sign, spaces, "_", a non-ASCII digit, nothing) raises
    ValueError naming `name` and `shown(text)`.  `int` reads up to 640
    digits, the lowest digit limit `sys.set_int_max_str_digits` accepts;
    past that `decimal` does, so no setting of the limit refuses a count.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name}={shown(text)} is not a positive integer")
    if len(text) <= 640:
        return int(text)
    from decimal import Decimal
    return int(Decimal(text))


def shown(value) -> str:
    """A value from outside, for a message: its repr, or, when that passes
    40 bytes of UTF-8 between its quotes, the repr of the longest head of
    it (of a text, else of its repr) that fits them and its length in
    characters, so that a message stays one short line.  Bytes, not
    characters, are counted, as the CLI's parser bounds a message, so that
    a value of multi-byte characters cannot push a message past it."""
    text = value if isinstance(value, str) else repr(value)
    # the longest head of at most 40 characters whose repr takes 40 bytes and its quotes
    head = next(text[:i] for i in range(40, -1, -1) if len(repr(text[:i]).encode()) <= 42)
    return repr(value) if head == text else f"{head!r}... ({len(text)} characters)"


def group_cap() -> int:
    """The group-size cap: DEFAULT_GROUP_CAP unless the GARSIDE_CAP
    environment variable sets it, read by `read_count`.  Any other value,
    or 0, raises ValueError naming GARSIDE_CAP."""
    value = os.environ.get("GARSIDE_CAP")
    if not value:
        return DEFAULT_GROUP_CAP
    if value.strip("0"):
        return read_count(value, "GARSIDE_CAP")
    raise ValueError(f"GARSIDE_CAP={shown(value)} is not a positive integer")


def format_count(value: int) -> str:
    """An integer for a message: its decimal digits up to COUNT_DIGITS of
    them, else its sign and "<about N digits>" with N read from
    `bit_length`, so that no long string of it is made."""
    if abs(value) < 10**COUNT_DIGITS:
        return str(value)
    digits = int(value.bit_length() * math.log10(2)) + 1  # exact or one over
    return f"{'-' * (value < 0)}<about {digits} digits>"


def admit(what: str, factors: Iterable[int], cap: int, knob: str) -> int:
    """The product of `factors`, the size of `what`, if it is at most `cap`.

    The factors are multiplied in order, and the product is given up as
    soon as it passes max(cap, 10^COUNT_DIGITS), so a refused size is never
    formed in full.  Above the cap, CapExceededError names `what`, its size
    (exact, or "more than" that bound), the cap and the knob that sets it.
    """
    bound, product = max(cap, 10**COUNT_DIGITS), 1
    for factor in factors:
        product *= factor
        if product > bound:
            break
    if product <= cap:
        return product
    size = format_count(product) if product <= bound else "more than " + format_count(bound)
    raise CapExceededError(f"{what} = {size} exceeds the cap {format_count(cap)} (set by {knob})")


def admit_group(params: GroupParams) -> int:
    """|G(e,e,n)| = e^(n-1) n!, admitted against `group_cap` (GARSIDE_CAP)."""
    e, n = params.e, params.n
    name = f"|G({format_count(e)},{format_count(e)},{format_count(n)})|"
    # a range, not `repeat`, counts the e's: n - 1 may pass a C ssize_t
    factors = itertools.chain((e for _ in range(n - 1)), range(2, n + 1))
    return admit(name, factors, group_cap(), "GARSIDE_CAP")


class _GroupParams(NamedTuple):
    e: int
    n: int
    k: int | None = None


class GroupParams(_GroupParams):
    """Parameters (e, n) of G(e,e,n), plus the interval exponent k when fixed.

    e, n and k must be ints (not bools), with e >= 2, n >= 2 and, when k
    is given, 1 <= k <= e-1; anything else raises ValueError naming the field.
    """

    __slots__ = ()

    def __new__(cls, e: int, n: int, k: int | None = None) -> "GroupParams":
        for name, value in (("e", e), ("n", n), ("k", k)):
            if not (_is_int(value) or (name == "k" and value is None)):
                raise ValueError(f"{name} must be an integer, got {shown(value)}")
        if e < 2:
            raise ValueError(f"e must be >= 2, got {format_count(e)}")
        if n < 2:
            raise ValueError(f"n must be >= 2, got {format_count(n)}")
        if k is not None and not 1 <= k <= e - 1:
            raise ValueError(f"k must satisfy 1 <= k <= e-1, got k={format_count(k)}")
        return super().__new__(cls, e, n, k)

    def order(self) -> int:
        """Group order e^(n-1) * n!."""
        return self.e ** (self.n - 1) * math.factorial(self.n)


class Generator(NamedTuple):
    """Atom symbol: kind 't' with index mod e, or kind 's' with 3 <= index <= n.

    Generators sort by (kind, index).
    """

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def atoms(params: GroupParams) -> list[Generator]:
    """The generating set: t_0..t_{e-1} followed by s_3..s_n (none for n=2)."""
    gens = [Generator("t", i) for i in range(params.e)]
    gens += [Generator("s", j) for j in range(3, params.n + 1)]
    return gens


def braid_m(x: Generator, y: Generator) -> int:
    """Letters a side of the relation of two distinct atoms: 3 braid, 2 commute,
    0 for two t's (dual relations).  Each t_i sits where s_2 would, and atoms
    a step apart on 2, 3, ..., n braid."""
    if x.kind == y.kind == "t":
        return 0
    i = x.index if x.kind == "s" else 2
    j = y.index if y.kind == "s" else 2
    return 3 if abs(i - j) == 1 else 2


def alternating(x: Generator, y: Generator, m: int) -> tuple[Generator, ...]:
    """The word x y x ... of m letters."""
    return tuple((x, y)[i % 2] for i in range(m))


def lcm_word(x: Generator, y: Generator, params: GroupParams) -> tuple[Generator, ...]:
    """The word of lcm(x, y) whose last letter is y, for two distinct atoms:
    ... x y of m = braid_m(x, y) letters, or t_(j+k) t_j for two t's with
    y = t_j.  Their defining relation is lcm_word(y, x) = lcm_word(x, y)."""
    m = braid_m(x, y)
    if m:
        return alternating(y, x, m)[::-1]
    return Generator("t", (y.index + params.k) % params.e), y


def parse_word(text: str, params: GroupParams) -> list[tuple[Generator, int]]:
    """Parse a whitespace-separated word like "t0 s3 t1^-1" into
    (Generator, sign) pairs, with sign +1, or -1 for a letter ending in ^-1.
    """
    letters = []
    for token in text.split():
        sign = 1
        if token.endswith("^-1"):
            sign = -1
            token = token[:-3]
        if token[:1] not in ("t", "s"):
            raise ValueError(f"bad generator token {shown(token)}")
        gen = Generator(token[0], read_count(token[1:], f"{token[0]}-index"))
        _check_generator(gen, params)
        letters.append((gen, sign))
    return letters


def format_word(letters) -> str:
    return " ".join(str(x) for x in letters)


def is_atom(g: Generator, params: GroupParams) -> bool:
    """Whether g is one of `atoms(params)`: t_i with 0 <= i < e, or s_j with
    3 <= j <= n."""
    if g.kind == "t":
        return 0 <= g.index < params.e
    return g.kind == "s" and 3 <= g.index <= params.n


def _check_generator(g: Generator, params: GroupParams) -> None:
    if is_atom(g, params):
        return
    if g.kind not in ("t", "s"):
        raise ValueError(f"unknown generator kind {shown(g.kind)}")
    bound = f"e={format_count(params.e)}" if g.kind == "t" else f"n={format_count(params.n)}"
    raise ValueError(f"{g.kind}-index {format_count(g.index)} out of range for {bound}")


class GroupElement(NamedTuple):
    """A monomial matrix of G(e,e,n) as (permutation, exponent vector mod e)."""

    e: int
    perm: tuple[int, ...]
    exps: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.perm)

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(len(self.perm))) and not any(
            self.exps
        )

    def entry_of_row(self, i: int) -> tuple[int, int]:
        """(column, exponent) of the nonzero entry of row i (1-based)."""
        return self.perm[i - 1], self.exps[i - 1]

    def to_json(self) -> str:
        return json.dumps(
            {"e": self.e, "n": self.n, "perm": list(self.perm), "exps": list(self.exps)},
            sort_keys=True,
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> "GroupElement":
        """Parse the form written by `to_json`; any malformed payload raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:  # the parser recurses once per nested bracket
            raise ValueError("element is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError(f"element must be a JSON object, got {shown(text)}")
        missing = {"e", "n", "perm", "exps"} - data.keys()
        if missing:
            raise ValueError(f"element is missing {sorted(missing)}")
        e, n, perm, exps = data["e"], data["n"], data["perm"], data["exps"]
        GroupParams(e, n)  # refuses a non-integer, e < 2 and n < 2
        for name, entries in (("perm", perm), ("exps", exps)):
            if not (isinstance(entries, list) and all(map(_is_int, entries))):
                raise ValueError(f"{name} must be a list of integers, got {shown(entries)}")
        w = GroupElement(e, tuple(perm), tuple(exps))
        _validate_element(w, n)
        return w


# GroupElement from one (e, perm, exps) tuple, built in C; the fields are
# taken as given, unchecked.
new_element = partial(tuple.__new__, GroupElement)


def _is_int(value) -> bool:
    """Whether a parsed JSON value is an integer (a bool is not)."""
    return type(value) is int


def _validate_element(w: GroupElement, n: int) -> None:
    if len(w.perm) != n:
        raise ValueError(f"perm has length {len(w.perm)}, expected n={format_count(n)}")
    if sorted(w.perm) != list(range(1, len(w.perm) + 1)):
        raise ValueError(f"perm {shown(w.perm)} is not a permutation of 1..{len(w.perm)}")
    if len(w.exps) != len(w.perm):
        raise ValueError("exps and perm have different lengths")
    if any(not 0 <= a < w.e for a in w.exps):
        raise ValueError(f"exponents {shown(w.exps)} out of range mod {format_count(w.e)}")
    if sum(w.exps) % w.e != 0:
        raise ValueError(f"exponent sum of {shown(w.exps)} is not 0 mod {format_count(w.e)}")


def identity(params: GroupParams) -> GroupElement:
    n = params.n
    return GroupElement(params.e, tuple(range(1, n + 1)), (0,) * n)


def generator_matrix(g: Generator, params: GroupParams) -> GroupElement:
    """Matrix of a generator: t_i swaps rows 1,2 with exponents -i, i; s_j is
    the plain transposition (j-1, j)."""
    _check_generator(g, params)
    e, n = params.e, params.n
    perm = list(range(1, n + 1))
    exps = [0] * n
    if g.kind == "t":
        perm[0], perm[1] = 2, 1
        exps[0] = (-g.index) % e
        exps[1] = g.index % e
    else:
        j = g.index
        perm[j - 2], perm[j - 1] = j, j - 1
    return GroupElement(e, tuple(perm), tuple(exps))


def multiply(u: GroupElement, v: GroupElement) -> GroupElement:
    """Matrix product u*v.

    Row i of the product is nonzero at column sigma_v(sigma_u(i)) and the
    exponents add along the composition: eps(i) = eps_u(i) + eps_v(sigma_u(i)).
    """
    if u.e != v.e or len(u.perm) != len(v.perm):
        raise ParameterMismatchError(
            f"cannot multiply elements of G({u.e},{u.e},{len(u.perm)}) "
            f"and G({v.e},{v.e},{len(v.perm)})"
        )
    e = u.e
    vperm = v.perm
    vexps = v.exps
    perm = tuple([vperm[c - 1] for c in u.perm])
    exps = tuple([(a + vexps[c - 1]) % e for a, c in zip(u.exps, u.perm)])
    return new_element((e, perm, exps))


@lru_cache(maxsize=None)
def inverse_order(perm: tuple[int, ...]) -> tuple[tuple[int, ...], Callable]:
    """(sigma^(-1), a getter of the rows j in increasing sigma(j)) of a permutation.

    Row i of the inverse or the transpose of w is row j of w, the i-th in
    that order, moved to column sigma^(-1)(i); the getter reads those rows
    off any per-row tuple in one C call.  For n <= 1 it is `tuple`, since
    `itemgetter` with one index returns a scalar.  The table holds one
    entry per permutation seen, at most n! per n.
    """
    order = sorted(range(len(perm)), key=perm.__getitem__)
    rows = itemgetter(*order) if len(order) > 1 else tuple
    return tuple([j + 1 for j in order]), rows


def left_quotient(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a^(-1) b, in one pass.

    Row i of a^(-1) is nonzero at column j where sigma_a(j) = i, with
    exponent -eps_a(j); so row sigma_a(j) of the quotient is row j of b
    with eps_a(j) taken off: column sigma_b(j), exponent eps_b(j) - eps_a(j).
    """
    if a.e != b.e or len(a.perm) != len(b.perm):
        raise ParameterMismatchError(
            f"cannot divide elements of G({a.e},{a.e},{len(a.perm)}) "
            f"and G({b.e},{b.e},{len(b.perm)})"
        )
    e = a.e
    rows = inverse_order(a.perm)[1]
    exps = tuple([(y - x) % e for x, y in zip(rows(a.exps), rows(b.exps))])
    return new_element((e, rows(b.perm), exps))


def inverse(w: GroupElement) -> GroupElement:
    """Inverse = conjugate transpose: sigma^(-1) with negated, relabeled exponents."""
    perm, rows = inverse_order(w.perm)
    e = w.e
    return new_element((e, perm, tuple([-a % e for a in rows(w.exps)])))


def transpose(w: GroupElement) -> GroupElement:
    """Plain transpose: the length-preserving antiautomorphism sending t_i to
    t_{-i} and fixing every s_j."""
    perm, rows = inverse_order(w.perm)
    return new_element((w.e, perm, rows(w.exps)))


def evaluate_word(letters, params: GroupParams) -> GroupElement:
    """Product in G(e,e,n) of a word over the generating set."""
    w = identity(params)
    for g in letters:
        w = multiply(w, generator_matrix(g, params))
    return w


@lru_cache(maxsize=None)
def exponent_vectors(e: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The e^(n-1) exponent vectors of G(e,e,n), in lexicographic order.

    The exponent-sum rule fixes the last exponent, so the heads are listed
    in order and each is completed once: the vector with head (a_1, ...,
    a_(n-1)) sits at position sum a_i e^(n-1-i).  Every element built from
    this table shares its exponent tuple with the others, whatever its
    permutation.
    """
    return tuple(
        head + (-sum(head) % e,)
        for head in itertools.product(range(e), repeat=n - 1)
    )


def group_elements(params: GroupParams) -> Iterator[GroupElement]:
    """All of G(e,e,n), exactly once, in lexicographic order on (perm, exps),
    as a stream.

    The group is admitted (`admit_group`) when this is called, before the
    first element is asked for; the elements come one at a time, so no
    list of |G| elements is held.  Per permutation, its elements are built
    by `new_element` in one `map`, with no Python frame per element.
    """
    admit_group(params)
    e, n = params.e, params.n
    vectors = exponent_vectors(e, n)
    return itertools.chain.from_iterable(
        map(new_element, zip(itertools.repeat(e), itertools.repeat(perm), vectors))
        for perm in itertools.permutations(range(1, n + 1))
    )


def enumerate_group(params: GroupParams) -> list[GroupElement]:
    """All of G(e,e,n) as a list, in the order of `group_elements`."""
    return list(group_elements(params))


def lambda_power(params: GroupParams, k: int) -> GroupElement:
    """The diagonal element lambda^k = diag(zeta^{-k(n-1)}, zeta^k, ..., zeta^k)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {format_count(k)}")
    e, n = params.e, params.n
    exps = [(-k * (n - 1)) % e] + [k % e] * (n - 1)
    return GroupElement(e, tuple(range(1, n + 1)), tuple(exps))
