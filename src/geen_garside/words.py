"""
Reduced words over the generating set {t_0..t_{e-1}, s_3..s_n} of G(e,e,n).

Two routes produce the same minimal word for an element w.  Both emit, for
block i = n..2, the word `_block_word(i, c, k)`, a fixed function of the
column c and exponent k of the entry of row i; they differ only in how they
find (c, k):

* `reduced_expression` runs the row-reduction loop literally: on a scratch
  copy, for i = n down to 2 it reads (c, k) off row i, prepends the block
  word and right-multiplies the scratch by its letters, last first, through
  `_rmul`, which leaves a 1 at (i, i).

* `reduced_expression_blockwise` reads (c, k) straight off the matrix:
  block i is rows 1..i with their columns renumbered 1..i in order and the
  first column's exponent fixed by the row sum.

Their agreement checks the two ways of finding (c, k) against each other.
`length` counts the letters of these words in closed form and equals the
Cayley-graph distance from the identity, for which `cayley_length_table` is
the independent BFS oracle; the part of that count fixed by the permutation
is tabulated once per permutation by `_row_shape`.  `divisor_rows` turns
the test len(a) + len(a^(-1) b) = len(b) into one sum of n entries: for a
divisor b and a permutation of a, one row table per row, indexed by a's
exponent there, and a target, kept in one bounded cache keyed by the two.
`length_decreases` answers whether a single left multiplication by a
generator shortens an element, straight from the matrix entries, without
recomputing any words; for the s-atoms it reads `s_descent_row`, the one
copy of their rule, which depends on the permutation alone.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .core import (
    Generator,
    GroupElement,
    GroupParams,
    ParameterMismatchError,
    admit,
    admit_group,
    atoms,
    exponent_vectors,
    generator_matrix,
    group_cap,
    identity,
    inverse_order,
    multiply,
)


def _rmul(perm: list[int], exps: list[int], x: Generator, e: int) -> None:
    """Right-multiply the scratch matrix by the atom x, in place.

    s_m swaps columns m-1 and m; t_m swaps columns 1 and 2, the entry
    leaving column 1 gaining -m and the one leaving column 2 gaining m.
    """
    if x.kind == "s":
        a, b, shift = x.index - 1, x.index, 0
    else:
        a, b, shift = 1, 2, x.index
    i, j = perm.index(a), perm.index(b)
    perm[i], perm[j] = b, a
    exps[i] = (exps[i] - shift) % e
    exps[j] = (exps[j] + shift) % e


def reduced_expression(w: GroupElement) -> list[Generator]:
    """Minimal word for w, by the literal row-reduction loop."""
    perm = list(w.perm)
    exps = list(w.exps)
    blocks: list[list[Generator]] = []
    for i in range(w.n, 1, -1):
        block = _block_word(i, perm[i - 1], exps[i - 1])
        # right-multiply by the block's inverse, which moves the entry of
        # row i onto the diagonal as a 1; every atom is an involution
        for x in reversed(block):
            _rmul(perm, exps, x, w.e)
        blocks.append(block)
    return [x for block in reversed(blocks) for x in block]


def _block_word(i: int, c: int, k: int) -> list[Generator]:
    """Word contributed by block i, by the closed-form case split on (c, k);
    both routes emit it."""
    if k != 0:
        word = [Generator("s", m) for m in range(i, 2, -1)]
        word.append(Generator("t", k))
        if c >= 2:
            word.append(Generator("t", 0))
        word += [Generator("s", m) for m in range(3, c + 1)]
        return word
    return [
        Generator("s", m) if m >= 3 else Generator("t", 0)
        for m in range(i, c, -1)
    ]


class BlockDecomposition:
    """Per-block data of an element: blocks w_n..w_2 and the word each emits."""

    def __init__(self, w: GroupElement):
        self.element = w
        # (i, c, exponent) of the entry of row i in block i, for i = n..2
        self.steps = [(b.n, b.perm[-1], b.exps[-1]) for b in self.blocks()]

    def block_word(self, i: int) -> list[Generator]:
        """Word contributed by block i (2 <= i <= n)."""
        step = self.steps[self.element.n - i]
        return _block_word(*step)

    def blocks(self) -> list[GroupElement]:
        """The square blocks w_n, ..., w_2, each a monomial matrix on 1..i.

        Block i is rows 1..i of w with their columns renumbered 1..i in
        order.  Every entry keeps its exponent except the one in the first
        column, which takes the exponent that makes the row sum 0 mod e:
        deleting a row carries its exponent only into the leftmost entry.
        """
        w = self.element
        out = []
        for i in range(w.n, 1, -1):
            rows = w.perm[:i]
            perm = tuple(sum(p <= c for p in rows) for c in rows)
            exps = list(w.exps[:i])
            first = perm.index(1)
            exps[first] = (exps[first] - sum(exps)) % w.e
            out.append(GroupElement(w.e, perm, tuple(exps)))
        return out

    def word(self) -> list[Generator]:
        """Concatenation block 2, block 3, ..., block n."""
        out: list[Generator] = []
        for step in reversed(self.steps):
            out += _block_word(*step)
        return out


def reduced_expression_blockwise(w: GroupElement) -> BlockDecomposition:
    return BlockDecomposition(w)


@lru_cache(maxsize=None)
def _row_shape(perm: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(sum of i - 1 - c_i over the rows, (2 c_i per row)) for a permutation.

    c_i counts the rows above row i whose entry lies further left.  The
    table holds one entry per permutation seen, at most n! per n.
    """
    doubled = tuple(2 * sum(p < c for p in perm[:i]) for i, c in enumerate(perm))
    n = len(perm)
    return n * (n - 1) // 2 - sum(doubled) // 2, doubled


# Entries kept by the `divisor_rows` cache.  The divisor scan and
# `is_balanced` test one permutation at a time and alternate between two
# keys, (sigma, b) and (sigma^(-1), b^T), so a few entries serve them; a
# larger bound only holds more tables (on perfbench's grid sweep, CPython
# 3.11 on a 2-vCPU VM, 4096 entries raised peak RSS by 0.13 MB, where 64
# left it unchanged).
DIVISOR_ROWS_CACHE = 64


@lru_cache(maxsize=DIVISOR_ROWS_CACHE)
def divisor_rows(
    aperm: tuple[int, ...], b: GroupElement
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, target) of the test a <= b for the elements a with permutation
    aperm.

    Row j of a becomes row sigma_a(j) of a^(-1) b, with exponent
    eps_b(j) - eps_a(j), so it counts a's weight 2 c_j (of `_row_shape`)
    when eps_a(j) != 0 and the quotient's weight of that row when
    eps_a(j) != eps_b(j); rows[j] is that sum for each value of eps_a(j).
    The quotient's permutation is read through the row getter of
    `inverse_order`, as `left_quotient` reads it.  target is len(b) minus
    the `_row_shape` bases of a and of a^(-1) b, so that len(a) +
    len(a^(-1) b) = len(b) exactly when sum(map(getitem, rows, a.exps)) ==
    target.  No quotient is formed.  b is read by unpacking, so a plain
    (e, perm, exps) tuple will do; an aperm of another n than b's raises
    ParameterMismatchError, and is never cached.
    """
    e, bperm, bexps = b
    if len(aperm) != len(bperm):
        raise ParameterMismatchError(
            f"cannot divide elements of G({e},{e},{len(aperm)}) and G({e},{e},{len(bperm)})"
        )
    abase, aweights = _row_shape(aperm)
    qbase, qweights = _row_shape(inverse_order(aperm)[1](bperm))
    rows = tuple([
        tuple([w * (x != 0) + qweights[c - 1] * (x != bexp) for x in range(e)])
        for w, c, bexp in zip(aweights, aperm, bexps)
    ])
    return rows, length(b) - abase - qbase


def length(w: GroupElement) -> int:
    """Minimal word length of w over the generating set.

    With c_i the number of rows above row i whose entry lies further left,
    block i has its entry in column c_i + 1 and emits i - 1 + c_i letters if
    that entry's exponent is non-zero, else i - 1 - c_i.  The raw exponent
    will do: a carried exponent only reaches rows with c_i = 0, which add
    i - 1 either way.  So the length is the permutation's sum of i - 1 - c_i,
    looked up in `_row_shape`, plus 2 c_i for each row with a non-zero
    exponent.  w is read by unpacking, so a plain (e, perm, exps) tuple will
    do.
    """
    _, perm, exps = w
    base, doubled = _row_shape(perm)
    return base + sum(compress(doubled, exps))


def s_descent_row(perm: tuple[int, ...], i: int) -> tuple[int, bool]:
    """The rule by which s_i shortens the elements with permutation perm:
    (r, nonzero) such that len(s_i w) == len(w) - 1 exactly when w's
    exponent at the 0-based row r is nonzero, if nonzero is True, or zero,
    if it is False.

    If the entries of rows i-1 and i lie in increasing columns, row i
    decides, and its entry must be a root of unity other than 1; otherwise
    the entry of row i-1 must be 1.  The rule depends on the permutation
    alone, so the interval build reads it once per permutation.
    """
    if perm[i - 2] < perm[i - 1]:
        return i - 1, True
    return i - 2, False


def length_decreases(x: Generator, w: GroupElement) -> bool:
    """Whether len(x*w) == len(w) - 1, read off the matrix entries of w.

    For x = s_i the answer is `s_descent_row`'s rule.  For x = t_m it
    depends on rows 1 and 2, and the t-atoms shorten w all together or one
    at a time: if sigma(1) < sigma(2), every t_m shortens w exactly when
    the entry of row 2 is not 1; otherwise only t_m with m = -exps[0] mod e
    does, whose exponent cancels that of row 1.
    """
    e, perm, exps = w
    if x.kind == "s":
        row, nonzero = s_descent_row(perm, x.index)
        return (exps[row] != 0) == nonzero
    if perm[0] < perm[1]:
        return exps[1] != 0
    return exps[0] == (-x.index) % e


def maximal_length_elements(params: GroupParams) -> list[GroupElement]:
    """The (e-1)^(n-1) diagonal matrices with nontrivial entries in rows 2..n.

    These are exactly the elements of maximal length n(n-1); the first
    diagonal entry is forced by the exponent-sum rule, so they are the
    vectors of `exponent_vectors` with no zero in rows 2..n, in its
    lexicographic order.
    """
    e, n = params.e, params.n
    perm = tuple(range(1, n + 1))
    return [GroupElement(e, perm, v) for v in exponent_vectors(e, n) if all(v[1:])]


def all_reduced_expressions(
    w: GroupElement,
    params: GroupParams,
    cap: int = 10**5,
    knob: str = "the cap of all_reduced_expressions",
) -> list[tuple[Generator, ...]]:
    """Every minimal word for w, by descent through length-decreasing letters.

    Their number is counted first, with no word listed: an integer for each
    element below w, the sum of those of the elements its length-decreasing
    letters lead to.  `admit` admits it against cap, naming knob in a
    refusal, before any word is listed.
    """
    gens = [(x, generator_matrix(x, params)) for x in atoms(params)]

    @lru_cache(maxsize=None)
    def below(u: GroupElement) -> list[tuple[Generator, GroupElement]]:
        return [(x, multiply(xmat, u)) for x, xmat in gens if length_decreases(x, u)]

    @lru_cache(maxsize=None)
    def count(u: GroupElement) -> int:
        return 1 if u.is_identity() else sum(count(v) for _, v in below(u))

    @lru_cache(maxsize=None)
    def listed(u: GroupElement) -> list[tuple[Generator, ...]]:
        if u.is_identity():
            return [()]
        return [(x,) + tail for x, v in below(u) for tail in listed(v)]

    admit("the element's reduced expressions", (count(w),), cap, knob)
    return listed(w)


def cayley_length_table(params: GroupParams) -> dict[GroupElement, int]:
    """Graph distance from the identity in the Cayley graph of (G, X).

    Plain BFS using only `multiply`; deliberately independent of the
    row-reduction algorithm so it can serve as its oracle.  It forms one
    product per element and atom, so after `admit_group` admits the group,
    `admit` admits that work, |G| (e + n - 2), against the same cap.
    """
    products = (admit_group(params), params.e + params.n - 2)
    admit("the breadth-first search's products |G| |A|", products, group_cap(), "GARSIDE_CAP")
    gens = [generator_matrix(x, params) for x in atoms(params)]
    start = identity(params)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        next_frontier = []
        for u in frontier:
            for g in gens:
                v = multiply(g, u)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    next_frontier.append(v)
        frontier = next_frontier
    return dist
