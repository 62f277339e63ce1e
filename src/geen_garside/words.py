"""
Reduced words over the generating set {t_0..t_{e-1}, s_3..s_n} of G(e,e,n).

Two independent routes produce the same minimal word for an element w:

* `reduced_expression` runs the row-reduction loop literally: working on a
  scratch copy, for i = n down to 2 it locates the nonzero entry of row i,
  clears its root of unity by right-multiplying with s_c..s_2 t_k (s_2 means
  t_0), and shifts the resulting 1 onto the diagonal with s_{c+1}..s_i,
  prepending the used letters.

* `reduced_expression_blockwise` reads each block straight off the matrix:
  block i is rows 1..i with their columns renumbered 1..i in order and the
  first column's exponent fixed by the row sum, and the word emitted for
  each block is a fixed function of (c, exponent).

Their agreement is a cross-check against transcription slips in either one.
`length` counts the letters of these words in closed form and equals the
Cayley-graph distance from the identity, for which `cayley_length_table` is
the independent BFS oracle; the part of that count fixed by the permutation
is tabulated once per permutation by `_row_shape`.  `divisor_rows` turns
the test len(a) + len(a^(-1) b) = len(b) into one sum of n entries: for a
divisor b and a permutation of a, one row table per row, indexed by a's
exponent there, and a target.  `length_decreases` answers whether a single
left multiplication by a generator shortens an element, straight from the
matrix entries, without recomputing any words.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product

from .core import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    admit_group,
    atoms,
    generator_matrix,
    identity,
    multiply,
)


def _rmul_s(perm: list[int], m: int) -> None:
    """Right-multiply by s_m: swap columns m-1 and m."""
    for i, c in enumerate(perm):
        if c == m - 1:
            perm[i] = m
        elif c == m:
            perm[i] = m - 1


def _rmul_t(perm: list[int], exps: list[int], m: int, e: int) -> None:
    """Right-multiply by t_m: column 1 -> 2 gaining -m, column 2 -> 1 gaining m."""
    for i, c in enumerate(perm):
        if c == 1:
            perm[i] = 2
            exps[i] = (exps[i] - m) % e
        elif c == 2:
            perm[i] = 1
            exps[i] = (exps[i] + m) % e


def reduced_expression(w: GroupElement) -> list[Generator]:
    """Minimal word for w, by the literal row-reduction loop."""
    e, n = w.e, w.n
    perm = list(w.perm)
    exps = list(w.exps)
    word: list[Generator] = []
    for i in range(n, 1, -1):
        c = perm[i - 1]
        k = exps[i - 1]
        if k != 0:
            # Shift the entry to column 1 (via s_c..s_3, then s_2 = t_0),
            # then turn it into a 1 sitting in column 2 with t_k.
            for m in range(c, 2, -1):
                _rmul_s(perm, m)
            if c >= 2:
                _rmul_t(perm, exps, 0, e)
            _rmul_t(perm, exps, k, e)
            prefix = [Generator("t", k)]
            if c >= 2:
                prefix.append(Generator("t", 0))
            prefix += [Generator("s", m) for m in range(3, c + 1)]
            word = prefix + word
            c = 2
        # Shift the 1 from column c to the diagonal position (i, i).
        for m in range(c + 1, i + 1):
            if m >= 3:
                _rmul_s(perm, m)
            else:
                _rmul_t(perm, exps, 0, e)
        word = [
            Generator("s", m) if m >= 3 else Generator("t", 0)
            for m in range(i, c, -1)
        ] + word
    return word


def _block_word(i: int, c: int, k: int) -> list[Generator]:
    """Word contributed by block i, by the closed-form case split on (c, k)."""
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


@lru_cache(maxsize=None)
def _divisor_row(aweight: int, qweight: int, bexp: int, e: int) -> tuple[int, ...]:
    """What one row adds to the length sum of `divisor_rows`, per exponent x
    of a there: a's weight when x != 0, plus the quotient's when x != bexp.

    Rows are interned by their four arguments, so each (e, n) holds at most
    n^2 e of them, whatever the divisors.
    """
    return tuple(aweight * (x != 0) + qweight * (x != bexp) for x in range(e))


def divisor_rows(
    aperm: tuple[int, ...], b: GroupElement
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, target) of the test a <= b for the elements a with permutation
    aperm.

    Row j of a becomes row sigma_a(j) of a^(-1) b, with exponent
    eps_b(j) - eps_a(j), so it counts a's weight 2 c_j (of `_row_shape`)
    when eps_a(j) != 0 and the quotient's weight of that row when
    eps_a(j) != eps_b(j); rows[j] is that sum for each value of eps_a(j).
    target is len(b) minus the `_row_shape` bases of a and of a^(-1) b, so
    that len(a) + len(a^(-1) b) = len(b) exactly when
    sum(map(getitem, rows, a.exps)) == target.  No quotient is formed.
    """
    qperm = [0] * len(aperm)
    for c, d in zip(aperm, b.perm):
        qperm[c - 1] = d
    abase, aweights = _row_shape(aperm)
    qbase, qweights = _row_shape(tuple(qperm))
    rows = tuple([
        _divisor_row(w, qweights[c - 1], x, b.e)
        for w, c, x in zip(aweights, aperm, b.exps)
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
    exponent.
    """
    base, doubled = _row_shape(w.perm)
    return base + sum(compress(doubled, w.exps))


def length_decreases(x: Generator, w: GroupElement) -> bool:
    """Whether len(x*w) == len(w) - 1, read off the matrix entries of w.

    For x = s_i the answer depends on the relative position of the nonzero
    entries of rows i-1 and i and on whether the trailing entry is a root of
    unity other than 1; for x = t_m it depends on rows 1 and 2, where in the
    swapped case the exponent must cancel m exactly.
    """
    perm = w.perm
    exps = w.exps
    if x.kind == "s":
        i = x.index
        if perm[i - 2] < perm[i - 1]:
            return exps[i - 1] != 0
        return exps[i - 2] == 0
    if perm[0] < perm[1]:
        return exps[1] != 0
    return exps[0] == (-x.index) % w.e


def maximal_length_elements(params: GroupParams) -> list[GroupElement]:
    """The (e-1)^(n-1) diagonal matrices with nontrivial entries in rows 2..n.

    These are exactly the elements of maximal length n(n-1); the first
    diagonal entry is forced by the exponent-sum rule.
    """
    e, n = params.e, params.n
    perm = tuple(range(1, n + 1))
    out = []
    for tail in product(range(1, e), repeat=n - 1):
        head = (-sum(tail)) % e
        out.append(GroupElement(e, perm, (head,) + tail))
    out.sort(key=lambda w: w.exps)
    return out


def all_reduced_expressions(
    w: GroupElement, params: GroupParams, cap: int = 10**5
) -> list[tuple[Generator, ...]]:
    """Every minimal word for w, by descent through length-decreasing letters."""
    gens = [(x, generator_matrix(x, params)) for x in atoms(params)]
    memo: dict[GroupElement, list[tuple[Generator, ...]]] = {}
    budget = cap

    def rec(u: GroupElement) -> list[tuple[Generator, ...]]:
        nonlocal budget
        if u.is_identity():
            return [()]
        cached = memo.get(u)
        if cached is not None:
            return cached
        out: list[tuple[Generator, ...]] = []
        for x, xmat in gens:
            if length_decreases(x, u):
                for tail in rec(multiply(xmat, u)):
                    out.append((x,) + tail)
                    budget -= 1
                    if budget < 0:
                        raise CapExceededError(
                            f"more than {cap} reduced expressions"
                        )
        memo[u] = out
        return out

    return rec(w)


def cayley_length_table(params: GroupParams) -> dict[GroupElement, int]:
    """Graph distance from the identity in the Cayley graph of (G, X).

    Plain BFS using only `multiply`; deliberately independent of the
    row-reduction algorithm so it can serve as its oracle.
    """
    admit_group(params)
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
