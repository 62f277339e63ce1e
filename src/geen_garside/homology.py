"""
Low-degree integral homology of the interval Garside groups via their
finite free resolution.

Cells in degree r are the increasing r-tuples of atoms, under the order
s_n < s_{n-1} < ... < s_3 < t_0 < t_1 < ... < t_{e-1}, that pass the head
condition: each atom must be the least atom right-dividing the right lcm of
the tail it starts.  So the tail of a cell is a cell, and the (r+1)-cells
are the r-cells c extended by an atom p < c[0] that heads lcm(p, c).
`TOP_DEGREE` is the one place the top degree is written: `CellComplex`
generates the cells of degrees 0..TOP_DEGREE by that extension once, when
it is built for a structure, together with the row of each cell in its
degree, and `homology_group` takes 1 <= r < TOP_DEGREE.  The right lcm of a
tail is one join of its first atom with the lcm of the shorter tail.

Chains carry coefficients in the monoid ring and are flat dicts
(cell, normal form) -> integer; the generic route implements the recursive
contracting-homotopy definition of the boundary maps verbatim (it is the
ground truth), while `differential_closed_form` writes the boundary maps in
closed form: with trivial coefficients, d_2 of a 2-cell [x, y] is the
relation of x and y abelianized, the letters of `core.lcm_word(x, y)` minus
those of `lcm_word(y, x)` (Dehornoy-Lafont, Homology of Gaussian groups,
Ann. Inst. Fourier 2003), and d_3 types out the worked-out row formulas.
Both hand the (face, coefficient) pairs of each cell to one
assembly, `_boundary_matrix`, which also holds the degree guard, and
`differentials` is the one entry point that picks the route.  The homotopy
maps u and s act on single monomials (degree, coefficient, cell).  One memo
scope, a `_GenericDifferential`, computes every partial chain, s-monomial,
least right-dividing atom and normal-form product once: a `differentials`
call has one for all the degrees it is asked for, so d_{r+1} reuses the
chains of d_r.  The memo is dropped when the call returns, and
GENERIC_OP_CAP bounds the work actually computed in one scope.  With trivial
coefficients every monoid coefficient collapses to its integer term count,
giving the integer matrices d_1, ..., d_TOP_DEGREE.

Homology is ker(d_r)/im(d_{r+1}), read off integer Smith diagonals by one
formula, `homology_of`: the cokernel of d_{r+1} with the rank of d_r taken
off its free part, so no kernel basis is ever formed.  Above the interval,
cells and their faces are only ordinals: the cofactors that the boundary
maps need are left quotients of complements, which the Garside layer's
`normalize_pair` computes by the same atom-by-atom walk that makes normal
forms left-weighted.
"""

from __future__ import annotations

import math

from .core import CapExceededError, Generator, GroupParams, braid_m, lcm_word
from .garside import GarsideStructure, NormalForm
from .interval import TheoremViolationError
from .snf import AbelianGroup, mat_mul, quotient_group, smith_normal_form, zero_matrix

Cell = tuple[Generator, ...]

GENERIC_OP_CAP = 10**6

# the top degree of the resolution: cells are generated up to it, and H_r is
# computed below it, where d_{r+1} exists
TOP_DEGREE = 3

# the routes to the differentials: the closed form, the recursive generic
# one, or both, checked against each other
METHODS = ("closed", "generic", "both")


def atom_order(params: GroupParams) -> list[Generator]:
    """s_n < s_{n-1} < ... < s_3 < t_0 < t_1 < ... < t_{e-1}."""
    gens = [Generator("s", j) for j in range(params.n, 2, -1)]
    gens += [Generator("t", i) for i in range(params.e)]
    return gens


class CellComplex:
    """Cell bases and lcm/head machinery over a Garside structure.

    `cells[r]` holds the r-cells for r = 0..TOP_DEGREE as position tuples in
    lexicographic order, and `row_index[r]` maps each r-cell to its place in
    `cells[r]`; their length is the number of degrees the resolution is
    computed in.  The (r+1)-cells are the r-cells c extended by an atom
    p < c[0] with head lcm(p, c) = p, since the tail of a cell is a cell, so
    the lcm memo holds only the cells and their one-atom extensions.
    """

    def __init__(self, g: GarsideStructure):
        self.g = g
        self.interval = g.interval
        self.order = atom_order(g.params)
        self.atom_ordinal = [self.interval.atom_ordinal[x] for x in self.order]
        self._lcm_cache: dict[tuple[int, ...], int] = {(): self.interval.identity_ordinal}
        self.cells = [[()]]
        # each cell tuple is also its key in the lcm memo, so it is made once
        for _ in range(TOP_DEGREE):
            self.cells.append(sorted(
                cell
                for c in self.cells[-1]
                for p in range(c[0] if c else len(self.order))
                if self.head_atom(self.lcm(cell := (p,) + c)) == p
            ))
        self.row_index = [{c: i for i, c in enumerate(cells)} for cells in self.cells]

    def lcm(self, positions: tuple[int, ...]) -> int:
        """Right lcm (least common left-multiple) of an increasing atom tuple:
        the join of its first atom with the lcm of the rest."""
        cached = self._lcm_cache.get(positions)
        if cached is None:
            cached = self._lcm_cache[positions] = self.interval.join(
                "right", self.atom_ordinal[positions[0]], self.lcm(positions[1:])
            )
        return cached

    def head_atom(self, member: int) -> int | None:
        """Position of the least atom right-dividing a simple: x <= m on the
        right exactly when x^T <= m^T on the left."""
        flip = self.interval.flip
        transposed = self.interval.div_left[flip[member]]
        for p, ordinal in enumerate(self.atom_ordinal):
            if (transposed >> flip[ordinal]) & 1:
                return p
        return None

    def cofactor(self, alpha: int, tail: tuple[int, ...]) -> int:
        """Simple c with c * lcm(tail) = lcm(alpha, tail), as an ordinal.  The
        callers pass alpha < tail[0], so (alpha,) + tail is the increasing
        tuple whose lcm the memo keeps.

        With whole = c * base, the left complements satisfy
        comp_right[base] = comp_right[whole] * c, so c is the left quotient
        of comp_right[base] by comp_right[whole].  `normalize_pair` on
        (a, comp_right[base]) with comp_left[a] = comp_right[whole], that is
        a = comp_right[comp_right[whole]], moves all of comp_right[whole]
        into a, since it divides comp_right[base]; its second factor is c.
        """
        iv = self.interval
        whole = iv.comp_right[self.lcm((alpha,) + tail)]
        c = iv.comp_right[self.lcm(tail)]
        if not (iv.div_left[c] >> whole) & 1:
            raise TheoremViolationError(
                "lcm(tail) does not right-divide lcm(alpha, tail)"
            )
        return self.g.normalize_pair(iv.comp_right[whole], c)[1]


def complex_of(g: GarsideStructure) -> CellComplex:
    """The cell complex over g, built on first use and kept on g."""
    cx = getattr(g, "cell_complex", None)
    if cx is None:
        cx = g.cell_complex = CellComplex(g)
    return cx


def enumerate_cells(g: GarsideStructure, r: int) -> list[Cell]:
    """All r-cells (0 <= r <= TOP_DEGREE) in lexicographic order of atom
    positions."""
    cx = complex_of(g)
    if not 0 <= r < len(cx.cells):
        raise ValueError(f"only cells of dimension <= {len(cx.cells) - 1} are supported")
    return [tuple(cx.order[p] for p in c) for c in cx.cells[r]]


def _boundary_matrix(cx: CellComplex, r: int, faces) -> list[list[int]]:
    """Matrix of d_r (rows: (r-1)-cells, columns: r-cells); the column of an
    r-cell sums the (face, coefficient) pairs that `faces(cell)` yields.  A
    face that is not an (r-1)-cell is a theorem violation."""
    if not 1 <= r < len(cx.cells):
        raise ValueError(
            f"the resolution is computed in degrees 1..{len(cx.cells) - 1}, not {r}"
        )
    row_index = cx.row_index[r - 1]
    matrix = zero_matrix(len(row_index), len(cx.cells[r]))
    try:
        for col, cell in enumerate(cx.cells[r]):
            for face, coeff in faces(cell):
                matrix[row_index[face]][col] += coeff
    except KeyError as exc:
        raise TheoremViolationError(
            f"face {exc.args[0]} of the cell {cell} is not a cell"
        ) from None
    return matrix


# -- closed-form differentials ------------------------------------------------


def differential_closed_form(g: GarsideStructure, r: int) -> list[list[int]]:
    """Matrix of d_r from closed forms.  The column of a 2-cell [x, y] is
    its defining relation abelianized, the letters of lcm_word(x, y) minus
    those of lcm_word(y, x); that of a 3-cell is a row formula picked by the
    braid_m of each pair of its atoms."""
    cx = complex_of(g)
    e, k = g.params.e, g.params.k
    position = {x: p for p, x in enumerate(cx.order)}

    def t(i: int) -> Generator:
        return Generator("t", i % e)

    def terms(cell: Cell) -> list[tuple[Cell, int]]:
        if len(cell) == 1:
            return [((), 1), ((), -1)]  # d_1[x] = (x - 1)[()] collapses to zero
        if len(cell) == 2:
            x, y = cell
            if x.kind == y.kind == "t" and x != t(0):
                raise TheoremViolationError(f"unexpected two-t cell {cell}")
            return [((z,), 1) for z in lcm_word(x, y, g.params)] + [
                ((z,), -1) for z in lcm_word(y, x, g.params)
            ]
        x, y, z = cell
        if y.kind == "t":
            # the only cells with two t's are [s_j, t_0, t_i]
            if x.kind != "s" or y != t(0) or z.kind != "t":
                raise TheoremViolationError(f"cell {cell} matches no closed form")
            i = z.index
            if braid_m(x, y) != 3:
                return [((x, t(i)), -1), ((x, t(0)), 1), ((x, t(i + k)), -1), ((x, t(k)), 1)]
            out = [
                ((t(0), t(i)), 1), ((x, t(i)), -1), ((t(0), t(k)), 1),
                ((x, t(i + 2 * k)), 1), ((x, t(0)), 1), ((x, t(2 * k)), -1),
            ]
            if (i + k) % e:
                # at i + k = 0 mod e this face is [t_0, t_0], which is no cell
                out.append(((t(0), t(i + k)), -1))
            return out
        ms = (braid_m(x, y), braid_m(x, z), braid_m(y, z))
        if ms == (3, 2, 3):
            return [((x, z), -2)]
        if ms == (3, 2, 2):
            return [((y, z), 1), ((x, z), -1)]
        if ms == (2, 2, 3):
            return [((x, y), 1), ((x, z), -1)]
        if ms == (2, 2, 2):  # commuting triples contribute nothing
            return []
        raise TheoremViolationError(f"cell {cell} matches no closed form")

    def faces(cell: tuple[int, ...]):
        # tuple() of a list, not of a generator: the latter allocates ten
        # slots and shrinks them, which leaves the small-tuple free lists full
        for face, coeff in terms(tuple([cx.order[p] for p in cell])):
            yield tuple([position[x] for x in face]), coeff

    return _boundary_matrix(cx, r, faces)


# -- the recursive definition --------------------------------------------------

# A chain is a flat dict (cell, coefficient) -> int, cells as position tuples.
Chain = dict[tuple[tuple[int, ...], NormalForm], int]


def _add(chain: Chain, key: tuple[tuple[int, ...], NormalForm], coeff: int) -> None:
    """chain[key] += coeff, dropping the entry when it cancels to zero."""
    value = chain.get(key, 0) + coeff
    if value:
        chain[key] = value
    else:
        chain.pop(key, None)


class _GenericDifferential:
    """The boundary maps from the recursive contracting homotopy, verbatim.

    partial[alpha, A] = c[A] - u_r(c[A]) for the cofactor c of alpha over A.
    u and s are defined on monomials nf[cell] and extended linearly:
    u_0(nf[()]) = [()], u_r = s_{r-1} o partial_r, and s peels the least
    right-dividing atom off the coefficient at each step.  The u_r(c[A])
    that s_r needs is read back from partial[alpha, A] by that definition.
    A chain is one flat dict from (cell, coefficient) to its nonzero integer
    multiplicity.

    One instance is one memo scope: one `differentials` call, whose degrees
    then share every chain.  It memoizes partial on cells, s on monomials
    (r, nf, cell), the least right-dividing atom on coefficients, and the
    normal forms of simples and of products, so the recursion computes each
    of them once; the memoized chains are shared between callers and never
    modified.  Nothing outlives the instance: no memo is kept on the
    structure, on its cell complex or in the module.  GENERIC_OP_CAP bounds
    the monomials and products actually computed in one scope, not the memo
    hits.
    """

    def __init__(self, cx: CellComplex):
        self.cx = cx
        self.g = cx.g
        self.identity_nf = NormalForm(0, ())
        self._partial_memo: dict[tuple[int, ...], Chain] = {}
        self._s_memo: dict[tuple[int, NormalForm, tuple[int, ...]], Chain] = {}
        self._d_memo: dict[NormalForm, tuple[int, NormalForm]] = {}
        self._product_memo: dict[tuple[NormalForm, NormalForm], NormalForm] = {}
        self._simple_memo: dict[int, NormalForm] = {}
        self.ops = 0

    def faces(self, cell: tuple[int, ...]):
        """The (face, coefficient) pairs of partial[cell], coefficients
        augmented to integers."""
        for (bcell, _), coeff in self.partial_cell(cell).items():
            yield bcell, coeff

    def _tick(self) -> None:
        self.ops += 1
        if self.ops > GENERIC_OP_CAP:
            raise CapExceededError(
                "generic differential exceeded homology.GENERIC_OP_CAP = "
                f"{GENERIC_OP_CAP} homotopy monomials and chain products "
                "actually computed"
            )

    def product(self, a: NormalForm, b: NormalForm) -> NormalForm:
        """a * b, computed once per pair."""
        key = (a, b)
        nf = self._product_memo.get(key)
        if nf is None:
            self._tick()
            nf = self._product_memo[key] = self.g.nf_product(a, b)
        return nf

    def simple(self, s: int) -> NormalForm:
        """The normal form of the simple with ordinal s, computed once."""
        nf = self._simple_memo.get(s)
        if nf is None:
            nf = self._simple_memo[s] = self.g.nf_of_simple(s)
        return nf

    def _d_of(self, nf: NormalForm) -> tuple[int, NormalForm]:
        """(atom position, quotient) for the least atom right-dividing nf,
        computed once per nf."""
        found = self._d_memo.get(nf)
        if found is None:
            found = self._d_memo[nf] = self._least_divisor(nf)
        return found

    def _least_divisor(self, nf: NormalForm) -> tuple[int, NormalForm]:
        g = self.g
        for p, ordinal in enumerate(self.cx.atom_ordinal):
            quotient = g.nf_right_quotient(nf, ordinal)
            if quotient.is_monoid_element():
                return p, quotient
        raise TheoremViolationError(f"no atom right-divides {nf}")

    def partial_cell(self, cell: tuple[int, ...]) -> Chain:
        """partial_r[cell] for an r-cell, r >= 1."""
        memo = self._partial_memo.get(cell)
        if memo is not None:
            return memo
        alpha, tail = cell[0], cell[1:]
        cofactor = self.simple(self.cx.cofactor(alpha, tail))
        out: Chain = {(tail, cofactor): 1}
        for key, coeff in self.u(len(tail), cofactor, tail).items():
            _add(out, key, -coeff)
        self._partial_memo[cell] = out
        return out

    def u(self, r: int, nf: NormalForm, cell: tuple[int, ...]) -> Chain:
        """u_r on the monomial nf[cell].

        Left multiplication by nf is injective, so the terms of
        nf * partial[cell] are distinct and s can take them one by one.
        """
        if r == 0:
            return {((), self.identity_nf): 1}
        out: Chain = {}
        for (bcell, bnf), bcoeff in self.partial_cell(cell).items():
            product = self.product(nf, bnf)
            for key, value in self.s_monomial(r - 1, product, bcell).items():
                _add(out, key, bcoeff * value)
        return out

    def s_monomial(self, r: int, nf: NormalForm, cell: tuple[int, ...]) -> Chain:
        """s_r on the monomial nf[cell], computed once per (r, nf, cell).

        The returned chain is the one kept in the memo and shared by every
        caller, so it is read-only: callers fold it into chains of their own.
        """
        key = (r, nf, cell)
        chain = self._s_memo.get(key)
        if chain is None:
            chain = self._s_memo[key] = self._s_monomial(r, nf, cell)
        return chain

    def _s_monomial(self, r: int, nf: NormalForm, cell: tuple[int, ...]) -> Chain:
        self._tick()
        if r == 0:
            if nf == self.identity_nf:
                return {}
            alpha, quotient = self._d_of(nf)
            out: Chain = {((alpha,), quotient): 1}
            for key, coeff in self.s_monomial(0, quotient, ()).items():
                _add(out, key, coeff)
            return out
        product = self.product(nf, self.simple(self.cx.lcm(cell)))
        alpha, _ = self._d_of(product)
        if alpha == cell[0]:
            return {}
        if alpha > cell[0]:
            raise TheoremViolationError("homotopy produced a non-increasing head")
        cofactor = self.cx.cofactor(alpha, cell)
        y = self.g.nf_right_quotient(nf, cofactor)
        if not y.is_monoid_element():
            raise TheoremViolationError("homotopy quotient left the monoid")
        new_cell = (alpha,) + cell
        if new_cell not in self.cx.row_index[r + 1]:
            raise TheoremViolationError(f"homotopy produced a non-cell {new_cell}")
        # s_r(y * u_r(cofactor[cell])), where u_r(cofactor[cell]) is
        # cofactor[cell] - partial[new_cell] by the definition of partial;
        # left multiplication by y is injective, so the shifted monomials are
        # distinct and s can take them one by one
        out = {(new_cell, y): 1}
        u_cofactor: Chain = {(cell, self.simple(cofactor)): 1}
        for key, coeff in self.partial_cell(new_cell).items():
            _add(u_cofactor, key, -coeff)
        for (ucell, unf), coeff in u_cofactor.items():
            shifted = self.product(y, unf)
            for key, value in self.s_monomial(r, shifted, ucell).items():
                _add(out, key, coeff * value)
        return out


def differential_generic(g: GarsideStructure, r: int) -> list[list[int]]:
    """Matrix of d_r from the recursive definition, augmented to integers."""
    return differentials(g, (r,), "generic")[0]


def differentials(
    g: GarsideStructure, degrees, method: str = "closed"
) -> list[list[list[int]]]:
    """The matrices of d_r for r in degrees by one method: "closed",
    "generic" or "both".  The generic ones come from one
    `_GenericDifferential`, so a higher degree reuses the chains of a lower
    one; "both" raises on any disagreement."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    generic = None if method == "closed" else _GenericDifferential(complex_of(g))
    out = []
    for r in degrees:
        matrix = None if method == "generic" else differential_closed_form(g, r)
        if generic is not None:
            computed = _boundary_matrix(generic.cx, r, generic.faces)
            if matrix is not None and matrix != computed:
                raise TheoremViolationError(
                    f"closed-form and generic d_{r} matrices disagree"
                )
            matrix = computed
        out.append(matrix)
    return out


def chain_condition_holds(d_lo: list[list[int]], d_hi: list[list[int]]) -> bool:
    """d_lo * d_hi = 0 as integer matrices."""
    product = mat_mul(d_lo, d_hi)
    return all(all(entry == 0 for entry in row) for row in product)


def homology_of(r: int, d_lo: list[list[int]], d_hi: list[list[int]]) -> AbelianGroup:
    """H_r = ker(d_r)/im(d_{r+1}) from the matrices d_lo = d_r, d_hi = d_{r+1}.

    Once d_r d_{r+1} = 0 is checked, im d_{r+1} lies in ker d_r, and
    C_r/ker d_r is isomorphic to im d_r, a subgroup of the free module
    C_{r-1} and so free.  The sequence ker d_r/im d_{r+1} -> C_r/im d_{r+1}
    -> C_r/ker d_r therefore splits: the cokernel of d_{r+1} is H_r plus a
    free summand of rank rank(d_r), and H_r is that cokernel with rank(d_r)
    taken off its free rank.  After trivializing coefficients d_1 = 0, so
    H_1 is the whole cokernel of d_2 on the atom module.
    """
    if not chain_condition_holds(d_lo, d_hi):
        raise TheoremViolationError(f"d_{r} d_{r + 1} != 0")
    return quotient_group(len(d_hi) - smith_normal_form(d_lo).rank, d_hi)


def homology_group(g: GarsideStructure, r: int, method: str = "closed") -> AbelianGroup:
    """H_r over the integers for 1 <= r < TOP_DEGREE, from one `differentials`
    call for d_r and d_{r+1}."""
    if not 1 <= r < TOP_DEGREE:
        raise ValueError(f"homology is computed in degrees 1..{TOP_DEGREE - 1}, not {r}")
    return homology_of(r, *differentials(g, (r, r + 1), method))


def predicted_h2(e: int, n: int, k: int) -> AbelianGroup:
    """The closed-form answer for H_2 in ranks n = 3, 4 (and n >= 5).

    Parameters that GroupParams rejects, and n = 2, where there is no closed
    formula, raise ValueError.
    """
    GroupParams(e, n, k)
    if n < 3:
        raise ValueError(f"no closed formula for H_2 at n = {n}")
    d = math.gcd(e, k)
    if n == 3:
        extra = 0
    elif n == 4:
        extra = math.gcd(2 * k, e)  # number of cosets of <2k> in Z/eZ
    else:
        extra = 1
    return AbelianGroup.from_cyclic([0] * (d - 1) + [2] * extra + [e // d])
