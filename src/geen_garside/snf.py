"""
Integer matrices, Smith normal form, and finitely generated abelian groups.

Everything runs on arbitrary-precision Python integers; entry growth during
elimination is harmless.  The Smith form is one elimination loop: split off
a pivot of least absolute value once its row and column reduce to zero mod
it, then turn the pivots into a divisibility chain by (gcd, lcm) steps on
plain integers.  It keeps only the diagonal, never the transforms: homology
needs nothing but ranks and invariant factors, and `quotient_group` is the
one place that turns a Smith diagonal into an abelian group, Z^m modulo the
column span of a matrix.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple


def zero_matrix(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zero_matrix(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            coeff = ai[t]
            if coeff:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += coeff * bt[j]
    return out


class SNFResult(NamedTuple):
    diagonal: list[int]          # nonnegative, d_i | d_{i+1}, zeros trailing
    rank: int

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(matrix: list[list[int]]) -> SNFResult:
    """The Smith diagonal of an integer matrix, zeros trailing.

    Each round takes a nonzero entry p of least absolute value.  Row
    operations reduce the other entries of its column to remainders mod p,
    and column operations do the same to its row.  If all of them vanish, p
    is split off with its row and column; otherwise the least remainder is
    the next pivot, so every round either splits off a pivot or lowers the
    least absolute value in the matrix.  The operations are unimodular, so
    the matrix is then equivalent to the diagonal of the split-off |p|.
    diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)), so the pivots
    are made into a divisibility chain on plain integers: after pairing d_i
    with every later d_j, d_i divides all of them.  The Smith diagonal is
    unique, so no transform is formed or kept.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    D = [list(row) for row in matrix]
    pivots = []
    while True:
        least = min(
            ((abs(v), i, j) for i, row in enumerate(D) for j, v in enumerate(row) if v),
            default=None,
        )
        if least is None:
            break
        _, i, j = least
        pivot_row = D[i]
        p = pivot_row[j]
        for r, row in enumerate(D):
            if r != i and row[j]:
                q = row[j] // p
                D[r] = [x - q * y for x, y in zip(row, pivot_row)]
        for c, v in enumerate(pivot_row):
            if c != j and v:
                q = v // p
                for row in D:
                    row[c] -= q * row[j]
        # p is now the only nonzero entry of both its row and its column
        if sum(map(bool, pivot_row)) + sum(1 for row in D if row[j]) == 2:
            pivots.append(abs(p))
            del D[i]
            for row in D:
                del row[j]
    for i in range(len(pivots)):
        for j in range(i + 1, len(pivots)):
            a, b = pivots[i], pivots[j]
            pivots[i], pivots[j] = gcd(a, b), lcm(a, b)
    return SNFResult(pivots + [0] * (min(rows, cols) - len(pivots)), len(pivots))


class _AbelianGroup(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]


class AbelianGroup(_AbelianGroup):
    """Finitely generated abelian group: free rank plus torsion in a
    divisibility chain."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...]) -> "AbelianGroup":
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} not a divisibility chain")
        if any(d <= 1 for d in torsion):
            raise ValueError("torsion coefficients must exceed 1")
        return super().__new__(cls, free_rank, torsion)

    @classmethod
    def from_cyclic(cls, parts) -> "AbelianGroup":
        """The direct sum of the cyclic groups Z/m for m in parts, Z for m = 0.

        Its invariant factors are those of the diagonal matrix diag(parts).
        """
        size = len(parts)
        return quotient_group(
            size, [[m if i == j else 0 for j in range(size)] for i, m in enumerate(parts)]
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts += [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def quotient_group(ambient_rank: int, image_matrix: list[list[int]]) -> AbelianGroup:
    """Z^ambient_rank / column span of image_matrix.

    An empty matrix (no rows, or no columns) spans nothing.
    """
    res = smith_normal_form(image_matrix)
    return AbelianGroup(ambient_rank - res.rank, tuple(res.torsion))
