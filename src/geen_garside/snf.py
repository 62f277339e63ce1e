"""
Integer matrices, Smith normal form, and finitely generated abelian groups.

Everything runs on arbitrary-precision Python integers; entry growth during
elimination is harmless.  The Smith form keeps only the diagonal, never the
transforms: homology needs nothing but ranks and invariant factors, and
`quotient_group` is the one place that turns a Smith diagonal into an
abelian group, Z^m modulo the column span of a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


@dataclass
class SNFResult:
    diagonal: list[int]          # nonnegative, d_i | d_{i+1}, zeros trailing
    rank: int

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(matrix: list[list[int]]) -> SNFResult:
    """Diagonalize by unimodular row/column operations, with divisibility fix.

    Returns diagonal entries in divisibility order.  Only the diagonal is
    kept: the transforms are never formed.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    D = [list(row) for row in matrix]

    def row_swap(i1, i2):
        D[i1], D[i2] = D[i2], D[i1]

    def row_add(i2, i1, q):
        # R_i2 += q * R_i1
        Di1, Di2 = D[i1], D[i2]
        for j in range(cols):
            Di2[j] += q * Di1[j]

    def row_negate(i):
        Di = D[i]
        for j in range(cols):
            Di[j] = -Di[j]

    def row_combine(i1, i2, x, y, u, v):
        # (R_i1, R_i2) <- (x R_i1 + y R_i2, u R_i1 + v R_i2), det(x v - y u) = 1
        Di1, Di2 = D[i1], D[i2]
        for j in range(cols):
            a, b = Di1[j], Di2[j]
            Di1[j] = x * a + y * b
            Di2[j] = u * a + v * b

    def col_swap(j1, j2):
        for row in D:
            row[j1], row[j2] = row[j2], row[j1]

    def col_add(j2, j1, q):
        # C_j2 += q * C_j1
        for row in D:
            row[j2] += q * row[j1]

    def col_combine(j1, j2, x, y, u, v):
        # (C_j1, C_j2) <- (x C_j1 + y C_j2, u C_j1 + v C_j2)
        for row in D:
            a, b = row[j1], row[j2]
            row[j1] = x * a + y * b
            row[j2] = u * a + v * b

    def clear_row_entry(k, i):
        a, b = D[k][k], D[i][k]
        if b == 0:
            return
        if a == 0:
            row_swap(k, i)
        elif b % a == 0:
            row_add(i, k, -(b // a))
        else:
            x, y, g = _xgcd(a, b)
            row_combine(k, i, x, y, -(b // g), a // g)

    def clear_col_entry(k, j):
        a, b = D[k][k], D[k][j]
        if b == 0:
            return
        if a == 0:
            col_swap(k, j)
        elif b % a == 0:
            col_add(j, k, -(b // a))
        else:
            x, y, g = _xgcd(a, b)
            col_combine(k, j, x, y, -(b // g), a // g)

    limit = min(rows, cols)
    for k in range(limit):
        # bring some nonzero entry to the pivot if the remaining block has one
        if D[k][k] == 0:
            found = False
            for i in range(k, rows):
                for j in range(k, cols):
                    if D[i][j]:
                        if i != k:
                            row_swap(k, i)
                        if j != k:
                            col_swap(k, j)
                        found = True
                        break
                if found:
                    break
            if not found:
                break
        while True:
            for i in range(k + 1, rows):
                clear_row_entry(k, i)
            if all(D[k][j] == 0 for j in range(k + 1, cols)):
                break
            for j in range(k + 1, cols):
                clear_col_entry(k, j)
            if all(D[i][k] == 0 for i in range(k + 1, rows)):
                break

    # sign normalization and divisibility chain
    for k in range(limit):
        if D[k][k] < 0:
            row_negate(k)
    changed = True
    while changed:
        changed = False
        for k in range(limit - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if a and b and b % a != 0:
                # merge diag(a, b) into diag(gcd, lcm)
                col_add(k, k + 1, 1)
                clear_row_entry(k, k + 1)
                clear_col_entry(k, k + 1)
                if D[k][k] < 0:
                    row_negate(k)
                if D[k + 1][k + 1] < 0:
                    row_negate(k + 1)
                changed = True
            elif a == 0 and b != 0:
                row_swap(k, k + 1)
                col_swap(k, k + 1)
                changed = True

    diagonal = [D[k][k] for k in range(limit)]
    rank = sum(1 for d in diagonal if d != 0)
    return SNFResult(diagonal, rank)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion in a
    divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} not a divisibility chain")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

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
