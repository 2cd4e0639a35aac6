"""Exact integer matrices, Smith normal form, and homology of a chain complex.

Everything here runs on arbitrary-precision Python ints; numpy never
touches these matrices because intermediate entries can outgrow fixed
width.  The Smith reduction returns only the invariant factors: homology
is read off the ranks and invariant factors of the differentials, so no
transform matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup
from .errors import ConsistencyError, ContractError


@dataclass
class IntMatrix:
    """Dense integer matrix with explicit shape (rows may be empty)."""

    nrows: int
    ncols: int
    rows: list[list[int]]

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ContractError("ragged rows")
        return cls(len(rows), ncols, rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ContractError(
                f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
            )
        # sparse-aware: skip zero coefficients, they dominate chain matrices
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.rows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
        return IntMatrix(self.nrows, other.ncols, out)


@dataclass
class SmithResult:
    """Diagonal invariant factors d_1 | d_2 | ... (positive, length = rank)."""

    diagonal: list[int]
    rank: int


def smith_normal_form(a: IntMatrix) -> SmithResult:
    """Smith normal form by repeated pivoting on a least-magnitude entry.

    Pivot choice: among nonzero entries of the remaining submatrix, pick
    minimal |value|, breaking ties by smallest row then column.  Row and
    column operations clear the pivot cross; a divisibility sweep then
    guarantees d_i | d_{i+1}.
    """
    m = [row[:] for row in a.rows]
    nr, nc = a.nrows, a.ncols

    def swap_cols(i, j):
        if i == j:
            return
        for row in m:
            row[i], row[j] = row[j], row[i]

    def negate_col(i):
        for row in m:
            row[i] = -row[i]

    def add_col(dst, src, q):
        # column dst += q * column src
        if q == 0:
            return
        for row in m:
            if row[src]:
                row[dst] += q * row[src]

    def find_pivot(s):
        best = None
        for i in range(s, nr):
            row = m[i]
            for j in range(s, nc):
                val = row[j]
                if val:
                    mag = -val if val < 0 else val
                    if best is None or mag < best[0]:
                        best = (mag, i, j)
                        if mag == 1:
                            return best
        return best

    s = 0
    limit = min(nr, nc)
    while s < limit:
        best = find_pivot(s)
        if best is None:
            break
        _, pi, pj = best
        m[s], m[pi] = m[pi], m[s]
        swap_cols(s, pj)
        while True:
            # clear column s below the pivot
            dirty = False
            for i in range(s + 1, nr):
                if m[i][s]:
                    q = m[i][s] // m[s][s]
                    if q:
                        ms = m[s]
                        m[i] = [x - q * y for x, y in zip(m[i], ms)]
                    if m[i][s]:
                        # remainder smaller than pivot: promote it
                        m[s], m[i] = m[i], m[s]
                        dirty = True
            if dirty:
                continue
            # clear row s right of the pivot
            for j in range(s + 1, nc):
                if m[s][j]:
                    q = m[s][j] // m[s][s]
                    add_col(j, s, -q)
                    if m[s][j]:
                        swap_cols(s, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            pv = m[s][s]
            for i in range(s + 1, nr):
                row = m[i]
                for j in range(s + 1, nc):
                    if row[j] % pv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            ms = m[s]
            m[s] = [x + y for x, y in zip(ms, m[offender])]
        if m[s][s] < 0:
            negate_col(s)
        s += 1

    diagonal = [m[i][i] for i in range(s)]
    for d, e in zip(diagonal, diagonal[1:]):
        if e % d:
            raise ConsistencyError("invariant factors failed the divisor chain")
    return SmithResult(diagonal=diagonal, rank=s)


def homology_at(differentials: list[IntMatrix], top: int) -> dict[int, FgAbGroup]:
    """Homology H_0 .. H_top of a chain complex of free Z-modules.

    differentials[k] is the map C_k -> C_{k-1} on column vectors, with
    index 0 the zero map out of C_0; a negative top gives no groups.
    Each d_1 .. d_{top+1} that exists is reduced once; with r_k its rank,

        H_d = Z^(n_d - r_d - r_{d+1})  +  torsion factors of d_{d+1}.

    This holds because im d_d lies in the free module C_{d-1}, so ker d_d
    is a direct summand of C_d.  The composites d_k . d_{k+1} are checked
    to vanish, since the formula is meaningless otherwise.
    """
    if top >= len(differentials):
        raise ContractError(
            f"degree {top} is outside the complex (top degree {len(differentials) - 1})"
        )
    for k in range(1, len(differentials)):
        if differentials[k].nrows != differentials[k - 1].ncols:
            raise ContractError("chain degrees do not line up")
    last = min(top + 1, len(differentials) - 1)
    ranks = [0] * (top + 2)
    torsion: list[list[int]] = [[] for _ in range(top + 2)]
    for k in range(1, last + 1):
        if k < last and not differentials[k].mul(differentials[k + 1]).is_zero():
            raise ConsistencyError(f"d_{k} . d_{k + 1} is nonzero")
        res = smith_normal_form(differentials[k])
        ranks[k] = res.rank
        torsion[k] = [x for x in res.diagonal if x > 1]
    return {
        d: FgAbGroup.from_factors(
            differentials[d].ncols - ranks[d] - ranks[d + 1], torsion[d + 1]
        )
        for d in range(top + 1)
    }
