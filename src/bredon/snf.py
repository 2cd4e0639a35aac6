"""Sparse integer matrices, Smith normal form, and homology of a chain complex.

Matrices are stored by row, keeping only their nonzero entries, in
arbitrary-precision Python ints: intermediate entries can outgrow any
fixed width, and the Bredon differentials are about 1% dense.  Homology
is read off the ranks and invariant factors of the differentials.  Each
differential first loses its +-1 pivots to sparse elimination; only the
residual is densified for the Smith reduction, which returns the
invariant factors alone, so no transform matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup
from .errors import ConsistencyError, ContractError


@dataclass
class IntMatrix:
    """Sparse integer matrix stored by row (shape explicit, rows may be empty).

    rows[i] lists the nonzero entries of row i as (column, value) pairs in
    increasing column order; zeros are never stored.
    """

    nrows: int
    ncols: int
    rows: list[list[tuple[int, int]]]

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols, [[] for _ in range(nrows)])

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        """The matrix whose dense rows are given."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ContractError("ragged rows")
        return cls(len(rows), ncols, [[(j, v) for j, v in enumerate(r) if v] for r in rows])

    def dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for row, entries in zip(out, self.rows):
            for j, v in entries:
                row[j] = v
        return out

    def is_zero(self) -> bool:
        return not any(self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ContractError(
                f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
            )
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for k, a in row:
                for j, b in other.rows[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(sorted((j, v) for j, v in acc.items() if v))
        return IntMatrix(self.nrows, other.ncols, out)

    def submatrix(self, row_ids: list[int], col_ids: list[int]) -> "IntMatrix":
        """The rows row_ids and columns col_ids, both increasing, renumbered from 0."""
        new_col = {c: n for n, c in enumerate(col_ids)}
        rows = [
            [(new_col[c], v) for c, v in self.rows[r] if c in new_col] for r in row_ids
        ]
        return IntMatrix(len(row_ids), len(col_ids), rows)


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
    guarantees d_i | d_{i+1}.  The matrix is densified first, so callers
    hand it only what sparse elimination leaves.
    """
    m = a.dense()
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


def eliminate_units(a: IntMatrix) -> tuple[int, IntMatrix]:
    """Eliminate +-1 pivots; return their count and the residual matrix.

    Each step takes a unit entry of least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1), clears its column with
    row operations and drops its row and column, which column operations
    would clear without touching any other row.  So a is equivalent to
    the identity on the units eliminated plus the residual, whose nonzero
    rows and columns are renumbered in order.  Unit entries wait in a
    heap under the cost they had when pushed; a popped entry whose cost
    has since grown goes back with its current cost.
    """
    import heapq  # here, not at module load: every CLI request imports snf

    rows = [dict(r) for r in a.rows]
    cols: list[set[int]] = [set() for _ in range(a.ncols)]
    heap = []
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v == 1 or v == -1:
                heap.append(((len(row) - 1) * (len(cols[j]) - 1), i, j))
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        pivot_row = rows[i]
        v = pivot_row.get(j)
        if v != 1 and v != -1:
            continue  # row gone, or the entry changed since it was pushed
        now = (len(pivot_row) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, j))
            continue
        units += 1
        col = cols[j]
        col.discard(i)
        for r in col:
            target = rows[r]
            f = target.pop(j) * v  # v = 1/v
            for c, x in pivot_row.items():
                if c == j:
                    continue
                old = target.get(c, 0)
                y = old - f * x
                if y:
                    if not old:
                        cols[c].add(r)
                    target[c] = y
                    if (y == 1 or y == -1) and old != 1 and old != -1:
                        # a unit entry that was a unit already is in the heap
                        fill_cost = (len(target) - 1) * (len(cols[c]) - 1)
                        heapq.heappush(heap, (fill_cost, r, c))
                elif old:
                    del target[c]
                    cols[c].discard(r)
        cols[j] = set()
        for c in pivot_row:
            cols[c].discard(i)
        rows[i] = {}
    live = [row for row in rows if row]
    new_col = {c: n for n, c in enumerate(sorted(set().union(*live)))}
    residual = [sorted((new_col[c], x) for c, x in row.items()) for row in live]
    return units, IntMatrix(len(live), len(new_col), residual)


def homology_at(differentials: list[IntMatrix], top: int) -> dict[int, FgAbGroup]:
    """Homology H_0 .. H_top of a chain complex of free Z-modules.

    differentials[k] is the map C_k -> C_{k-1} on column vectors, with
    index 0 the zero map out of C_0; a negative top gives no groups.
    Each d_1 .. d_{top+1} that exists is reduced once: its +-1 pivots are
    eliminated sparsely and smith_normal_form runs on the residual, so
    r_k = (units eliminated) + (residual rank), and the residual's
    invariant factors carry the torsion.  Then

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
        units, residual = eliminate_units(differentials[k])
        res = smith_normal_form(residual)
        ranks[k] = units + res.rank
        torsion[k] = [x for x in res.diagonal if x > 1]
    return {
        d: FgAbGroup.from_factors(
            differentials[d].ncols - ranks[d] - ranks[d + 1], torsion[d + 1]
        )
        for d in range(top + 1)
    }
