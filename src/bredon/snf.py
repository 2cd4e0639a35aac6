"""Sparse integer matrices, Smith normal form, and homology of a chain complex.

Matrices are stored by row, keeping only their nonzero entries, in
arbitrary-precision Python ints: intermediate entries can outgrow any
fixed width, and the Bredon differentials are sparse.  Homology is read
off the ranks and invariant factors of the differentials, each found by
one sparse elimination that splits off one diagonal entry per pivot.
The elimination takes units row by row in passes, and an entry of least
magnitude when a pass finds none.  Only the invariant factors are kept,
so no transform matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FgAbGroup, normalize_factors
from .errors import ConsistencyError, ContractError


@dataclass
class IntMatrix:
    """Sparse integer matrix stored by row (shape explicit, rows may be empty).

    rows[i] lists the nonzero entries of row i as (column, value) pairs in
    increasing column order; zeros are never stored.  A matrix is built
    zero or from dense rows; the library's only product is the zero test
    of a composite, _composite_vanishes.
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


@dataclass
class SmithResult:
    """Diagonal invariant factors d_1 | d_2 | ... (positive, length = rank)."""

    diagonal: list[int]
    rank: int


def smith_normal_form(a: IntMatrix) -> SmithResult:
    """Invariant factors of a by sparse elimination, one pivot at a time.

    A step on the entry v at (i, j) leaves every other entry of column j
    as its remainder mod v by row operations; once column j is clear,
    column operations do the same to row i, touching no other row.  If v
    is then alone in its row and column, a is (v) + the rest: the step
    records |v| and drops row i and column j.  Otherwise a remainder
    smaller than |v| is left for a later step.  The recorded pivots are a
    diagonal equivalent to a, so their divisor chain is its Smith form,
    in whatever order they are taken.

    Pivots come in passes over the rows, each taking the first +-1 entry
    of each row in turn (a unit step empties its row); passes repeat
    while one finds a unit, and a pass that finds none pivots on an entry
    of least magnitude, ties to the lowest (row, column).
    """
    rows = [dict(r) for r in a.rows]
    cols: list[set[int]] = [set() for _ in range(a.ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    def pivot_order():
        """(row, column) of each pivot in turn, until a is reduced."""
        while True:
            found = False
            for i, row in enumerate(rows):
                for j, v in row.items():
                    if v == 1 or v == -1:
                        found = True
                        yield i, j
                        break  # the unit step has emptied row i
            if found:
                continue
            least = min(
                ((abs(v), i, j) for i, row in enumerate(rows) for j, v in row.items()),
                default=None,
            )
            if least is None:
                return
            yield least[1:]

    pivots = []
    for i, j in pivot_order():
        pivot_row = rows[i]
        v = pivot_row.pop(j)  # back below unless the step splits (v) off
        col = cols[j]
        col.discard(i)
        left = [i]  # rows still nonzero in column j
        for r in col:
            target = rows[r]
            q, rem = divmod(target.pop(j), v)
            if rem:
                target[j] = rem
                left.append(r)
            for c, x in pivot_row.items():
                old = target.get(c, 0)
                y = old - q * x
                if y:
                    if not old:
                        cols[c].add(r)
                    target[c] = y
                elif old:
                    del target[c]
                    cols[c].discard(r)
        if len(left) == 1:
            for c, x in list(pivot_row.items()):
                x %= v
                if x:
                    pivot_row[c] = x
                else:
                    del pivot_row[c]
                    cols[c].discard(i)
            if not pivot_row:
                pivots.append(abs(v))
                cols[j] = set()
                continue
        pivot_row[j] = v
        cols[j] = set(left)
    torsion = list(normalize_factors(pivots))
    diagonal = [1] * (len(pivots) - len(torsion)) + torsion
    for d, e in zip(diagonal, diagonal[1:]):
        if e % d:
            raise ConsistencyError("invariant factors failed the divisor chain")
    return SmithResult(diagonal=diagonal, rank=len(pivots))


def _composite_vanishes(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a . b = 0: each row of the product is accumulated alone
    and the test stops at the first row with a nonzero entry, so no
    product is kept and nothing is sorted."""
    for row in a.rows:
        acc: dict[int, int] = {}
        for k, x in row:
            for j, y in b.rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        if any(acc.values()):
            return False
    return True


def homology_at(differentials: list[IntMatrix], top: int) -> dict[int, FgAbGroup]:
    """Homology H_0 .. H_top of a chain complex of free Z-modules.

    differentials[k] is the map C_k -> C_{k-1} on column vectors, with
    index 0 the zero map out of C_0; a negative top gives no groups.
    Each of d_1 .. d_{top+1} that exists goes once through
    smith_normal_form; with r_k its rank,

        H_d = Z^(n_d - r_d - r_{d+1})  +  torsion factors of d_{d+1}.

    This holds because im d_d lies in the free module C_{d-1}, so ker d_d
    is a direct summand of C_d.  The composites d_k . d_{k+1} are checked
    to vanish, since the formula is not sound otherwise.
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
        d = differentials[k]
        if k < last and not _composite_vanishes(d, differentials[k + 1]):
            raise ConsistencyError(f"d_{k} . d_{k + 1} is nonzero")
        res = smith_normal_form(d)
        ranks[k] = res.rank
        torsion[k] = [x for x in res.diagonal if x > 1]
    return {
        d: FgAbGroup.from_factors(
            differentials[d].ncols - ranks[d] - ranks[d + 1], torsion[d + 1]
        )
        for d in range(top + 1)
    }
