"""Integer Smith normal form and homology of integer chain maps."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bredon.abelian import FgAbGroup
from bredon.errors import ConsistencyError
from bredon.snf import IntMatrix, SmithResult, _composite_vanishes, homology_at, smith_normal_form
from oracles import dense, is_zero, matmul


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]
    )


def complex_of(*maps):
    """Differentials d_1, d_2, ... in the list layout, zero map prepended."""
    return [IntMatrix.zero(0, maps[0].nrows), *maps]


def exact_minor_det(rows, row_idx, col_idx):
    """Determinant of a square submatrix by fraction-free Gaussian elimination."""
    a = [[Fraction(rows[i][j]) for j in col_idx] for i in row_idx]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= factor * a[c][j]
    return int(det)


def minor_gcd(rows, nrows, ncols, k):
    g = 0
    for ri in combinations(range(nrows), k):
        for ci in combinations(range(ncols), k):
            g = math.gcd(g, abs(exact_minor_det(rows, ri, ci)))
    return g


def dense_smith_form(a: IntMatrix) -> SmithResult:
    """Smith normal form by repeated pivoting on a least-magnitude entry.

    Pivot choice: among nonzero entries of the remaining submatrix, pick
    minimal |value|, breaking ties by smallest row then column.  Row and
    column operations clear the pivot cross; a divisibility sweep then
    guarantees d_i | d_{i+1}.  The matrix is densified first: this is the
    reference the sparse smith_normal_form is checked against.
    """
    m = dense(a)
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


def test_snf_diagonal_properties():
    rng = random.Random(90125)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nrows, ncols)
        res = smith_normal_form(a)
        d = res.diagonal
        assert all(x > 0 for x in d)
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0


def test_snf_matches_minor_gcd_oracle():
    # d_1 * ... * d_k equals the gcd of all k x k minors
    rng = random.Random(224)
    for _ in range(20):
        nrows, ncols = rng.randint(2, 4), rng.randint(2, 4)
        a = random_matrix(rng, nrows, ncols, -6, 6)
        res = smith_normal_form(a)
        prod = 1
        for k in range(1, min(nrows, ncols) + 1):
            g = minor_gcd(dense(a), nrows, ncols, k)
            if k <= res.rank:
                prod *= res.diagonal[k - 1]
                assert prod == g
            else:
                assert g == 0


def test_homology_of_known_complexes():
    # Z --0--> Z^2 --0--> Z, in the middle: H_1 = Z^2
    zeros = complex_of(IntMatrix.zero(1, 2), IntMatrix.zero(2, 1))
    assert homology_at(zeros, 1)[1] == FgAbGroup.free(2)

    # multiplication by 2 into the middle Z: cokernel Z/2
    two = IntMatrix.from_rows([[2]])
    h = homology_at(complex_of(IntMatrix.zero(1, 1), two), 1)
    assert h[1] == FgAbGroup.from_factors(0, [2])

    # diag(2, 3) into Z^2: quotient Z/2 + Z/3, normalized to Z/6
    diag = IntMatrix.from_rows([[2, 0], [0, 3]])
    h = homology_at(complex_of(IntMatrix.zero(1, 2), diag), 1)
    assert h[1] == FgAbGroup.from_factors(0, [6])

    # [[1, 1], [1, -1]] has determinant -2: cokernel Z/2
    hadamard = IntMatrix.from_rows([[1, 1], [1, -1]])
    h = homology_at(complex_of(IntMatrix.zero(1, 2), hadamard), 1)
    assert h[1] == FgAbGroup.from_factors(0, [2])

    # the unit step on row 1 turns row 0's 3 into a unit after the pass has
    # left row 0, so a second pass takes it; the 5 is a least-magnitude pivot
    late = IntMatrix.from_rows([[2, 3, 0], [1, 1, 0], [0, 0, 5]])
    assert smith_normal_form(late) == dense_smith_form(late) == SmithResult([1, 1, 5], 3)
    h = homology_at(complex_of(IntMatrix.zero(1, 3), late), 1)
    assert h[1] == FgAbGroup.from_factors(0, [5])


def test_homology_chain_rule():
    # two-step complex Z^3 --A--> Z^3 --B--> Z^3 with B*A = 0
    b = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    # kernel of B is spanned by e3; pick A mapping onto multiples of e3
    a = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0], [3, 0, 0]])
    assert is_zero(matmul(b, a))
    h = homology_at(complex_of(b, a), 2)
    assert h == {
        0: FgAbGroup.from_factors(1, [2]),  # coker B
        1: FgAbGroup.from_factors(0, [3]),
        2: FgAbGroup.free(2),  # ker A
    }
    # a lower top degree reads the same groups
    assert homology_at(complex_of(b, a), 1) == {0: h[0], 1: h[1]}
    assert homology_at(complex_of(b, a), -1) == {}


def test_nonzero_composite_is_rejected():
    one = IntMatrix.from_rows([[1]])
    diffs = complex_of(one, one)
    with pytest.raises(ConsistencyError):
        homology_at(diffs, 1)
    # degree 0 needs only d_1, so the bad composite is never formed
    assert homology_at(diffs, 0) == {0: FgAbGroup()}


def _sparse_rows(rng, nrows, ncols, density=0.3):
    return [
        [rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _cancelling_pair(rng, m, r, n):
    """Dense rows of a = [P, -P Q] and b = [Q; I], with a's columns and
    b's rows shuffled alike: every entry of a . b is P Q - P Q, so its
    terms cancel without being absent."""
    p, q = _sparse_rows(rng, m, r), _sparse_rows(rng, r, n)
    pq = [[sum(p[i][l] * q[l][j] for l in range(r)) for j in range(n)] for i in range(m)]
    a = [p[i] + [-v for v in pq[i]] for i in range(m)]
    b = q + [[int(i == j) for j in range(n)] for i in range(n)]
    perm = list(range(r + n))
    rng.shuffle(perm)
    return [[row[c] for c in perm] for row in a], [b[c] for c in perm]


def test_composite_vanishes_matches_the_full_product():
    rng = random.Random(20240611)
    seen = {"random zero": 0, "random nonzero": 0, "cancelled": 0, "last row only": 0}
    for _ in range(300):
        m, r, n = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 6)
        a, b = _cancelling_pair(rng, m, r, n)
        kind = rng.choice(("random", "cancelled", "last row only"))
        if kind == "random":
            a, b = _sparse_rows(rng, m, r + n, 0.2), _sparse_rows(rng, r + n, n, 0.2)
        elif kind == "last row only":
            a[-1] = [x + y for x, y in zip(a[-1], _sparse_rows(rng, 1, r + n)[0])]
        a, b = IntMatrix.from_rows(a), IntMatrix.from_rows(b)
        full = matmul(a, b)
        assert _composite_vanishes(a, b) == is_zero(full), (dense(a), dense(b))
        if kind == "random":
            seen["random zero" if is_zero(full) else "random nonzero"] += 1
        elif kind == "cancelled":
            rows_b = dense(b)
            terms = any(x and any(rows_b[k]) for row in dense(a) for k, x in enumerate(row))
            seen["cancelled"] += terms and is_zero(full)
        else:
            seen["last row only"] += not any(full.rows[:-1]) and bool(full.rows[-1])
    assert all(count >= 10 for count in seen.values()), seen
    # shapes with no rows or no columns have a zero product
    assert _composite_vanishes(IntMatrix.zero(0, 3), IntMatrix.from_rows([[1]] * 3))
    assert _composite_vanishes(IntMatrix.from_rows([[1, 2]]), IntMatrix.zero(2, 0))


def elementary_pair(rng, n, steps=12):
    """A random unimodular P and its inverse, as products of elementary
    operations (row additions, swaps and negations)."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(steps if n else 0):
        kind = rng.randrange(3)
        if kind == 0 and n > 1:
            # P <- E P, P^-1 <- P^-1 E^-1 with E = I + q e_ij
            i, j = rng.sample(range(n), 2)
            q = rng.choice([-2, -1, 1, 2])
            p[i] = [x + q * y for x, y in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= q * row[i]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            p[i], p[j] = p[j], p[i]
            for row in p_inv:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            p[i] = [-x for x in p[i]]
            for row in p_inv:
                row[i] = -row[i]
    return IntMatrix.from_rows(p), IntMatrix.from_rows(p_inv)


def planted_complex(rng, free, factors):
    """Differentials with H_k = Z^free[k] + Z/factors[k+1] (entries > 1),
    hidden by random unimodular base changes d'_k = P_{k-1} d_k P_k^-1.

    Coordinates of C_k, in order: the image of d_{k+1}, the free
    homology, and the part d_k maps onto the image block of C_{k-1}.
    """
    top = len(free) - 1
    ranks = [0] + [len(factors[k]) for k in range(1, top + 1)] + [0]
    dims = [ranks[k + 1] + free[k] + ranks[k] for k in range(top + 1)]
    bases = [elementary_pair(rng, n) for n in dims]
    diffs = [IntMatrix.zero(0, dims[0])]
    for k in range(1, top + 1):
        d = IntMatrix.zero(dims[k - 1], dims[k])
        first = dims[k] - ranks[k]
        for i, e in enumerate(factors[k]):
            d.rows[i] = [(first + i, e)]
        p_below, _ = bases[k - 1]
        _, p_inv = bases[k]
        diffs.append(matmul(matmul(p_below, d), p_inv))
    return diffs


def test_homology_recovers_planted_groups():
    rng = random.Random(20060419)
    cases = [([1, 0, 2, 1], {1: [2], 2: [1, 6], 3: [4]})]
    for _ in range(30):
        top = rng.randint(0, 4)
        free = [rng.randint(0, 2) for _ in range(top + 1)]
        factors = {
            k: rng.choice([[], [1], [2], [6], [4], [1, 2], [2, 4], [1, 3, 6]])
            for k in range(1, top + 1)
        }
        cases.append((free, factors))
    for free, factors in cases:
        diffs = planted_complex(rng, free, factors)
        top = len(free) - 1
        want = {
            k: FgAbGroup.from_factors(
                free[k], [e for e in factors.get(k + 1, []) if e > 1]
            )
            for k in range(top + 1)
        }
        assert homology_at(diffs, top) == want


def test_given_unit_pivot_keeps_the_smith_form():
    # a Smith form does not depend on pivot order, and permuting the rows
    # and columns changes which units the row passes take first
    rng = random.Random(19)
    checked = 0
    for _ in range(30):
        top = rng.randint(1, 4)
        free = [rng.randint(0, 2) for _ in range(top + 1)]
        factors = {k: rng.choice([[1], [1, 2], [1, 1, 6], [2, 4]]) for k in range(1, top + 1)}
        for d in planted_complex(rng, free, factors)[1:]:
            rows = dense(d)
            row_order = rng.sample(range(d.nrows), d.nrows)
            col_order = rng.sample(range(d.ncols), d.ncols)
            permuted = IntMatrix.from_rows([[rows[i][j] for j in col_order] for i in row_order])
            if permuted.rows == d.rows:
                continue
            want = smith_normal_form(d)
            got = smith_normal_form(permuted)
            assert (got.diagonal, got.rank) == (want.diagonal, want.rank)
            checked += 1
    assert checked >= 30


def random_sparse_complex(rng):
    """A random chain complex with entries in {0, +-1, +-2, +-3}.

    The boundary maps of a random simplicial complex, each scaled by 1, 2
    or 3, summed with one-step pieces Z^q -> Z^p of random entries (zero
    elsewhere, so d . d stays 0), then hidden by a random signed
    permutation of each chain group's basis.
    """
    n = rng.randint(3, 7)
    simplices = set()
    for _ in range(rng.randint(1, 6)):
        facet = sorted(rng.sample(range(n), rng.randint(1, min(n, 4))))
        for size in range(1, len(facet) + 1):
            simplices.update(combinations(facet, size))
    by_dim = [sorted(s for s in simplices if len(s) == d + 1) for d in range(4)]
    while not by_dim[-1]:
        by_dim.pop()
    dims = [len(level) for level in by_dim]
    entries = [{} for _ in dims]  # entries[k][(row, col)] of d_k
    for k in range(1, len(dims)):
        scale = rng.choice([1, 1, 2, 3])
        index = {s: i for i, s in enumerate(by_dim[k - 1])}
        for col, s in enumerate(by_dim[k]):
            for i in range(len(s)):
                entries[k][index[s[:i] + s[i + 1:]], col] = scale * (-1) ** i
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, len(dims))
        if k == len(dims):
            dims.append(0)
            entries.append({})
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        for i in range(p):
            for j in range(q):
                value = rng.choice([0, 1, -1, 2, -2, 3, -3])
                if value:
                    entries[k][dims[k - 1] + i, dims[k] + j] = value
        dims[k - 1] += p
        dims[k] += q
    perms = [rng.sample(range(d), d) for d in dims]
    signs = [[rng.choice([1, -1]) for _ in range(d)] for d in dims]
    diffs = [IntMatrix.zero(0, dims[0])]
    for k in range(1, len(dims)):
        dense = [[0] * dims[k] for _ in range(dims[k - 1])]
        for (i, j), v in entries[k].items():
            dense[perms[k - 1][i]][perms[k][j]] = signs[k - 1][i] * signs[k][j] * v
        diffs.append(IntMatrix.from_rows(dense))
    return diffs


def test_sparse_smith_form_matches_dense_reference():
    # the reference reduces the same matrices densely
    rng = random.Random(20010701)
    with_torsion = 0
    for _ in range(60):
        diffs = random_sparse_complex(rng)
        top = len(diffs) - 1
        ranks, torsion = [0] * (top + 2), [[] for _ in range(top + 2)]
        for k in range(1, top + 1):
            full = dense_smith_form(diffs[k])
            ranks[k] = full.rank
            torsion[k] = [x for x in full.diagonal if x > 1]
            res = smith_normal_form(diffs[k])
            assert (res.rank, res.diagonal) == (full.rank, full.diagonal)
            with_torsion += bool(torsion[k])
        want = {
            d: FgAbGroup.from_factors(
                diffs[d].ncols - ranks[d] - ranks[d + 1], torsion[d + 1]
            )
            for d in range(top + 1)
        }
        assert homology_at(diffs, top) == want
    # a factor above 1 comes only from a pivot that is not a unit, and no
    # benchmark system has one, so make sure these do
    assert with_torsion >= 10


@pytest.mark.parametrize("n", [13, 16, 20, 30])
def test_dense_random_matrix_reduces(n):
    # no unit pivots to speak of, so the least-magnitude pivots must keep
    # the entries from growing (a dense reduction did not finish at n = 13)
    rng = random.Random(1979 + n)
    a = random_matrix(rng, n, n)
    rows = dense(a)
    res = smith_normal_form(a)
    det = abs(exact_minor_det(rows, range(n), range(n)))
    if det:
        assert res.rank == n and math.prod(res.diagonal) == det
    else:
        assert res.rank < n
    assert res.diagonal[0] == math.gcd(*(x for row in rows for x in row))


def test_snf_empty_and_zero():
    z = IntMatrix.zero(3, 3)
    res = smith_normal_form(z)
    assert res.rank == 0 and res.diagonal == []
