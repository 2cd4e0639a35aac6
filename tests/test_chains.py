"""Cubical cells of the quotient complex, their boundary maps and the
Morse complex the chain route reduces, checked against the full cubical
complex and the flag complex of the test oracles."""

import itertools
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import flag_oracle
from bredon.abelian import FgAbGroup, HomologyProfile
from bredon.chains import (
    assemble_complex,
    boundary,
    build_cells,
    cell_pair_homology,
    morse_counts,
    morse_matching,
)
from bredon.characters import RepRingCache
from bredon.coxeter import enumerate_spherical, parse_matrix
from bredon.errors import ConsistencyError
from bredon.snf import IntMatrix, homology_at
from oracles import cubical_complex, dense, is_zero, matmul, relative_complex


@pytest.fixture(scope="module")
def rings():
    return RepRingCache()


def complex_for(rows, rings):
    w = parse_matrix(rows)
    return w, assemble_complex(w, rings)


def cubical_for(rows, rings):
    w = parse_matrix(rows)
    return w, cubical_complex(w, rings)


def test_cell_counts_infinite_dihedral(rings):
    w, cx = cubical_for([[1, 0], [0, 1]], rings)
    # intervals in the poset {emptyset, {1}, {2}}: three points [T, T]
    # and two edges [{}, {i}]
    assert [len(level) for level in cx.cells] == [3, 2]
    assert cx.dims == [5, 2]


def test_cell_counts_a3(rings):
    w, cx = cubical_for([[1, 3, 2], [3, 1, 3], [2, 3, 1]], rings)
    # Sym(4): all 1 + 3 + 3 + 1 = 8 subsets are spherical; the intervals
    # [T, U] with |U - T| = d number C(3, d) * 2^(3 - d); top dimension 3
    assert cx.top_dimension == 3
    assert enumerate_spherical(w).size == 8
    assert [len(level) for level in cx.cells] == [8, 12, 6, 1]


def test_boundary_squares_to_zero(rings):
    cases = [
        [[1, 0], [0, 1]],
        [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
        [[1, 2, 4], [2, 1, 4], [4, 4, 1]],
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
        [[1, 3, 0], [3, 1, 4], [0, 4, 1]],
    ]
    for rows in cases:
        for build in (complex_for, cubical_for):
            _, cx = build(rows, rings)
            for k in range(1, cx.top_dimension):
                prod = matmul(cx.differentials[k], cx.differentials[k + 1])
                assert is_zero(prod)


def _counted_inductions(rings):
    """The (T, T') pairs of every rings.induction call, in call order."""
    calls = []
    induction = rings.induction

    def counted(w, t1, t2):
        calls.append((t1, t2))
        return induction(w, t1, t2)

    rings.induction = counted
    return calls


def test_each_induction_block_is_requested_once_per_pair():
    # two infinite labels and a commuting pair
    w = parse_matrix([[1, 0, 0], [0, 1, 2], [0, 2, 1]])
    rings = RepRingCache()
    calls = _counted_inductions(rings)
    assemble_complex(w, rings)
    # one call per pair of bottoms that some path count joins, and no other
    counts = morse_counts(build_cells(enumerate_spherical(w)))
    pairs = {(c[0], f[0]) for c, row in counts.items() for f in row if f[0] != c[0]}
    assert len(calls) == len(set(calls))
    assert set(calls) == pairs
    # codimension-two inductions are read too
    assert any(len(t2) - len(t1) == 2 for t1, t2 in pairs)

    w = parse_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    rings = RepRingCache()
    calls = _counted_inductions(rings)
    cx = cubical_complex(w, rings)
    # the edges [T, T + s] are exactly the codimension-one pairs
    assert sorted(calls) == cx.cells[1]


def test_boundary_signs_kinds_and_order():
    assert boundary(((), (0, 1))) == [
        (((0,), (0, 1)), 1, "induction"),
        (((), (1,)), -1, "identity"),
        (((1,), (0, 1)), -1, "induction"),
        (((), (0,)), 1, "identity"),
    ]
    assert boundary(((1,), (1,))) == []


def test_flag_faces_signs_and_order():
    chain = ((), (0,), (0, 1))
    assert flag_oracle.faces(chain) == [
        (((0,), (0, 1)), -1),
        (((), (0, 1)), 1),
        (((), (0,)), -1),
    ]


def test_flag_infinite_dihedral_worked_boundary(rings):
    # columns of d_1: cell ({} < {i}) maps to -[induced] + [regular at {}]
    cx = flag_oracle.assemble_complex(parse_matrix([[1, 0], [0, 1]]), rings)
    d1 = cx.differentials[1]
    assert d1.nrows == 5 and d1.ncols == 2
    # coordinate order: [{}], [{1}] x2, [{2}] x2
    # inducing the trivial character of {e} to A1 gives both characters once
    assert [row[0] for row in dense(d1)] == [1, -1, -1, 0, 0]
    assert [row[1] for row in dense(d1)] == [1, 0, 0, -1, -1]


def test_rank5_chain_regression_values(rings):
    # Regression values of the chain route alone, not independent answers:
    # no closed form covers these systems.  3-3-4-inf is affine F4's
    # diagram 3-3-4-3 with its last label made infinite.
    path = [
        [1, 3, 2, 2, 2],
        [3, 1, 3, 2, 2],
        [2, 3, 1, 4, 2],
        [2, 2, 4, 1, 0],
        [2, 2, 2, 0, 1],
    ]
    for perm in [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]:
        relabelled = parse_matrix([[path[p][q] for q in perm] for p in perm])
        assert assemble_complex(relabelled, rings).homology() == HomologyProfile(
            {0: FgAbGroup.free(25)}
        )
    affine_f4 = [row[:] for row in path]
    affine_f4[3][4] = affine_f4[4][3] = 3
    assert assemble_complex(parse_matrix(affine_f4), rings).homology() == HomologyProfile(
        {0: FgAbGroup.free(40)}
    )


def test_infinite_dihedral_homology(rings):
    _, cx = complex_for([[1, 0], [0, 1]], rings)
    prof = cx.homology()
    assert prof.group_at(0) == FgAbGroup.free(3)
    assert prof.max_degree == 0


def test_known_triangle_groups(rings):
    _, cx = complex_for([[1, 3, 3], [3, 1, 3], [3, 3, 1]], rings)
    prof = cx.homology()
    assert prof.group_at(0) == FgAbGroup.free(5)
    assert prof.group_at(1) == FgAbGroup.free(1)

    _, cx = complex_for([[1, 2, 4], [2, 1, 4], [4, 4, 1]], rings)
    assert cx.homology().group_at(0) == FgAbGroup.free(9)

    _, cx = complex_for([[1, 0, 0], [0, 1, 0], [0, 0, 1]], rings)
    assert cx.homology().group_at(0) == FgAbGroup.free(4)


def test_finite_group_concentrated_in_degree_zero(rings):
    # for finite W the complex is a cone: reduced homology vanishes above 0
    for rows in (
        [[1, 3], [3, 1]],
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    ):
        w, cx = complex_for(rows, rings)
        prof = cx.homology()
        assert prof.max_degree == 0
        n_classes = rings.table(w, w.generators).n_classes
        assert prof.group_at(0) == FgAbGroup.free(n_classes)


def test_max_degree_truncation(rings):
    w = parse_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    cx = assemble_complex(w, rings)
    prof = HomologyProfile(homology_at(cx.differentials, 0))
    assert prof.group_at(0) == FgAbGroup.free(5)
    assert prof.max_degree == 0


def test_relative_complex_skeleton_decomposition(rings):
    # the n-th relative skeleton complex splits over rank-n spherical
    # subsets U into the cell pairs, the cells [T, U] with U fixed
    w = parse_matrix([[1, 2, 4], [2, 1, 4], [4, 4, 1]])
    full = cubical_complex(w, rings)
    poset = enumerate_spherical(w)
    for n in range(1, w.rank + 1):
        rel = relative_complex(full, n)
        got = rel.homology()
        combined: dict[int, FgAbGroup] = {}
        for t in poset.by_rank[n] if n < len(poset.by_rank) else []:
            part = cell_pair_homology(w, t, rings)
            for d, g in part.groups.items():
                combined[d] = combined.get(d, FgAbGroup.free(0)).direct_sum(g)
        assert got == HomologyProfile(combined)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]],
    ],
)
def test_relative_complex_layout(rings, rows):
    # each relative complex lays its blocks out side by side, and its
    # differentials are the full ones restricted to the kept coordinates
    w, full = cubical_for(rows, rings)
    for n in range(w.rank + 1):
        rel = relative_complex(full, n)
        for d, ranks in enumerate(rel.block_ranks):
            assert rel.offsets[d] == [sum(ranks[:i]) for i in range(len(ranks))]
            assert rel.dims[d] == sum(ranks)
        coords = []
        for d, level in enumerate(rel.cells):
            index = {cell: ci for ci, cell in enumerate(full.cells[d])}
            kept = [index[cell] for cell in level]
            assert all(len(full.cells[d][ci][-1]) == n for ci in kept)
            coords.append(
                [
                    full.offsets[d][ci] + j
                    for ci in kept
                    for j in range(full.block_ranks[d][ci])
                ]
            )
        for d in range(1, len(rel.cells)):
            full_rows = dense(full.differentials[d])
            expected = [[full_rows[r][c] for c in coords[d]] for r in coords[d - 1]]
            assert dense(rel.differentials[d]) == expected


# ---------------------------------------------------------------------------
# the cubical complex against the flag complex, its barycentric subdivision
# ---------------------------------------------------------------------------

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pinned.json"


def _from_key(key: str) -> list[list[int]]:
    """Coxeter matrix of a pinned class key "rank:upper triangle", one
    digit per label read row by row, 0 meaning infinity."""
    rank, digits = key.split(":")
    n = int(rank)
    m = [[1] * n for _ in range(n)]
    for (i, j), c in zip(itertools.combinations(range(n), 2), digits):
        m[i][j] = m[j][i] = int(c)
    return m


def _diagram(n, edges):
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, label in edges:
        m[i][j] = m[j][i] = label
    return m


def _line(labels):
    return _diagram(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)])


def _cycle(n):
    return _diagram(n, [(i, (i + 1) % n, 3) for i in range(n)])


AFFINE_D4 = _diagram(5, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)])

# the chain-rank5 benchmark systems, affine D4 and F4, and 5-3-3-3
FLAG_CHECKED = {
    "rank5-334inf": _line([3, 3, 4, 0]),
    "affine-A3": _cycle(4),
    "affine-C3": _line([4, 3, 4]),
    "hyperbolic-535": _line([5, 3, 5]),
    "hyperbolic-435": _line([4, 3, 5]),
    "hyperbolic-353": _line([3, 5, 3]),
    "affine-D4": AFFINE_D4,
    "affine-F4": _line([3, 3, 4, 3]),
    "hyperbolic-5333": _line([5, 3, 3, 3]),
}


def _pinned_sample() -> list[str]:
    """Every rank-3 pinned class and every 5th rank-4 one."""
    keys = sorted(json.loads(PINNED.read_text())["answers"])
    rank3 = [k for k in keys if k.startswith("3:")]
    rank4 = [k for k in keys if k.startswith("4:")]
    return rank3 + rank4[::5]


def test_cubical_matches_flag_on_pinned_classes():
    rings = RepRingCache()
    sample = _pinned_sample()
    assert sum(k.startswith("3:") for k in sample) == 56
    for key in sample:
        w = parse_matrix(_from_key(key))
        flag = flag_oracle.assemble_complex(w, rings)
        assert cubical_complex(w, rings).homology() == flag.homology(), key


@pytest.mark.parametrize("name", sorted(FLAG_CHECKED))
def test_cubical_matches_flag_on_larger_systems(rings, name):
    w = parse_matrix(FLAG_CHECKED[name])
    flag = flag_oracle.assemble_complex(w, rings)
    assert cubical_complex(w, rings).homology() == flag.homology()


# ---------------------------------------------------------------------------
# the Morse complex of the identity-face matching, which the chain route
# reduces, against the full cubical complex
# ---------------------------------------------------------------------------


def test_morse_complex_matches_cubical_on_pinned_classes():
    rings = RepRingCache()
    keys = sorted(json.loads(PINNED.read_text())["answers"])
    assert len(keys) == 2508
    for key in keys:
        w = parse_matrix(_from_key(key))
        morse, cubical = assemble_complex(w, rings), cubical_complex(w, rings)
        assert sum(morse.dims) < sum(cubical.dims), key
        assert morse.homology() == cubical.homology(), key


@pytest.mark.parametrize("name", sorted(FLAG_CHECKED))
def test_morse_complex_matches_cubical_on_larger_systems(rings, name):
    w = parse_matrix(FLAG_CHECKED[name])
    assert assemble_complex(w, rings).homology() == cubical_complex(w, rings).homology()


@pytest.mark.parametrize(
    "rows", [[[1, 0], [0, 1]], [[1, 3, 0], [3, 1, 4], [0, 4, 1]], AFFINE_D4, _line([5, 3, 3, 3])]
)
def test_matching_pairs_identity_faces_once(rows):
    pairs = morse_matching(build_cells(enumerate_spherical(parse_matrix(rows))))
    matched = [cell for pair in pairs for cell in pair]
    assert len(set(matched)) == len(matched)
    for face, cell in pairs:
        assert any(f == face and kind == "identity" for f, _, kind in boundary(cell))
    # bottoms come in order of size, so no pair's induction faces reach
    # an earlier pair
    sizes = [len(cell[0]) for _, cell in pairs]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize(
    "rows, survivors",
    [
        (_cycle(4), [20, 20, 8, 1]),
        (_line([4, 3, 4]), [40, 25, 8, 1]),
        (_line([5, 3, 5]), [36, 23, 8, 1]),
    ],
    ids=["affine-A3", "affine-C3", "5-3-5"],
)
def test_simplex_group_survivors_are_the_chamber_faces(rings, rows, survivors):
    # every proper subset of S is spherical, so the link of T is the
    # boundary of the simplex on S - T, which leaves one cell per T in
    # degree n - 1 - |T|: the survivors number sum_{|T| = n-1-k} |Irr W_T|
    w = parse_matrix(rows)
    poset = enumerate_spherical(w)
    cx = assemble_complex(w, rings, poset)
    assert cx.dims == survivors
    assert cx.dims == [
        sum(rings.table(w, t).n_classes for t in poset.subsets if len(t) == w.rank - 1 - k)
        for k in range(len(cx.dims))
    ]


@pytest.mark.parametrize(
    "rows, nonzero",
    [(_cycle(4), 28), (_line([5, 3, 5]), 28), (_cycle(8), 1016)],
    ids=["affine-A3", "5-3-5", "affine-A7"],
)
def test_simplex_group_path_counts_follow_the_chamber_formula(rows, nonzero):
    # one critical cell per proper T, and its path counts reach exactly the
    # cells of the bottoms T + s, with n = eps_c (-1)^pos(s, S - T) for one
    # sign eps_c per cell: the boundary of the chamber's face T, up to the
    # orientation the matching leaves that cell
    w = parse_matrix(rows)
    counts = morse_counts(build_cells(enumerate_spherical(w)))
    cell_of = {c[0]: c for c in counts}
    assert len(cell_of) == len(counts) == 2**w.rank - 1
    for (t, u), row in counts.items():
        assert len(u) - len(t) == w.rank - 1 - len(t)
        rest = [s for s in w.generators if s not in t]
        want = {
            cell_of[tuple(sorted((*t, s)))]: (-1) ** i
            for i, s in enumerate(rest)
            if len(t) + 1 < w.rank
        }
        eps = row.get(next(iter(want), None), 1)
        assert eps in (1, -1), (t, u)
        assert row == {c: eps * n for c, n in want.items()}, (t, u)
    assert sum(len(row) for row in counts.values()) == nonzero


def _solve(m, rhs):
    """(X, det m) with m X = rhs, for a square m, by exact elimination."""
    n = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(v) for v in extra] for row, extra in zip(m, rhs)]
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])  # StopIteration: singular
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [v / a[k][k] for v in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [v - f * w for v, w in zip(a[i], a[k])]
    return [row[n:] for row in a], det


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, 1]],
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 3, 0], [3, 1, 4], [0, 4, 1]],
        _line([3, 3, 4, 0]),
        _line([4, 3, 4]),
        AFFINE_D4,
    ],
    ids=["infinite-dihedral", "A3", "3-4-inf-inf", "rank5-334inf", "affine-C3", "affine-D4"],
)
def test_path_counts_match_the_morse_matrix_formula(rows):
    # With C, A and B the critical cells, the cells matched with a face
    # below and the cells matched with a cell above, the Morse differential
    # of the cubical chain complex over Z is d_CC - d_CA d_BA^-1 d_BC, and
    # d_BA (B one degree below A) is invertible over Z as the matching is
    # acyclic.  This sums the gradient paths without following any.
    cells = build_cells(enumerate_spherical(parse_matrix(rows)))
    counts = morse_counts(cells)
    up = dict(morse_matching(cells))
    down = set(up.values())
    assert all(not counts[c] for c in cells[0] if c in counts)
    for d in range(1, len(cells)):
        col = {c: j for j, c in enumerate(cells[d])}
        entry = [[0] * len(cells[d]) for _ in cells[d - 1]]
        row_of = {c: i for i, c in enumerate(cells[d - 1])}
        for c in cells[d]:
            for face, sign, _ in boundary(c):
                entry[row_of[face]][col[c]] = sign
        crit = [c for c in cells[d] if c not in up and c not in down]
        a = [c for c in cells[d] if c in down]
        crit_below = [f for f in cells[d - 1] if f not in up and f not in down]
        b = [f for f in cells[d - 1] if f in up]
        assert len(a) == len(b)

        def block(rs, cs):
            return [[entry[row_of[r]][col[c]] for c in cs] for r in rs]

        x, det = _solve(block(b, a), block(b, crit)) if a else ([[] for _ in crit], 1)
        assert det in (1, -1)
        d_ca = block(crit_below, a)
        for j, c in enumerate(crit):
            want = {}
            for i, f in enumerate(crit_below):
                n = entry[row_of[f]][col[c]] - sum(
                    (d_ca[i][k] * x[k][j] for k in range(len(a))), Fraction(0)
                )
                assert n.denominator == 1
                if n:
                    want[f] = int(n)
            assert counts[c] == want, c


@pytest.mark.parametrize(
    "rows",
    [[[1, 0], [0, 1]], _line([3, 3, 4, 0]), _line([4, 3, 4]), _line([5, 3, 3, 3]), _cycle(8)],
    ids=["infinite-dihedral", "rank5-334inf", "affine-C3", "hyperbolic-5333", "affine-A7"],
)
def test_path_counts_give_the_homology_of_the_chamber(rows):
    # with one Z per critical cell the counts are the Morse complex of the
    # chamber K's cubical chains, and K is a cone on the empty subset
    w = parse_matrix(rows)
    cells = build_cells(enumerate_spherical(w))
    counts = morse_counts(cells)
    critical = [[c for c in level if c in counts] for level in cells]
    differentials = [IntMatrix.zero(0, len(critical[0]))]
    for d in range(1, len(critical)):
        row_of = {c: i for i, c in enumerate(critical[d - 1])}
        entries: list[list[tuple[int, int]]] = [[] for _ in critical[d - 1]]
        for j, c in enumerate(critical[d]):
            for face, n in counts[c].items():
                entries[row_of[face]].append((j, n))
        differentials.append(IntMatrix(len(critical[d - 1]), len(critical[d]), entries))
    got = homology_at(differentials, len(critical) - 1)
    assert got == {k: FgAbGroup.free(1 if k == 0 else 0) for k in range(len(critical))}


def test_wrong_induction_block_is_refused():
    # one entry more in any induction block the Morse complex reads breaks
    # d . d = 0, and homology refuses the complex
    w = parse_matrix(_line([4, 3, 4]))
    rings = RepRingCache()
    calls = _counted_inductions(rings)
    assemble_complex(w, rings).homology()  # the true blocks pass
    pairs = list(calls)
    assert len(pairs) == 28
    for pair in pairs:
        planted = RepRingCache()
        induction = planted.induction

        def wrong(w, t1, t2, pair=pair):
            block = induction(w, t1, t2)
            if (t1, t2) != pair:
                return block
            rows = [dict(r) for r in block.rows]
            rows[0][0] = rows[0].get(0, 0) + 1
            return IntMatrix(block.nrows, block.ncols, [sorted(r.items()) for r in rows])

        planted.induction = wrong
        with pytest.raises(ConsistencyError, match="nonzero"):
            assemble_complex(w, planted).homology()


def test_flipped_identity_block_is_caught(rings):
    w, cx = cubical_for(_line([3, 3, 4, 0]), rings)
    face, cell = next(p for p in morse_matching(cx.cells) if len(p[1][1]) - len(p[1][0]) == 2)
    row0 = cx.offsets[1][cx.cells[1].index(face)]
    col0 = cx.offsets[2][cx.cells[2].index(cell)]
    block = {(row0 + j, col0 + j) for j in range(rings.table(w, cell[0]).n_classes)}
    d = cx.differentials[2]
    rows = [[(c, -v if (r, c) in block else v) for c, v in row] for r, row in enumerate(d.rows)]
    cx.differentials[2] = IntMatrix(d.nrows, d.ncols, rows)
    with pytest.raises(ConsistencyError):
        cx.homology()


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0, 1]],
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 3, 0], [3, 1, 4], [0, 4, 1]],
        AFFINE_D4,
    ],
)
def test_cubical_cell_counts(rings, rows):
    # degree d holds one cell per d-subset of U - T: sum over U of C(|U|, d)
    w = parse_matrix(rows)
    poset = enumerate_spherical(w)
    cx = cubical_complex(w, rings, poset)
    top = max(len(u) for u in poset.subsets)
    assert cx.top_dimension == top
    for d, level in enumerate(cx.cells):
        assert len(level) == sum(comb(len(u), d) for u in poset.subsets)
        assert level == sorted(level)
        assert all(set(t) <= set(u) and len(u) - len(t) == d for t, u in level)
        assert cx.block_ranks[d] == [rings.table(w, t).n_classes for t, _ in level]


def test_cubical_infinite_dihedral_worked_boundary(rings):
    # d[{}, {i}] = ind [{i}, {i}] - [{}, {}]; coordinates [{}], [{1}] x2, [{2}] x2
    cx = cubical_complex(parse_matrix([[1, 0], [0, 1]]), rings)
    assert cx.cells == [[((), ()), ((0,), (0,)), ((1,), (1,))], [((), (0,)), ((), (1,))]]
    d1 = dense(cx.differentials[1])
    assert [row[0] for row in d1] == [-1, 1, 1, 0, 0]
    assert [row[1] for row in d1] == [-1, 0, 0, 1, 1]


def test_cubical_square_signs():
    # U - T = {s_0 < s_1}: the faces that add or drop s_1 carry the sign -1
    w = parse_matrix([[1, 2], [2, 1]])
    rings = RepRingCache()
    cx = cubical_complex(w, rings)
    (square,) = cx.cells[2]
    assert square == ((), (0, 1))
    d2 = dense(cx.differentials[2])
    rows = dict(zip(cx.cells[1], cx.offsets[1]))
    assert d2[rows[((0,), (0, 1))]][0] == 1  # ind to W_{s_0}, sign +
    assert d2[rows[((), (1,))]][0] == -1  # drop s_0, sign -
    assert d2[rows[((1,), (0, 1))]][0] == -1  # ind to W_{s_1}, sign -
    assert d2[rows[((), (0,))]][0] == 1  # drop s_1, sign +



def _free_ranks(*ranks):
    return HomologyProfile({d: FgAbGroup.free(r) for d, r in enumerate(ranks) if r})


@pytest.mark.parametrize(
    "rows, want",
    [
        (_line([4]), _free_ranks(2)),  # even m: Z^(m/2) in degree 0
        (_line([3]), _free_ranks(1, 1)),  # odd m: Z^((m-1)/2), then Z
        (_line([3, 3]), _free_ranks(1, 1)),
        (_line([3, 3, 3]), _free_ranks(1, 2)),
        (_line([4, 3]), _free_ranks(3)),
        (_line([5, 3]), _free_ranks(4)),
        (_line([3, 4, 3]), _free_ranks(9)),
        (_diagram(4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)]), _free_ranks(3, 0, 1)),
    ],
    ids=["I2(4)", "I2(3)", "A3", "A4", "B3", "H3", "F4", "D4"],
)
def test_cell_pairs_by_type(rings, rows, want):
    # the cells [T, S] of W_S, against the cell-pair table by type and
    # against the cells of the flag complex whose top entry is S
    w = parse_matrix(rows)
    assert cell_pair_homology(w, w.generators, rings) == want
    flag = flag_oracle.assemble_complex(w, rings)
    assert relative_complex(flag, w.rank).homology() == want
