"""Coxeter matrix parsing, classification, and spherical enumeration."""

import math
import random

import pytest

from bredon.coxeter import (
    INFINITE,
    CoxeterMatrix,
    classify_irreducible,
    classify_subset,
    components,
    enumerate_spherical,
    parse_matrix,
    reference_labelling,
    spherical_order,
)
from bredon.errors import MatrixError
from oracles import numeric_finiteness_check


def mat(rows):
    return parse_matrix(rows)


# -- parsing ----------------------------------------------------------------


def test_parse_round_trip():
    w = mat([[1, 3, 0], [3, 1, 4], [0, 4, 1]])
    assert w.rank == 3
    assert w.entry(0, 2) == INFINITE
    assert w.entry(1, 2) == 4
    assert w.to_raw() == [[1, 3, 0], [3, 1, 4], [0, 4, 1]]


def test_parse_rejects_nonsquare():
    with pytest.raises(MatrixError):
        mat([[1, 3], [3, 1], [2, 2]])


def test_parse_rejects_bad_diagonal():
    with pytest.raises(MatrixError, match=r"\(2, 2\)"):
        mat([[1, 3], [3, 2]])


def test_parse_rejects_asymmetric():
    with pytest.raises(MatrixError, match=r"\(1, 2\)"):
        mat([[1, 3], [4, 1]])


def test_parse_rejects_offdiagonal_one():
    with pytest.raises(MatrixError):
        mat([[1, 1], [1, 1]])


def test_parse_rejects_empty():
    with pytest.raises(MatrixError):
        mat([])


# -- components -------------------------------------------------------------


def brute_components(w: CoxeterMatrix, t):
    """Union-find oracle for the coupling graph (edge iff m >= 3 or infinite)."""
    t = sorted(t)
    parent = {g: g for g in t}

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for i in t:
        for j in t:
            if i < j and w.entry(i, j) != 2:
                parent[find(i)] = find(j)
    groups = {}
    for g in t:
        groups.setdefault(find(g), []).append(g)
    return sorted(tuple(sorted(v)) for v in groups.values())


def test_components_match_union_find():
    rng = random.Random(20230817)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([2, 2, 3, 4, 0])
        w = mat(rows)
        subset = tuple(g for g in range(n) if rng.random() < 0.8)
        assert sorted(components(w, subset)) == brute_components(w, subset)


# -- finite-type classification ----------------------------------------------

ORDER_CASES = [
    ([[1]], 2),  # A1
    ([[1, 3], [3, 1]], 6),  # A2
    ([[1, 5], [5, 1]], 10),  # I2(5)
    ([[1, 7], [7, 1]], 14),  # I2(7)
    ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 24),  # A3
    ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], 48),  # B3
    ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], 120),  # H3
    ([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]], 192),  # D4
    ([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]], 384),  # B4
    ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], 1152),  # F4
    ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], 14400),  # H4
]


@pytest.mark.parametrize("rows,order", ORDER_CASES)
def test_orders_of_finite_types(rows, order):
    w = mat(rows)
    assert spherical_order(w, w.generators) == order


def test_names_of_finite_types():
    b3 = mat([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    assert classify_irreducible(b3, (0, 1, 2)).name == "B3"
    h3 = mat([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    assert classify_irreducible(h3, (0, 1, 2)).name == "H3"
    i7 = mat([[1, 7], [7, 1]])
    assert classify_irreducible(i7, (0, 1)).name == "I2(7)"


def test_a4_various_orderings():
    # the same path graph under every generator relabeling
    import itertools

    base = {(0, 1): 3, (1, 2): 3, (2, 3): 3}
    for perm in itertools.permutations(range(4)):
        rows = [[2] * 4 for _ in range(4)]
        for i in range(4):
            rows[i][i] = 1
        for (a, b), label in base.items():
            rows[perm[a]][perm[b]] = rows[perm[b]][perm[a]] = label
        w = mat(rows)
        c = classify_irreducible(w, (0, 1, 2, 3))
        assert c.name == "A4" and c.order == 120


def test_e6_e7_e8_orders():
    def branched(n, arm):
        # one degree-3 vertex with all-label-3 arms of lengths arm
        rows = [[2] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        edges = []
        node = 1
        for length in arm:
            prev = 0
            for _ in range(length):
                edges.append((prev, node))
                prev = node
                node += 1
        for a, b in edges:
            rows[a][b] = rows[b][a] = 3
        return mat(rows)

    assert spherical_order(branched(6, (1, 2, 2)), tuple(range(6))) == 51840
    assert spherical_order(branched(7, (1, 2, 3)), tuple(range(7))) == 2903040
    assert spherical_order(branched(8, (1, 2, 4)), tuple(range(8))) == 696729600
    # arms (1,3,3) is affine E7~ territory, not finite
    assert spherical_order(branched(8, (1, 3, 3)), tuple(range(8))) is None


def _relabelled(edges, n, perm):
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for a, b, label in edges:
        rows[perm[a]][perm[b]] = rows[perm[b]][perm[a]] = label
    return mat(rows)


@pytest.mark.parametrize(
    "name, n, edges",
    [
        ("A4", 4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)]),
        ("B4", 4, [(0, 1, 4), (1, 2, 3), (2, 3, 3)]),
        ("F4", 4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)]),
        ("H4", 4, [(0, 1, 5), (1, 2, 3), (2, 3, 3)]),
        ("D4", 4, [(0, 1, 3), (0, 2, 3), (0, 3, 3)]),
        ("D5", 5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)]),
        ("E6", 6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)]),
        ("E7", 7, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (2, 6, 3)]),
    ],
)
def test_reference_labelling_reads_every_relabelling_alike(name, n, edges):
    # the induced matrix read in walk order is one matrix per type
    rng = random.Random(n)
    seen = set()
    for _ in range(12):
        perm = list(range(n))
        rng.shuffle(perm)
        w = _relabelled(edges, n, perm)
        label, walk = reference_labelling(w, range(n))
        assert label.name == name and sorted(walk) == list(range(n))
        seen.add(tuple(tuple(w.entry(i, j) for j in walk) for i in walk))
    assert len(seen) == 1


def test_cycle_is_infinite():
    w = mat([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    assert spherical_order(w, w.generators) is None


def test_affine_families_are_infinite():
    b2_affine = mat([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    assert spherical_order(b2_affine, b2_affine.generators) is None
    g2_affine = mat([[1, 6, 2], [6, 1, 3], [2, 3, 1]])
    assert spherical_order(g2_affine, g2_affine.generators) is None


def test_reducible_order_is_product():
    w = mat([[1, 4, 2], [4, 1, 2], [2, 2, 1]])  # I2(4) x A1
    assert spherical_order(w, w.generators) == 16
    assert classify_subset(w, w.generators) is not None


# -- exact classification vs numeric criterion --------------------------------


def test_classification_agrees_with_cosine_minors():
    rng = random.Random(50937)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([2, 3, 3, 4, 5, 6, 0])
        w = mat(rows)
        exact = spherical_order(w, w.generators) is not None
        assert numeric_finiteness_check(w, w.generators) == exact


# -- spherical poset ----------------------------------------------------------


def brute_spherical(w):
    import itertools

    out = []
    for r in range(w.rank + 1):
        for t in itertools.combinations(range(w.rank), r):
            if spherical_order(w, t) is not None:
                out.append(t)
    return sorted(out)


def test_enumerate_spherical_matches_powerset_scan():
    rng = random.Random(777)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([2, 3, 4, 0])
        w = mat(rows)
        poset = enumerate_spherical(w)
        assert sorted(poset.subsets) == brute_spherical(w)


def test_poset_full_order_is_the_order_of_w():
    rng = random.Random(4242)
    systems = [mat(rows) for rows, _ in ORDER_CASES]
    systems += [mat([[1, 3, 3], [3, 1, 3], [3, 3, 1]]), mat([[1, 0], [0, 1]])]
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice([2, 3, 4, 5, 0])
        systems.append(mat(rows))
    for w in systems:
        assert enumerate_spherical(w).full_order == spherical_order(w, w.generators)


def test_poset_is_downward_closed():
    w = mat([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    poset = enumerate_spherical(w)
    have = set(poset.subsets)
    for t in have:
        for g in t:
            smaller = tuple(x for x in t if x != g)
            assert smaller in have


def test_right_angled_even_flags():
    w = mat([[1, 2, 0], [2, 1, 2], [0, 2, 1]])
    assert w.is_right_angled() and w.is_even()
    w2 = mat([[1, 4, 2], [4, 1, 6], [2, 6, 1]])
    assert not w2.is_right_angled() and w2.is_even()
    w3 = mat([[1, 3], [3, 1]])
    assert not w3.is_even()
