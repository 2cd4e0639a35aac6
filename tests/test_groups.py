"""Cayley-graph models of finite standard parabolics and conjugacy."""

import hashlib
import random
import time
import tracemalloc

import numpy as np
import pytest

from bredon.coxeter import cosine_matrix, parse_matrix, spherical_order
from bredon import groups
from bredon.errors import ConsistencyError, ContractError, ResourceCapError
from bredon.groups import conjugacy_classes, realize_group
from oracles import gen_elements, inverses, mult


def diagram(n, edges):
    """Coxeter matrix on n generators from (i, j, label) edges."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, label in edges:
        m[i][j] = m[j][i] = label
    return m


def path(labels):
    return diagram(len(labels) + 1, [(i, i + 1, lab) for i, lab in enumerate(labels)])


def realize(rows, cap=14400):
    w = parse_matrix(rows)
    return realize_group(w, order_cap=cap)


def test_trivial_group():
    w = parse_matrix([[1]])
    g = realize_group(w.submatrix(()), order_cap=10)
    assert g.order == 1
    assert [g.word(e) for e in range(g.order)] == [()]


def test_orders_match_classification():
    cases = [
        [[1]],
        [[1, 3], [3, 1]],
        [[1, 6], [6, 1]],
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
        [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
        [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],  # D4
    ]
    for rows in cases:
        w = parse_matrix(rows)
        g = realize_group(w, order_cap=14400)
        assert g.order == spherical_order(w, w.generators)


def test_generator_relations_hold():
    g = realize(([[1, 4, 2], [4, 1, 3], [2, 3, 1]]))
    for p in gen_elements(g):
        assert mult(g, p, p) == 0
    # braid relation (s1 s2)^4 = e in B3
    a, b = gen_elements(g)[:2]
    x = 0  # identity index
    for _ in range(4):
        x = mult(g, mult(g, x, a), b)
    assert x == 0


def test_words_are_geodesic_consistent():
    # BFS words evaluate back to their own element
    g = realize([[1, 5], [5, 1]])
    for idx in range(g.order):
        assert g.evaluate_word(g.word(idx)) == idx


def test_order_cap_enforced():
    w = parse_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    with pytest.raises(ResourceCapError):
        realize_group(w, order_cap=100)


def test_only_a_spherical_system_is_realized():
    # the infinite dihedral group, and affine A2 inside a larger system
    with pytest.raises(ContractError, match="not spherical"):
        realize_group(parse_matrix([[1, 0], [0, 1]]))
    w = parse_matrix([[1, 3, 3, 2], [3, 1, 3, 2], [3, 3, 1, 2], [2, 2, 2, 1]])
    with pytest.raises(ContractError, match="not spherical"):
        realize_group(w.submatrix((0, 1, 2)))
    assert realize_group(w.submatrix((0, 1, 3))).order == 12


def dihedral_class_count_oracle(m):
    # m even: 2 reflection classes, m/2 - 1 rotation pairs, identity, rotation by pi
    # m odd:  1 reflection class, (m - 1)/2 rotation pairs, identity
    return (m // 2 + 3) if m % 2 == 0 else ((m - 1) // 2 + 2)


@pytest.mark.parametrize("m", range(2, 13))
def test_dihedral_class_counts(m):
    g = realize([[1, m], [m, 1]])
    classes = conjugacy_classes(g)
    assert classes.count == dihedral_class_count_oracle(m)


def test_class_sizes_partition_group():
    rng = random.Random(5150)
    cases = [
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
        [[1, 2], [2, 1]],
    ]
    for rows in cases:
        g = realize(rows)
        classes = conjugacy_classes(g)
        inv = inverses(g)
        assert sum(classes.sizes) == g.order
        # class_of is constant on conjugation orbits: spot-check random pairs
        for _ in range(20):
            x = rng.randrange(g.order)
            h = rng.randrange(g.order)
            hx = mult(g, mult(g, h, x), int(inv[h]))
            assert classes.class_of[x] == classes.class_of[hx]


def test_identity_class_first():
    g = realize([[1, 6], [6, 1]])
    classes = conjugacy_classes(g)
    assert classes.class_of[0] == 0
    assert classes.sizes[0] == 1
    assert classes.rep_words[0] == ()


def test_symmetric_group_class_count():
    # conjugacy classes of Sym(4) = partitions of 4 = 5
    g = realize([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    assert g.order == 24
    assert conjugacy_classes(g).count == 5
    # Sym(5): partitions of 5 = 7
    g5 = realize(
        [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
    )
    assert g5.order == 120
    assert conjugacy_classes(g5).count == 7


def test_hyperoctahedral_class_count():
    # classes of B_n are indexed by pairs of partitions with |a| + |b| = n
    # n = 3: 10 such pairs
    g = realize([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    assert conjugacy_classes(g).count == 10


# -- a root-permutation oracle, independent of the closure --------------------


def root_system(rows):
    """Roots of the cosine form's reflection representation, closed from
    the simple roots under s_i(v) = v - 2 B(a_i, v) a_i one root at a time:
    the roots as rows, the generators as permutations of them (gens[i, n]
    is the index of s_i(root n)) and a dict from rounded coordinates to
    root index."""
    b = -np.cos(np.pi / np.array(rows, dtype=float))
    k = len(rows)
    roots = list(np.eye(k))
    index = {tuple(np.round(r, 6) + 0.0): n for n, r in enumerate(roots)}
    images = []  # images[n][i] = index of s_i(root n)
    for v in roots:  # grows while it is read
        row = []
        for i in range(k):
            u = v.copy()
            u[i] -= 2 * b[i] @ v
            key = tuple(np.round(u, 6) + 0.0)
            if key not in index:
                index[key] = len(roots)
                roots.append(u)
            row.append(index[key])
        images.append(row)
    return np.array(roots), np.array(images).T, index


class RootPermutations:
    """Every element of a realized model as a permutation of its root
    system, for checking the Cayley graph.

    The roots are those of root_system; each element's permutation is
    the product of the generators' along g.word(e), and a dict from
    permutation to element is the lookup.
    """

    def __init__(self, rows, g):
        roots, self.gens, _ = root_system(rows)
        self.perms = np.empty((g.order, len(roots)), dtype=np.int64)
        for e in range(g.order):
            perm = np.arange(len(roots))
            for s in g.word(e):
                perm = perm[self.gens[s]]
            self.perms[e] = perm
        self.element_of = {perm.tobytes(): e for e, perm in enumerate(self.perms)}

    def lookup(self, perms):
        """Elements of a batch of permutations, one per row."""
        return np.array([self.element_of[row.tobytes()] for row in perms])


def brute_force_classes(g, oracle):
    """Classes {h x h^-1 : h in W} from composed root permutations, in
    canonical order."""
    words = [g.word(e) for e in range(g.order)]

    def rep_key(e):
        return (len(words[e]), words[e])

    perms = oracle.perms
    inverse_perms = np.argsort(perms, axis=1)
    orbits, seen = [], set()
    for x in range(g.order):
        if x not in seen:
            hx = perms[:, perms[x]]  # row h: h x
            hxh = np.take_along_axis(hx, inverse_perms, axis=1)  # row h: h x h^-1
            orbit = set(oracle.lookup(hxh).tolist())
            seen |= orbit
            orbits.append(orbit)
    orbits.sort(key=lambda orbit: rep_key(min(orbit, key=rep_key)))
    class_of = [0] * g.order
    for c, orbit in enumerate(orbits):
        for e in orbit:
            class_of[e] = c
    reps = [min(orbit, key=rep_key) for orbit in orbits]
    return reps, [words[e] for e in reps], [len(o) for o in orbits], class_of


ORACLE_SYSTEMS = {
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B3": [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    "D4": [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
    "A2xA1": [[1, 3, 2], [3, 1, 2], [2, 2, 1]],
    **{f"I2({m})": [[1, m], [m, 1]] for m in range(3, 9)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_classes_match_brute_force_oracle(name):
    g = realize(ORACLE_SYSTEMS[name])
    classes = conjugacy_classes(g)
    oracle = RootPermutations(ORACLE_SYSTEMS[name], g)
    reps, rep_words, sizes, class_of = brute_force_classes(g, oracle)
    assert classes.reps == reps
    assert classes.rep_words == rep_words
    assert classes.sizes == sizes
    assert classes.class_of.tolist() == class_of


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_batched_lookup_inverts_the_element_list(name):
    # the oracle's lookup of all composed permutations at once gives back
    # the element list: the closure's elements are distinct group elements
    g = realize(ORACLE_SYSTEMS[name])
    oracle = RootPermutations(ORACLE_SYSTEMS[name], g)
    assert oracle.lookup(oracle.perms).tolist() == list(range(g.order))
    assert g.order == spherical_order(parse_matrix(ORACLE_SYSTEMS[name]), range(g.rank))


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_cayley_tables_match_composed_permutations(name):
    g = realize(ORACLE_SYSTEMS[name])
    oracle = RootPermutations(ORACLE_SYSTEMS[name], g)
    perms, gens = oracle.perms, oracle.gens
    k = g.rank
    ident = np.arange(perms.shape[1])
    # elements 1..k are the generators, in position order
    assert [g.word(s + 1) for s in range(k)] == [(s,) for s in range(k)]
    assert (perms[1 : k + 1] == gens).all()
    for s in range(k):
        assert (gens[s][gens[s]] == ident).all()
        assert g.right[:, s].tolist() == oracle.lookup(perms[:, gens[s]]).tolist()  # x s
        assert g.left[:, s].tolist() == oracle.lookup(gens[s][perms]).tolist()  # s x
    assert inverses(g).tolist() == oracle.lookup(np.argsort(perms, axis=1)).tolist()


def shortlex_words(g, oracle):
    """Shortlex-least word of every element, by brute force over left
    descents: lengths come from a breadth-first search on composed root
    permutations, and each word starts with the least s that shortens
    the element, followed by the word of s x."""
    k = g.rank
    left = np.stack([oracle.lookup(oracle.gens[s][oracle.perms]) for s in range(k)], axis=1)
    length = np.full(g.order, -1)
    length[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in left[x].tolist():
                if length[y] < 0:
                    length[y] = length[x] + 1
                    nxt.append(y)
        frontier = nxt
    words = []
    for x in range(g.order):
        word, cur = [], x
        while cur:
            s = min(s for s in range(k) if length[left[cur, s]] < length[cur])
            word.append(s)
            cur = int(left[cur, s])
        words.append(tuple(word))
    return words


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_tree_words_are_shortlex_least(name):
    g = realize(ORACLE_SYSTEMS[name])
    words = [g.word(e) for e in range(g.order)]
    assert words == shortlex_words(g, RootPermutations(ORACLE_SYSTEMS[name], g))
    assert words == sorted(words, key=lambda word: (len(word), word))
    assert [g.evaluate_word(word) for word in words] == list(range(g.order))


def test_many_commuting_generators_get_small_keys():
    # A1^14: 28 roots, but each simple root's orbit has 2, so keys take 14
    # bits; with radix 28 they would need 68 and the realization would refuse
    w = parse_matrix(diagram(14, []))
    g = realize_group(w, order_cap=16384)
    assert g.order == 16384
    assert conjugacy_classes(g).count == 16384


def test_e8_keys_overflow_before_allocating():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    w = parse_matrix(diagram(8, [(i, j, 3) for i, j in edges]))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceCapError):
            realize_group(w, order_cap=10**9)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 * 2**20


# (matrix, order, class count) of finite Coxeter groups (Carter 1972)
CLASSICAL_COUNTS = {
    "F4": (path([3, 4, 3]), 1152, 25),
    "H4": (path([5, 3, 3]), 14400, 34),
    "A7": (path([3] * 6), 40320, 22),
    "B6": (path([4, 3, 3, 3, 3]), 46080, 65),
    "D6": (diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]), 23040, 37),
    "E6": (diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)]), 51840, 25),
}


@pytest.mark.parametrize("name", sorted(CLASSICAL_COUNTS))
def test_classical_class_counts(name):
    rows, order, count = CLASSICAL_COUNTS[name]
    g = realize(rows, cap=60000)
    assert g.order == order
    classes = conjugacy_classes(g)
    assert classes.count == count
    assert sum(classes.sizes) == order


def test_e6_model_memory():
    rows = CLASSICAL_COUNTS["E6"][0]
    w = parse_matrix(rows)
    tracemalloc.start()
    try:
        g = realize_group(w, order_cap=60000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int32 right and left of 51840 x 6, plus letter: 2.7 MB
    assert g.order == 51840
    assert retained < 4 * 2**20


def test_e6_closure_peak_memory():
    # the closure keeps 6 simple-root images per element of one length
    # layer (at most 3,662 elements) and the 6 generators' permutations
    # of the 72 roots, never a permutation of the roots per element; the
    # model itself keeps 2.7 MB
    w = parse_matrix(CLASSICAL_COUNTS["E6"][0])
    tracemalloc.start()
    try:
        realize_group(w, order_cap=60000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


# sha256 of parent (right[x, letter[x]], 0 at the identity), letter, right,
# left and inv (by the oracle), as int32 little-endian in that order,
# generated before the closure numbered layers by sorting
MODEL_DIGESTS = {
    "H4": "fbaafd16f2abd70454b3dad033bf0edcf2097c7cff2083ba5b06856d5edef115",
    "F4": "910677427c209dfaaea114f871aa04d642a9da76fe48236466ebeba0c49bb23c",
    "B5": "0adac910e4cae4aca54219db9d92ef8610ebd53487e48bbbb0097370bffb7cf0",
    "A6": "e7b662ad346da9aa8a48b9b94b085fbd6fbbe7fbd71579fabb47df7550efa93c",
    "D6": "de3607e0788d7c99fdc471990424a52eb25112e364c7b8b4c5e950042b03b71a",
    "B6": "80e50f746b5110e38546edc9f4c1e9b3533046057433c20ac827cf3a1c7cd355",
    "E6": "aee3f5b720e6fc416383fa985812876923a2d622ddf7aac3d979047e49dd5974",
    "H4 as 3-3-5": "f34030f090a140f474dcd43696f635785142e16c4ef29b1d64be9eaa883bd9fa",
    "B6 as 3-3-3-3-4": "4e495b6556e634b744fc3a4ba8e78c284be5380e0f1c5e41b51724ef847b74b8",
    "D6 branched at 0": "4eb222a037b37672792052329d878c26902f0f417ca554724e386f6c02ba02a2",
    "E6 branched at 0": "f623f8edc1f121f658d3b1a22d42a4c288201f6a2c2adc5b521865d1e95cbf64",
    "A7": "3e94836873600702dc360371f33761bed07366b447ae38bbe3e2e3a37de6444d",
    "B3xI2(5)": "497d921cc1a756ad878ad0afa66c5f5dba2c5180e28e55c25f84e6cf466301a7",
}
PINNED_MODELS = {
    "B5": path([4, 3, 3, 3]),
    "A6": path([3] * 5),
    **{name: CLASSICAL_COUNTS[name][0] for name in ("H4", "F4", "D6", "B6", "E6")},
    # the same types numbered otherwise, so that the key digits and the
    # orbits of the simple roots come in other orders
    "H4 as 3-3-5": path([3, 3, 5]),
    "B6 as 3-3-3-3-4": path([3, 3, 3, 3, 4]),
    "D6 branched at 0": diagram(6, [(0, 1, 3), (0, 2, 3), (0, 3, 3), (3, 4, 3), (4, 5, 3)]),
    "E6 branched at 0": diagram(6, [(0, 1, 3), (0, 2, 3), (0, 5, 3), (1, 3, 3), (2, 4, 3)]),
    "A7": CLASSICAL_COUNTS["A7"][0],
    "B3xI2(5)": diagram(5, [(0, 1, 4), (1, 2, 3), (3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_large_models_are_pinned(name):
    # the brute-force oracles above stop at rank 4
    g = realize(PINNED_MODELS[name], cap=60000)
    parent = g.right[np.arange(g.order), g.letter]
    parent[0] = 0
    digest = hashlib.sha256()
    for table in (parent, g.letter, g.right, g.left, inverses(g)):
        assert table.dtype == np.int32 and len(table) == g.order
        digest.update(table.astype("<i4").tobytes())
    assert digest.hexdigest() == MODEL_DIGESTS[name]


REAL_SYSTEMS = {
    **{f"A{n}": path([3] * (n - 1)) for n in range(1, 7)},
    **{f"B{n}": path([4] + [3] * (n - 2)) for n in range(2, 7)},
    **{
        f"D{n}": diagram(n, [(i, i + 1, 3) for i in range(n - 2)] + [(n - 3, n - 1, 3)])
        for n in range(4, 7)
    },
    **{name: CLASSICAL_COUNTS[name][0] for name in ("E6", "F4", "H4")},
    "H3": path([5, 3]),
    **{f"I2({m})": [[1, m], [m, 1]] for m in range(3, 13)},
    "H3xA1": diagram(4, [(0, 1, 5), (1, 2, 3)]),
    "B3xI2(5)": diagram(5, [(0, 1, 4), (1, 2, 3), (3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_every_class_is_closed_under_inversion(name):
    # finite Coxeter groups are real (Geck-Pfeiffer 2000): the class
    # algebra's self-adjointness in dixon_table relies on it, and no
    # inverse table is kept
    g = realize(REAL_SYSTEMS[name], cap=60000)
    class_of = conjugacy_classes(g).class_of
    assert np.array_equal(class_of.take(inverses(g)), class_of)


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS) + ["A1^14"])
def test_root_closure_matches_float_reflections(name):
    # the oracle closes the roots one at a time and reflects each root in
    # each simple root with floats; both closures number the roots
    # breadth first, so the permutations must agree entry for entry
    rows = diagram(14, []) if name == "A1^14" else REAL_SYSTEMS[name]
    w = parse_matrix(rows)
    gen_perms, orbit = groups._close_roots(cosine_matrix(w, w.generators))
    roots, gens, index = root_system(rows)
    n, k = len(roots), len(rows)
    assert gen_perms.shape == (k, n)
    assert np.array_equal(gen_perms, gens)
    ident = np.arange(n)
    for i in range(k):
        assert np.array_equal(gen_perms[i].take(gen_perms[i]), ident)
        assert gen_perms[i, i] == index[tuple(np.round(-roots[i], 6) + 0.0)]
    # each root's label is the least simple root of its W-orbit: join
    # every root with its images, one generator at a time
    label = ident.copy()
    while True:
        nxt = label
        for perm in gens:
            nxt = np.minimum(nxt, nxt.take(perm))
        if np.array_equal(nxt, label):
            break
        label = nxt
    assert orbit == label.tolist()


def test_large_dihedral_closure_peak_memory():
    # I2(2000) has 4,000 roots and 4,000 elements in 2,001 length layers
    # of at most 2 elements; the closure keeps the two generators'
    # permutations of the roots and 2 simple-root images per element of
    # a layer, never a table of every root against every root (128 MB)
    tracemalloc.start()
    try:
        g = realize_group(parse_matrix([[1, 2000], [2000, 1]]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 4000
    assert peak < 2.5 * 2**20


def test_closure_checks_the_classified_order(monkeypatch):
    # B3's length layers hold 1, 3, 5, 7, 8, 8, 7, 5, 3, 1 elements.  Told
    # 46, the closure overflows inside the layer of 3; told 47, it stops
    # before w0 and leaves the ascents of that layer unresolved.  H3 told
    # 121 closes all 120 elements and then finds no new one.
    b3, h3 = parse_matrix(path([4, 3])), parse_matrix(path([5, 3]))
    true_order = groups.spherical_order
    shift = {}
    monkeypatch.setattr(groups, "spherical_order", lambda w, t: true_order(w, t) + shift[w.m])
    shift[b3.m] = -2
    with pytest.raises(ConsistencyError, match="closure exceeded the classified order 46"):
        realize_group(b3)
    shift[b3.m] = -1
    with pytest.raises(ConsistencyError, match="closure left a product unresolved"):
        realize_group(b3)
    shift[h3.m] = 1
    with pytest.raises(
        ConsistencyError, match="closure produced 120 elements, classification says 121"
    ):
        realize_group(h3)
