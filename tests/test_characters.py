"""Character tables, induction, restriction, and the representation-ring cache."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from bredon import characters
from bredon.characters import (
    RepRingCache,
    _charpoly_roots,
    _mod_nullspace,
    _relabelling,
    _split_eigenvectors,
    dixon_table,
    icosahedral_values,
    induction_matrix,
)
from bredon.cli import run_analysis
from bredon.coxeter import classify_subset, enumerate_spherical, parse_matrix
from bredon.errors import ConsistencyError, ContractError, ResourceCapError
from bredon.groups import ConjugacyClasses, GroupModel, conjugacy_classes, realize_group
from oracles import dense, inverses, matmul, restriction_matrix


@pytest.fixture(scope="module")
def rings():
    return RepRingCache()


def table_for(rings, rows, subset=None):
    w = parse_matrix(rows)
    t = subset if subset is not None else w.generators
    return w, rings.table(w, t)


# -- table structure ----------------------------------------------------------


def test_rank1_table(rings):
    _, tab = table_for(rings, [[1]])
    assert tab.n_classes == 2
    assert np.allclose(tab.values, [[1, 1], [1, -1]])


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 12])
def test_dihedral_tables_validate(rings, m):
    _, tab = table_for(rings, [[1, m], [m, 1]])
    tab.validate()
    n_linear = 4 if m % 2 == 0 else 2
    n_planar = (m - 2) // 2 if m % 2 == 0 else (m - 1) // 2
    assert tab.n_classes == n_linear + n_planar
    degrees = sorted(tab.degrees)
    assert degrees == [1] * n_linear + [2] * n_planar


def test_dihedral_closed_form_matches_dixon(rings):
    # the generic splitting algorithm must reproduce the closed-form table
    for m in (3, 4, 5, 6):
        w = parse_matrix([[1, m], [m, 1]])
        g = rings.model(w, w.generators)
        classes = rings.classes(w, w.generators)
        closed = rings.table(w, w.generators)
        generic = dixon_table(g, classes)
        generic.validate()

        # same multiset of rows up to ordering
        def key(row):
            return [(round(v.real, 6), round(v.imag, 6)) for v in row]

        a = sorted(key(r) for r in closed.values)
        b = sorted(key(r) for r in generic.values)
        assert a == b


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [2, 1]],  # A1 x A1
        [[1, 4, 2], [4, 1, 2], [2, 2, 1]],  # I2(4) x A1
        [[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 3], [2, 2, 3, 1]],  # A2 x A2
        [[1, 5, 2, 2], [5, 1, 2, 2], [2, 2, 1, 4], [2, 2, 4, 1]],  # I2(5) x B2
        [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]],  # A3 x A1
    ],
)
def test_dixon_matches_product_tables(rings, rows):
    # products have many repeated eigenvalues in their class-sum matrices,
    # so the split must cut multi-dimensional eigenspaces several times
    w = parse_matrix(rows)
    product = rings.table(w, w.generators)
    generic = dixon_table(rings.model(w, w.generators), rings.classes(w, w.generators))
    generic.validate()

    def pairs(table):
        return sorted(
            (d, [(round(v.real, 6), round(v.imag, 6)) for v in row])
            for d, row in zip(table.degrees, table.values)
        )

    assert pairs(generic) == pairs(product)


# -- mod-p linear algebra of the Dixon split -----------------------------------


def _kernel_size(mat, p):
    """Number of vectors x in F_p^n with mat x = 0, by enumeration."""
    n = mat.shape[1]
    vecs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).T
    return int(np.sum(np.all(mat @ vecs % p == 0, axis=0)))


def _brute_nullity(mat, p):
    size, nullity = _kernel_size(mat, p), 0
    while size > 1:
        size //= p
        nullity += 1
    return nullity


def _mod_p_cases():
    rng = np.random.default_rng(20260)
    cases = []
    for p in (5, 7):
        for m, n in ((1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (1, 3), (5, 3), (3, 4)):
            cases.append((p, np.zeros((m, n), dtype=np.int64)))
            cases.append((p, rng.integers(0, p, (m, n))))
            r = min(m, n) - 1 if min(m, n) > 1 else 1
            cases.append((p, rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n))))
        for n in (1, 2, 3, 4):
            cases.append((p, np.eye(n, dtype=np.int64) * 3))
    return cases


@pytest.mark.parametrize("p, mat", _mod_p_cases())
def test_mod_nullspace_oracle(p, mat):
    basis, _ = _mod_nullspace(mat, p)
    n = mat.shape[1]
    assert basis.shape == (n, _brute_nullity(mat, p))
    assert not np.any(mat @ basis % p)
    # independent: only the zero combination of the columns vanishes
    assert _kernel_size(basis, p) == 1


@pytest.mark.parametrize("p, mat", _mod_p_cases())
def test_mod_nullspace_free_rows_are_the_identity(p, mat):
    # the split reads a piece's row set off the free columns, so the
    # basis must be I on exactly those rows, in order
    basis, free = _mod_nullspace(mat, p)
    assert list(free) == sorted(set(free))
    assert len(free) == basis.shape[1]
    assert np.array_equal(basis[free], np.eye(len(free), dtype=np.int64))


@pytest.mark.parametrize(
    "p, mat", [(p, m) for p, m in _mod_p_cases() if m.shape[0] == m.shape[1]]
)
def test_charpoly_roots_oracle(p, mat):
    k = mat.shape[0]
    eye = np.eye(k, dtype=np.int64)
    expected = [x for x in range(p) if _brute_nullity((mat - x * eye) % p, p) > 0]
    assert _charpoly_roots(mat % p, p) == expected


def _structure_constants_by_full_walk(model, classes, p):
    # reference: walk every class word from x^{-1} for every x of the group,
    # as the definition reads; the library walks from x
    k = classes.count
    a = np.zeros((k, k, k), dtype=np.int64)
    for c, word in enumerate(classes.rep_words):
        cur = inverses(model)
        for s in word:
            cur = model.right[cur, s]
        np.add.at(a[:, :, c], (classes.class_of, classes.class_of[cur]), 1)
    return a % p


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],  # A3: blocks of 1, 2, 1 classes
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],  # B3
        [[1, 5, 2], [5, 1, 3], [2, 3, 1]],  # H3
        [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],  # D4
        [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]],  # F4: 25 classes
    ],
    ids=["A3", "B3", "H3", "D4", "F4"],
)
def test_structure_matrices_match_a_walk_over_the_whole_group(rows):
    w = parse_matrix(rows)
    model = realize_group(w)
    classes = conjugacy_classes(model)
    p = 10007
    blocks = np.array(list(characters._structure_matrices(model, classes, p)))
    assert np.array_equal(blocks, _structure_constants_by_full_walk(model, classes, p)[1:])


@pytest.mark.parametrize(
    "rows, p",
    [
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], 61),  # H3, exponent 30
        ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], 73),  # F4, exponent 24
    ],
    ids=["H3", "F4"],
)
def test_split_vectors_are_eigenvectors_of_every_class_matrix(rows, p):
    # the split stops reading class matrices once every space is a line;
    # the lines it returns must still be eigenvectors of all of them
    w = parse_matrix(rows)
    model = realize_group(w)
    classes = conjugacy_classes(model)
    k = classes.count
    mats = list(characters._structure_matrices(model, classes, p))
    assert len(mats) == k - 1
    vectors = _split_eigenvectors(mats, k, p)
    assert len(vectors) == k
    assert len({tuple(v.tolist()) for v in vectors}) == k
    for v in vectors:
        assert v[0] == 1
        for a in mats:
            av = a @ v % p
            assert np.array_equal(av, av[0] * v % p)


def test_split_rejects_non_commuting_matrices():
    # b swaps e0 and e2, so it does not preserve a's eigenplane span(e0, e1)
    p = 7
    a = np.diag([1, 1, 2])
    b = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert np.any((a @ b - b @ a) % p)
    with pytest.raises(ConsistencyError, match="does not preserve"):
        _split_eigenvectors([a, b], 3, p)


def test_split_rejects_a_matrix_that_is_not_diagonalisable():
    # a Jordan block has one eigenvalue and a one-dimensional eigenspace
    with pytest.raises(ConsistencyError, match="lost dimensions"):
        _split_eigenvectors([np.array([[1, 1], [0, 1]])], 2, 7)


def test_dixon_degrees_for_rank3_types(rings):
    # degree multisets from the standard references
    # B3 is {+-1} x Sym(4): each Sym(4) degree appears twice
    _, b3 = table_for(rings, [[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    assert sorted(b3.degrees) == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]
    _, h3 = table_for(rings, [[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    assert sorted(h3.degrees) == [1, 1, 3, 3, 3, 3, 4, 4, 5, 5]
    _, a3 = table_for(rings, [[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    assert sorted(a3.degrees) == [1, 1, 2, 3, 3]


def test_f4_table(rings):
    _, f4 = table_for(
        rings, [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
    )
    f4.validate()
    assert f4.n_classes == 25
    assert sum(d * d for d in f4.degrees) == 1152
    assert sorted(f4.degrees)[-1] == 16


def test_product_table_alignment(rings):
    # A1 x A1: four linear characters, four classes
    w, tab = table_for(rings, [[1, 2], [2, 1]])
    tab.validate()
    assert tab.n_classes == 4
    assert all(d == 1 for d in tab.degrees)
    # I2(4) x A1 has 5 * 2 = 10 classes
    w2, tab2 = table_for(
        rings, [[1, 4, 2], [4, 1, 2], [2, 2, 1]]
    )
    tab2.validate()
    assert tab2.n_classes == 10
    assert sum(d * d for d in tab2.degrees) == 16


def test_tensor_factors_must_not_share_a_generator():
    a1 = characters.rank1_table()
    # both factors' class words use position 0
    with pytest.raises(ContractError, match="share generators"):
        characters.tensor_table(a1, a1)
    dihedral = characters.dihedral_table(3)
    moved = dataclasses.replace(a1, class_words=[(), (1,)])
    with pytest.raises(ContractError, match="share generators"):
        characters.tensor_table(dihedral, moved)
    # the trivial group's only word has no letter, so it shares none
    assert characters.tensor_table(a1, characters.trivial_table()).class_words == [(), (0,)]
    moved = dataclasses.replace(a1, class_words=[(), (2,)])
    product = characters.tensor_table(dihedral, moved)
    assert product.class_words == [(), (2,), (0,), (0, 2), (0, 1), (0, 1, 2)]
    product.validate()


def test_class_count_equals_conjugacy_oracle(rings):
    # table size must match an independent conjugacy-class computation
    for rows in (
        [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
        [[1, 4, 2], [4, 1, 3], [2, 3, 1]],
        [[1, 5], [5, 1]],
    ):
        w = parse_matrix(rows)
        tab = rings.table(w, w.generators)
        g = realize_group(w)
        assert tab.n_classes == conjugacy_classes(g).count


# -- induction and restriction --------------------------------------------------


def test_induction_from_trivial_subgroup_is_regular(rings):
    # inducing the trivial character of {e} gives the regular representation
    w = parse_matrix([[1, 4], [4, 1]])
    mat = rings.induction(w, (), (0, 1))
    tab = rings.table(w, (0, 1))
    # multiplicity of each irreducible in the regular rep equals its degree
    assert [row[0] for row in dense(mat)] == list(tab.degrees)


def test_induction_reflection_to_dihedral(rings):
    # worked decomposition: the sign character of a reflection subgroup of
    # I2(4) induces to chi_1 + hat-chi_3 + phi_1 (degrees 1 + 1 + 2 = 4)
    w = parse_matrix([[1, 4], [4, 1]])
    mat = rings.induction(w, (0,), (0, 1))
    assert dense(mat) == [[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]]


def test_induction_degree_bookkeeping(rings):
    # total degree scales by the index for every column
    cases = [
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], (0, 1), (0, 1, 2)),
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], (1, 2), (0, 1, 2)),
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], (0,), (0, 1, 2)),
    ]
    for rows, small, big in cases:
        w = parse_matrix(rows)
        mat = rings.induction(w, small, big)
        sub = rings.table(w, small)
        sup = rings.table(w, big)
        index = sup.order // sub.order
        entries = dense(mat)
        for j, dj in enumerate(sub.degrees):
            total = sum(
                entries[i][j] * sup.degrees[i] for i in range(sup.n_irreducibles)
            )
            assert total == index * dj


def test_frobenius_reciprocity(rings):
    # induction computed class-wise must agree with the transpose route
    # through restriction: <Ind f, g> = <f, Res g>
    cases = [
        ([[1, 4], [4, 1]], (0,)),
        ([[1, 6], [6, 1]], (1,)),
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], (0, 1)),
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], (1, 2)),
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], (0, 2)),
    ]
    for rows, sub in cases:
        w = parse_matrix(rows)
        big = w.generators
        model = rings.model(w, big)
        sub_tab = rings.table(w, sub)
        big_tab = rings.table(w, big)
        embed = rings.embedding(w, sub, big)
        ind = induction_matrix(sub_tab, big_tab, embed)
        res = restriction_matrix(sub_tab, big_tab, embed)
        assert ind == res


def test_induction_matrix_keeps_its_checks(rings):
    # A2 < A3 with one table corrupted at a time
    w = parse_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    sub, big = rings.table(w, (0, 1)), rings.table(w, w.generators)
    embed = rings.embedding(w, (0, 1), w.generators)
    assert induction_matrix(sub, big, embed) == restriction_matrix(sub, big, embed)
    cases = [
        (dataclasses.replace(sub, values=sub.values * 1j), big, "complex entry"),
        (dataclasses.replace(sub, values=sub.values / 2), big, "non-integer entry"),
        (dataclasses.replace(sub, values=-sub.values), big, "negative entry"),
        (
            sub,
            dataclasses.replace(big, degrees=[d + 1 for d in big.degrees]),
            "induced degree mismatch: column 0 gives",
        ),
    ]
    for bad_sub, bad_big, message in cases:
        with pytest.raises(ConsistencyError, match=message):
            induction_matrix(bad_sub, bad_big, embed)


def test_induction_transitivity(rings):
    # Ind_K^M = Ind_L^M . Ind_K^L for K < L < M
    w = parse_matrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    k, l, m = (0,), (0, 1), (0, 1, 2)
    ind_km = rings.induction(w, k, m)
    ind_kl = rings.induction(w, k, l)
    ind_lm = rings.induction(w, l, m)
    assert matmul(ind_lm, ind_kl) == ind_km


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda rings, w: rings.table(w, (1, -1)), "generator index -1 outside rank 3"),
        (lambda rings, w: rings.table(w, (1, 3)), "generator index 3 outside rank 3"),
        (lambda rings, w: rings.induction(w, (0, 2), (0, 1)), "not contained in"),
    ],
    ids=["negative-index", "index-past-rank", "not-nested"],
)
def test_subsets_outside_the_system_are_contract_errors(lookup, message):
    w = parse_matrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    with pytest.raises(ContractError, match=message):
        lookup(RepRingCache(), w)


def test_cache_reuses_isomorphic_parabolics(rings):
    # the same induced matrix from different ambient systems hits one entry
    w1 = parse_matrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    w2 = parse_matrix([[1, 2, 4], [2, 1, 0], [4, 0, 1]])
    t1 = rings.table(w1, (0, 1))  # I2(4) inside B3
    t2 = rings.table(w2, (0, 2))  # I2(4) inside another system
    assert t1 is t2


def _line(labels):
    """Coxeter matrix of a linear diagram with the given edge labels (0 = infinity)."""
    n = len(labels) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(labels):
        rows[i][i + 1] = rows[i + 1][i] = m
    return rows


def _cycle(n):
    """Affine A_(n-1): an n-cycle of label-3 edges."""
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 3
    return rows


def _affine_d4():
    """Affine D4: node 2 joined by label-3 edges to the four others."""
    rows = [[1 if i == j else 2 for j in range(5)] for i in range(5)]
    for i in (0, 1, 3, 4):
        rows[i][2] = rows[2][i] = 3
    return rows


# the chain-rank5 systems, affine A5, D4 and F4, and the Lanner group 5-3-3-5
_TYPE_STORE_SYSTEMS = {
    "rank5-334inf": _line([3, 3, 4, 0]),
    "affine-A3": _cycle(4),
    "affine-C3": _line([4, 3, 4]),
    "hyperbolic-535": _line([5, 3, 5]),
    "hyperbolic-435": _line([4, 3, 5]),
    "hyperbolic-353": _line([3, 5, 3]),
    "affine-A5": _cycle(6),
    "affine-F4": _line([3, 3, 4, 3]),
    "affine-D4": _affine_d4(),
    "lanner-5335": _line([5, 3, 3, 5]),
}


def _dixon_orientations(rows):
    w = parse_matrix(rows)
    poset = enumerate_spherical(w)
    return w, [t for t in poset.subsets if len(t) >= 3 and len(poset.labels[t]) == 1]


def _assert_fresh_dixon(rings, w, t, where):
    """rings' table of W_t equals a fresh dixon_table on its own model, row
    for row and column for column, and fuses its corank-1 parabolics'
    classes as that model does."""
    got = rings.table(w, t)
    model = realize_group(w.submatrix(t), order_cap=rings.order_cap)
    classes = conjugacy_classes(model)
    fresh = dixon_table(model, classes)
    assert got.class_words == fresh.class_words, where
    assert got.class_sizes == fresh.class_sizes, where
    assert got.degrees == fresh.degrees, where
    assert np.max(np.abs(got.values - fresh.values)) < characters.VALUE_TOL, where
    for t1 in itertools.combinations(t, len(t) - 1):
        words = [[t.index(t1[p]) for p in word] for word in rings.table(w, t1).class_words]
        expected = [int(classes.class_of[model.evaluate_word(word)]) for word in words]
        assert rings.embedding(w, t1, t) == expected, (where, t1)


def test_type_store_serves_every_orientation_its_own_dixon_table():
    # one cache for all systems, so orientations are served across systems
    # too; each must equal a fresh build on its own model
    rings = RepRingCache()
    seen = {}
    for name, rows in _TYPE_STORE_SYSTEMS.items():
        w, subsets = _dixon_orientations(rows)
        for t in subsets:
            _assert_fresh_dixon(rings, w, t, (name, t))
            seen.setdefault(classify_subset(w, t)[0].name, set()).add((name, t))
    counts = {label: len(copies) for label, copies in seen.items()}
    assert counts == {
        "A3": 19, "B3": 6, "H3": 7, "A4": 6, "A5": 6, "B4": 2, "D4": 4, "F4": 1, "H4": 2
    }


def _closed_systems():
    """A_n and B_n for n = 3..6, B_n also read from its 3 end, H3 in all
    six numberings, three affine systems whose A and B parabolics come in
    several orientations, the hyperbolic systems with H3 parabolics, and H4
    for its H3."""
    systems = {}
    for n in range(3, 7):
        systems[f"A{n}"] = _line([3] * (n - 1))
        systems[f"B{n}"] = _line([4] + [3] * (n - 2))
        systems[f"B{n}-reversed"] = _line([3] * (n - 2) + [4])
    h3 = _line([5, 3])
    for perm in itertools.permutations(range(3)):
        systems["H3-" + "".join(map(str, perm))] = [[h3[i][j] for j in perm] for i in perm]
    systems["affine-A5"] = _cycle(6)
    systems["affine-C4"] = _line([4, 3, 3, 4])
    affine_b4 = _line([4, 3, 3, 2])  # the path 0 =4= 1 - 2 - 3, and node 4 on node 2
    affine_b4[2][4] = affine_b4[4][2] = 3
    systems["affine-B4"] = affine_b4
    for labels in ([5, 3, 5], [4, 3, 5], [3, 5, 3]):
        systems["hyperbolic-" + "".join(map(str, labels))] = _line(labels)
    systems["H4"] = _line([5, 3, 3])
    return systems


@pytest.mark.parametrize("name, rows", _closed_systems().items(), ids=_closed_systems())
def test_closed_tables_match_dixon(name, rows):
    # the Murnaghan-Nakayama tables of types A and B and the A5 x C2 table
    # of H3, on every orientation of every such parabolic of the system
    rings = RepRingCache(order_cap=46080)
    w, subsets = _dixon_orientations(rows)
    labels = {t: classify_subset(w, t)[0] for t in subsets}
    closed = [t for t in subsets if labels[t].family in ("A", "B") or labels[t].name == "H3"]
    assert closed
    for t in closed:
        _assert_fresh_dixon(rings, w, t, (name, t))


def test_icosahedral_values_check_a5_times_c2():
    # B3's w0 is central but of length 9
    b3 = realize_group(parse_matrix(_line([4, 3])), order_cap=48)
    with pytest.raises(ConsistencyError, match="not a central w0 of length 15"):
        icosahedral_values(b3, conjugacy_classes(b3))
    # H3 with its class sizes 15 and 20 exchanged: the rotations no longer fit A5
    h3 = realize_group(parse_matrix(_line([5, 3])), order_cap=120)
    classes = conjugacy_classes(h3)
    sizes = [{15: 20, 20: 15}.get(size, size) for size in classes.sizes]
    with pytest.raises(ConsistencyError, match="orders and sizes of A5"):
        icosahedral_values(h3, dataclasses.replace(classes, sizes=sizes))


def _dixon_builds(monkeypatch, rows):
    calls = []
    build = characters.dixon_table

    def counting(model, classes):
        calls.append(model.order)
        return build(model, classes)

    monkeypatch.setattr(characters, "dixon_table", counting)
    w = parse_matrix(rows)
    run_analysis(w, RepRingCache())
    return sorted(calls)


def test_one_dixon_build_per_type(monkeypatch):
    # types A, B and H3 never reach Dixon: affine A3 has four A3, affine A5
    # six each of A5, A4 and A3, rank5-334inf A3, B3 and B4, affine C3 B3,
    # and the hyperbolic systems two H3 or one H3 and one B3
    for name in ("affine-A3", "affine-A5", "rank5-334inf", "affine-C3",
                 "hyperbolic-535", "hyperbolic-435", "hyperbolic-353"):
        assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS[name]) == [], name
    # the four D4 orientations of affine D4 share one build, as do the two
    # H4 of 5-3-3-5, and F4 has one
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["affine-D4"]) == [192]
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["lanner-5335"]) == [14400]
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["affine-F4"]) == [1152]


def _walk_as_given(monkeypatch, walk=None):
    """Make reference_labelling keep its classification but walk the
    members in the given order (default: sorted)."""
    monkeypatch.setattr(
        characters,
        "reference_labelling",
        lambda sub, t: (classify_subset(sub, t)[0], tuple(t) if walk is None else walk),
    )


def test_relabelling_must_preserve_the_coxeter_matrix(monkeypatch):
    b3 = parse_matrix(_line([4, 3]))
    assert _relabelling(b3, (0, 1, 2), b3, (0, 1, 2)) == [0, 1, 2]
    with pytest.raises(ConsistencyError, match="does not preserve"):
        _relabelling(b3, (0, 1, 2), b3, (2, 1, 0))
    # and through the cache
    rings = RepRingCache()
    rings.table(parse_matrix(_line([5, 3, 3])), (0, 1, 2, 3))  # stores H4 as 5-3-3
    # the other orientation, 3-3-5, read from its least end: 3-3-5 onto 5-3-3
    _walk_as_given(monkeypatch)
    with pytest.raises(ConsistencyError, match="does not preserve"):
        rings.table(parse_matrix(_line([3, 3, 5])), (0, 1, 2, 3))


@pytest.mark.parametrize(
    "labels, walk",
    [
        ([3, 4], None),  # B3 read from its 3 end: the 4 is not on the first edge
        ([3, 3], (1, 0, 2)),  # A3 walked off its path: 0 and 2 commute
        ([4, 3, 3], (1, 0, 2, 3)),  # B4 whose 4 is on the first edge, but not as a path
    ],
)
def test_closed_tables_check_their_walk(monkeypatch, labels, walk):
    # the A/B path reads class words as permutations along the walk, so a
    # walk that does not induce the reference matrix must fail on the walk,
    # not later on the values (validate's orthogonality check)
    _walk_as_given(monkeypatch, walk)
    with pytest.raises(ConsistencyError, match="does not preserve"):
        RepRingCache().table(parse_matrix(_line(labels)), tuple(range(len(labels) + 1)))


def test_empty_subset_table(rings):
    w = parse_matrix([[1, 3], [3, 1]])
    tab = rings.table(w, ())
    assert tab.n_classes == 1
    assert list(tab.degrees) == [1]


def _charpoly_roots_int64(a, p):
    """Faddeev-LeVerrier in exact int64 products: the reference for the
    float64 products of _charpoly_roots."""
    k = a.shape[0]
    eye = np.eye(k, dtype=np.int64)
    coeffs = [1]
    am = np.zeros((k, k), dtype=np.int64)
    for j in range(1, k + 1):
        am = a @ ((am + coeffs[-1] * eye) % p) % p
        coeffs.append(-int(np.trace(am)) * pow(j, -1, p) % p)
    return [x for x in range(p) if sum(c * pow(x, len(coeffs) - 1 - i, p) for i, c in enumerate(coeffs)) % p == 0]


@pytest.mark.parametrize("k, p", [(25, 61), (40, 601), (65, 2521)])
def test_charpoly_roots_match_int64_products(k, p):
    rng = np.random.default_rng(k * p)
    # diag(0..k-1) under random elementary conjugations keeps its roots
    similar = np.diag(np.arange(k, dtype=np.int64))
    for _ in range(3 * k):
        i, j = rng.choice(k, 2, replace=False)
        c = int(rng.integers(1, p))
        similar[i] = (similar[i] + c * similar[j]) % p
        similar[:, j] = (similar[:, j] - c * similar[:, i]) % p
    assert _charpoly_roots(similar, p) == list(range(k))
    for a in (similar, rng.integers(0, p, (k, k))):
        assert _charpoly_roots(a, p) == _charpoly_roots_int64(a, p)


def test_charpoly_roots_refuses_inexact_float_products():
    # 2 * (p - 1)^2 >= 2^53: float64 sums of products would round
    with pytest.raises(ResourceCapError):
        _charpoly_roots(np.zeros((2, 2), dtype=np.int64), 2**27 + 1)


def test_exact_float_guard_boundary():
    characters._require_exact_float(1, 2**26 + 1, "length")  # 2^52 < 2^53
    with pytest.raises(ResourceCapError):
        characters._require_exact_float(2, 2**26 + 1, "length")  # 2^53


def test_dixon_refuses_an_inexact_fourier_lift(monkeypatch):
    # A3 has exponent 12, and 33554473 is a prime = 1 mod 12 with
    # 12 (p - 1)^2 >= 2^53: the float64 lift of the characters would
    # round, so the table is refused before any class constant is counted
    w = parse_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    model = realize_group(w)
    classes = conjugacy_classes(model)
    monkeypatch.setattr(characters, "_find_prime", lambda exponent, minimum: 33554473)

    def counted(*args):
        raise AssertionError("class constants counted")

    monkeypatch.setattr(characters, "_structure_matrices", counted)
    with pytest.raises(ResourceCapError, match="not exact at exponent 12"):
        dixon_table(model, classes)


def test_dixon_refuses_a_group_that_is_not_real():
    # the cyclic group C3 = <g> is no Coxeter group: g and g^2 are not
    # conjugate, its characters are not real, and the degree formula, which
    # pairs each class with itself, has no solution
    right = np.array([[1], [2], [0]], dtype=np.int32)
    model = GroupModel(order=3, letter=np.zeros(3, dtype=np.int32), right=right, left=right)
    classes = ConjugacyClasses(
        reps=[0, 1, 2],
        rep_words=[(), (0,), (0, 0)],
        sizes=[1, 1, 1],
        class_of=np.arange(3, dtype=np.int32),
    )
    with pytest.raises(ConsistencyError, match="degree denominator vanished"):
        dixon_table(model, classes)


def _charpoly_roots_leibniz(a, p):
    """Roots of det(x I - a) mod p by evaluating the Leibniz sum at every
    x in F_p at once."""
    k = a.shape[0]
    x = np.arange(p, dtype=np.int64)
    entry = [[(x * (i == j) - int(a[i, j])) % p for j in range(k)] for i in range(k)]
    det = np.zeros(p, dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = np.full(p, (-1) ** inversions % p, dtype=np.int64)
        for i in range(k):
            term = term * entry[i][perm[i]] % p
        det = (det + term) % p
    return np.flatnonzero(det == 0).tolist()


def _scan_cases(p):
    rng = np.random.default_rng(p)
    # roots at both ends of F_p and around the first chunk boundary
    roots = sorted({0, 1, p - 1, min(p - 2, 1 << 16), (1 << 16) % p})
    similar = np.diag(np.array(roots, dtype=np.int64))
    for _ in range(12):
        i, j = rng.choice(len(roots), 2, replace=False)
        c = int(rng.integers(1, p))
        similar[i] = (similar[i] + c * similar[j]) % p
        similar[:, j] = (similar[:, j] - c * similar[:, i]) % p
    return [similar, rng.integers(0, p, (3, 3)), np.zeros((2, 2), dtype=np.int64)]


@pytest.mark.parametrize("p, chunk", [(61, 1 << 16), (61, 7), (131071, 1 << 16)])
def test_charpoly_roots_scan_in_chunks(monkeypatch, p, chunk):
    # p below one chunk, then above it: many chunks of 7, and two of the
    # default size with the last one cut short
    monkeypatch.setattr(characters, "_SCAN_CHUNK", chunk)
    for a in _scan_cases(p):
        assert _charpoly_roots(a, p) == _charpoly_roots_leibniz(a, p)


def test_charpoly_roots_memory_does_not_grow_with_p():
    # a scan of all of F_p at once would hold two int64 arrays of 8 MB
    p = 1_000_003
    tracemalloc.start()
    try:
        roots = _charpoly_roots(np.diag(np.array([5, p - 1], dtype=np.int64)), p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert roots == [5, p - 1]
    assert peak < 4 * 2**20
