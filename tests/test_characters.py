"""Character tables, induction, restriction, and the representation-ring cache."""

import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest

from bredon import characters
from bredon.characters import (
    VALUE_TOL,
    RepRingCache,
    _relabelling,
    dixon_table,
    induction_matrix,
)
from bredon.cli import run_analysis
from bredon.coxeter import classify_subset, cosine_matrix, enumerate_spherical, parse_matrix
from bredon.errors import ConsistencyError, ContractError
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
    # Burnside's eigenvector method must reproduce the closed-form table
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
        [[1, 2, 2], [2, 1, 2], [2, 2, 1]],  # A1^3: eight linear characters
        [[1 if i == j else 2 for j in range(4)] for i in range(4)],  # A1^4
        [[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 2], [2, 2, 2, 1]],  # A2 x A1 x A1
        [[1, 6, 2], [6, 1, 2], [2, 2, 1]],  # I2(6) x A1
        [[1, 5, 2, 2], [5, 1, 2, 2], [2, 2, 1, 2], [2, 2, 2, 1]],  # I2(5) x A1 x A1
        [[1, 3, 2, 2], [3, 1, 2, 2], [2, 2, 1, 4], [2, 2, 4, 1]],  # A2 x B2
        [[1, 4, 2, 2], [4, 1, 2, 2], [2, 2, 1, 4], [2, 2, 4, 1]],  # B2 x B2
        [[1, 6, 2, 2], [6, 1, 2, 2], [2, 2, 1, 6], [2, 2, 6, 1]],  # I2(6) x I2(6)
        [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]],  # B3 x A1
        [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]],  # H3 x A1
        [  # A2 x A2 x A1
            [1, 3, 2, 2, 2],
            [3, 1, 2, 2, 2],
            [2, 2, 1, 3, 2],
            [2, 2, 3, 1, 2],
            [2, 2, 2, 2, 1],
        ],
    ],
)
def test_dixon_matches_product_tables(rings, rows):
    # products have many repeated eigenvalues in their class-sum matrices,
    # so only the fixed combination of all of them separates the characters
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


# -- Burnside's eigenvectors ---------------------------------------------------


def _structure_constants_by_full_walk(model, classes):
    # reference: walk every class word from x^{-1} for every x of the group,
    # as the definition reads; the library walks from x
    k = classes.count
    a = np.zeros((k, k, k), dtype=np.int64)
    for c, word in enumerate(classes.rep_words):
        cur = inverses(model)
        for s in word:
            cur = model.right[cur, s]
        np.add.at(a[:, :, c], (classes.class_of, classes.class_of[cur]), 1)
    return a


def _dihedral(m):
    return [[1, m], [m, 1]]


def _sum(*blocks):
    """Coxeter matrix of the direct product of the given systems."""
    n = sum(len(b) for b in blocks)
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return rows


_A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
_B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
_H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
_D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
_F4 = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
_H4 = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]

# groups small enough for the oracle's walk over the whole group: the
# irreducible types up to rank 4 but H4, D5, dihedral groups whose class
# sizes 1, 2 and m (or m / 2) all occur, and products, whose class-sum
# matrices share many eigenvalues
_WALK_GROUPS = {
    "A3": _A3,  # blocks of 1, 2, 1 classes
    "B3": _B3,
    "H3": _H3,
    "D4": _D4,
    "F4": _F4,  # 25 classes
    "A1": [[1]],
    "A2": _dihedral(3),
    "A4": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "B4": [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "D5": [
        [1, 2, 3, 2, 2],
        [2, 1, 3, 2, 2],
        [3, 3, 1, 3, 2],
        [2, 2, 3, 1, 3],
        [2, 2, 2, 3, 1],
    ],
    "I2(4)": _dihedral(4),
    "I2(5)": _dihedral(5),
    "I2(6)": _dihedral(6),
    "I2(8)": _dihedral(8),
    "I2(12)": _dihedral(12),
    "A1xA1": _sum([[1]], [[1]]),
    "A1xA1xA1": _sum([[1]], [[1]], [[1]]),
    "A2xA1": _sum(_dihedral(3), [[1]]),
    "A2xA2": _sum(_dihedral(3), _dihedral(3)),
    "B3xA1": _sum(_B3, [[1]]),
    "H3xA1": _sum(_H3, [[1]]),
}


@pytest.mark.parametrize("rows", _WALK_GROUPS.values(), ids=_WALK_GROUPS)
def test_structure_matrices_match_a_walk_over_the_whole_group(rows):
    w = parse_matrix(rows)
    model = realize_group(w)
    classes = conjugacy_classes(model)
    blocks = np.array(list(characters._structure_matrices(model, classes)))
    assert np.array_equal(blocks, _structure_constants_by_full_walk(model, classes)[1:])


@pytest.mark.parametrize("rows", _WALK_GROUPS.values(), ids=_WALK_GROUPS)
def test_central_characters_multiply_by_the_structure_constants(rows):
    # each row's central character omega_i = |C_i| chi(g_i) / chi(1) must
    # satisfy omega_i omega_j = sum_k a_ijk omega_k, with the constants of
    # the oracle's walk over the whole group
    w = parse_matrix(rows)
    model = realize_group(w)
    classes = conjugacy_classes(model)
    a = _structure_constants_by_full_walk(model, classes)
    table = dixon_table(model, classes)
    sizes = np.array(classes.sizes)
    omegas = table.values * sizes / np.array(table.degrees)[:, None]
    for omega in omegas:
        assert abs(omega[0] - 1) <= VALUE_TOL
        assert np.all(np.abs(np.outer(omega, omega) - a @ omega) <= VALUE_TOL * sizes[:, None])


@pytest.mark.parametrize(
    "keep, message",
    [
        # M = sin(1) I: eigh returns some orthonormal basis, whose entries at
        # the identity class give no integer degrees
        ((), "no integer degree"),
        # the eigenvectors of A_1 alone give integer degrees on A3, and only
        # the other (zero) class sums show that they are not central characters
        ((1,), "not an eigenvector of every class sum"),
    ],
    ids=["all-zero", "only-A1"],
)
def test_dixon_refuses_planted_structure_constants(monkeypatch, keep, message):
    # validate()'s orthogonality and degree sums hold for any orthonormal
    # eigenbasis, so the eigenvector check is what refuses a wrong one;
    # every A_i is zeroed except those in keep
    model = realize_group(parse_matrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]]))
    classes = conjugacy_classes(model)
    true = list(characters._structure_matrices(model, classes))
    planted = [a if i in keep else np.zeros_like(a) for i, a in enumerate(true, start=1)]
    monkeypatch.setattr(characters, "_structure_matrices", lambda model, classes: iter(planted))
    with pytest.raises(ConsistencyError, match=message):
        dixon_table(model, classes)


# three types dixon_table serves (D4, F4, H4) and A3, with their class counts
_CLASS_SUM_GROUPS = {"A3": (_A3, 5), "D4": (_D4, 13), "F4": (_F4, 25), "H4": (_H4, 34)}


@functools.cache
def _class_sums(name):
    """model, classes and the true A_1 ... A_(k-1) of a _CLASS_SUM_GROUPS entry."""
    rows, count = _CLASS_SUM_GROUPS[name]
    model = realize_group(parse_matrix(rows))
    classes = conjugacy_classes(model)
    assert classes.count == count
    return model, classes, tuple(characters._structure_matrices(model, classes))


def _plant(monkeypatch, name, i, change):
    """The model and classes of name, with _structure_matrices serving the
    true class sums but A_i replaced by change(copy of A_i)."""
    model, classes, true = _class_sums(name)
    planted = [change(a.copy()) if j == i else a for j, a in enumerate(true, start=1)]
    monkeypatch.setattr(characters, "_structure_matrices", lambda model, classes: iter(planted))
    return model, classes


_CLASS_SUM_CASES = [
    (name, i) for name, (_, count) in _CLASS_SUM_GROUPS.items() for i in range(1, count)
]
_CLASS_SUM_IDS = [f"{name}-A{i}" for name, i in _CLASS_SUM_CASES]


@pytest.mark.parametrize("name, i", _CLASS_SUM_CASES, ids=_CLASS_SUM_IDS)
def test_dixon_reads_every_class_sum(monkeypatch, name, i):
    # a zero A_i keeps A_i D symmetric, and the true central characters may
    # still be the eigenvectors of M, but the trivial one has omega(i) =
    # |C_i|, while the zero A_i sends it to 0: the eigenvector check of
    # class i, or the degrees of a wrong eigenbasis, must refuse
    model, classes = _plant(monkeypatch, name, i, np.zeros_like)
    with pytest.raises(ConsistencyError, match="no integer degree|not an eigenvector"):
        dixon_table(model, classes)


@pytest.mark.parametrize("name, i", _CLASS_SUM_CASES, ids=_CLASS_SUM_IDS)
def test_dixon_checks_every_class_sum_for_inversion_closure(monkeypatch, name, i):
    # a_i0i = 1 (x = z^-1 for z in class i) and a_ii0 = |C_i|, so entries
    # [0, i] and [i, 0] of A_i D are both |C_i|; counting x = z^-1 twice
    # breaks the identity for class i alone
    def twice(a):
        assert a[0, i] == 1
        a[0, i] = 2
        return a

    model, classes = _plant(monkeypatch, name, i, twice)
    with pytest.raises(ConsistencyError, match="not closed under inversion"):
        dixon_table(model, classes)


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


@pytest.mark.parametrize("column", [0, 2])
def test_validate_refuses_a_nan_value(rings, column):
    # NaN compares False both ways, so each check must pass only when its
    # error is <= the tolerance: at the identity column and elsewhere
    _, a3 = table_for(rings, [[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    values = a3.values.copy()
    values[1, column] = np.nan
    with pytest.raises(ConsistencyError):
        dataclasses.replace(a3, values=values).validate()


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("column", [0, 2])
def test_validate_refuses_an_infinite_value(rings, column, value):
    # away from the identity column, inf * 0 in the Gram product would warn
    # before any check could refuse: the refusal must come with no warning
    _, a3 = table_for(rings, [[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    values = a3.values.copy()
    values[1, column] = value
    with warnings.catch_warnings(), pytest.raises(ConsistencyError):
        warnings.simplefilter("error", RuntimeWarning)
        dataclasses.replace(a3, values=values).validate()


@pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
def test_round_int_rows_refuses_an_infinite_entry(value):
    # inf - round(inf) is NaN and would warn before the check refused it
    with warnings.catch_warnings(), pytest.raises(ConsistencyError, match="non-integer entry"):
        warnings.simplefilter("error", RuntimeWarning)
        characters._round_int_rows(np.array([[1.0, value]]), "induction matrix")


def test_round_int_rows_refuses_nan():
    # np.round(nan).astype(int) is the least int64, which is no multiplicity
    raw = np.array([[1.0, 0.0], [np.nan, 2.0]])
    with pytest.raises(ConsistencyError, match="non-integer entry"):
        characters._round_int_rows(raw, "induction matrix")


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
    for its H3.  H3 goes through Dixon; its entries check the type store's
    map of one stored build onto every numbering."""
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
    # the Murnaghan-Nakayama tables of types A and B, and H3's table mapped
    # from the type store, on every orientation of every such parabolic
    rings = RepRingCache(order_cap=46080)
    w, subsets = _dixon_orientations(rows)
    labels = {t: classify_subset(w, t)[0] for t in subsets}
    closed = [t for t in subsets if labels[t].family in ("A", "B") or labels[t].name == "H3"]
    assert closed
    for t in closed:
        _assert_fresh_dixon(rings, w, t, (name, t))


_PHI = (1 + 5**0.5) / 2
# A5 on its classes 1, (12)(34), (123), 5A, 5B: their sizes, element orders and characters
_A5_CLASSES = [(1, 1), (15, 2), (20, 3), (12, 5), (12, 5)]
_A5_TABLE = [
    [1, 1, 1, 1, 1],
    [3, -1, 0, _PHI, 1 - _PHI],
    [3, -1, 0, 1 - _PHI, _PHI],
    [4, 0, 1, -1, -1],
    [5, 1, -1, 0, 0],
]


def _reflection_image(w, word):
    """A word's matrix in the reflection representation, where s_i(v) =
    v - 2 B(a_i, v) a_i for the cosine form B."""
    b = cosine_matrix(w, w.generators)
    element = np.eye(w.rank)
    for s in word:
        reflection = np.eye(w.rank)
        reflection[s] -= 2 * b[s]
        element = element @ reflection
    return element


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_h3_table_is_a5_times_c2(perm):
    # W(H3) = A5 x <w0> with w0 = -1 of odd length, so a class is an A5
    # class times w0^e, e the parity of its length: the A5 class's size,
    # and its element order, doubled if odd when e = 1.  That places every
    # class but the two of 5-cycles in each parity.  Their trace in the
    # reflection representation is +-phi or +-(phi - 1), and w0 only
    # negates it, so |trace| > 1 is 5A in both parities; exchanging 5A
    # and 5B exchanges the two rows of degree 3, which row order allows.
    h3 = _line([5, 3])
    w = parse_matrix([[h3[i][j] for j in perm] for i in perm])
    table = RepRingCache().table(w, w.generators)
    candidates = {}
    for a, (size, order) in enumerate(_A5_CLASSES):
        for e in (0, 1):
            doubled = 2 * order if e and order % 2 else order
            candidates.setdefault((size, doubled, e), []).append(a)
    columns, places = [], []
    for word, size in zip(table.class_words, table.class_sizes):
        element = _reflection_image(w, word)
        power, order = element, 1
        while not np.allclose(power, np.eye(3)):
            power, order = power @ element, order + 1
        key = (size, order, len(word) % 2)
        places.append(key)
        a5 = candidates.get(key, [None])
        columns.append((a5[0] if len(a5) == 1 else 3 + (abs(np.trace(element)) < 1), key[2]))
    assert sorted(places) == sorted(key for key, a5 in candidates.items() for _ in a5)
    textbook = [[row[a] * (-1) ** (e * j) for a, e in columns] for j in (0, 1) for row in _A5_TABLE]
    assert sorted(np.round(textbook, 6).tolist()) == sorted(np.round(table.values, 6).tolist())


def _counting_dixon(monkeypatch):
    """Count dixon_table calls: the list of the orders of their models."""
    calls = []
    build = characters.dixon_table

    def counting(model, classes):
        calls.append(model.order)
        return build(model, classes)

    monkeypatch.setattr(characters, "dixon_table", counting)
    return calls


def _dixon_builds(monkeypatch, rows):
    calls = _counting_dixon(monkeypatch)
    run_analysis(parse_matrix(rows), RepRingCache())
    return sorted(calls)


def test_one_dixon_build_per_type(monkeypatch):
    # types A and B never reach Dixon: affine A3 has four A3, affine A5 six
    # each of A5, A4 and A3, rank5-334inf A3, B3 and B4, affine C3 B3
    for name in ("affine-A3", "affine-A5", "rank5-334inf", "affine-C3"):
        assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS[name]) == [], name
    # the two H3 orientations of 5-3-5 (5-3 and 3-5) share one build, as do
    # those of 3-5-3, and 4-3-5 has one H3 beside its B3
    for name in ("hyperbolic-535", "hyperbolic-435", "hyperbolic-353"):
        assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS[name]) == [120], name
    # the four D4 orientations of affine D4 share one build, as do the two
    # H4 and the two H3 of 5-3-3-5, and F4 has one
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["affine-D4"]) == [192]
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["lanner-5335"]) == [120, 14400]
    assert _dixon_builds(monkeypatch, _TYPE_STORE_SYSTEMS["affine-F4"]) == [1152]


def test_h3_times_h3_shares_one_dixon_build(monkeypatch):
    # the second factor read as 3-5: |W| = 14,400, the default order cap
    h3, reversed_h3 = _line([5, 3]), _line([3, 5])
    rows = [[1 if i == j else 2 for j in range(6)] for i in range(6)]
    for i, j in itertools.product(range(3), repeat=2):
        rows[i][j], rows[3 + i][3 + j] = h3[i][j], reversed_h3[i][j]
    calls = _counting_dixon(monkeypatch)
    report, _, code = run_analysis(parse_matrix(rows), RepRingCache())
    assert code == 0
    h0 = {"0": {"free_rank": 100, "torsion": []}}
    routes = ("closed:finite", "kunneth", "chain")
    assert report["methods"] == {name: {"homology": h0} for name in routes}
    assert calls == [120]


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


def test_dixon_refuses_a_group_that_is_not_real():
    # the cyclic group C3 = <g> is no Coxeter group: g and g^2 are not
    # conjugate, so its class sums are not self-adjoint and its characters
    # are not real
    right = np.array([[1], [2], [0]], dtype=np.int32)
    model = GroupModel(order=3, letter=np.zeros(3, dtype=np.int32), right=right, left=right)
    classes = ConjugacyClasses(
        reps=[0, 1, 2],
        rep_words=[(), (0,), (0, 0)],
        sizes=[1, 1, 1],
        class_of=np.arange(3, dtype=np.int32),
    )
    with pytest.raises(ConsistencyError, match="not closed under inversion"):
        dixon_table(model, classes)

