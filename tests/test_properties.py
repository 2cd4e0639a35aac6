"""Randomized structural invariants over a pool of small Coxeter matrices.

One seeded pool of matrices (rank <= 4, labels drawn from {2,3,4,5,6,inf})
feeds every test so the expensive realizations are shared through a
module-level representation-ring cache.
"""

import random

import pytest

import flag_oracle
from oracles import (
    cubical_complex,
    is_zero,
    matmul,
    numeric_finiteness_check,
    relative_complex,
    restriction_matrix,
)
from bredon.abelian import FgAbGroup, HomologyProfile
from bredon.chains import assemble_complex, cell_pair_homology
from bredon.characters import RepRingCache, induction_matrix
from bredon.coxeter import (
    enumerate_spherical,
    parse_matrix,
    spherical_order,
)
from bredon.formulas import (
    applicable_closed_forms,
    closed_form_homology,
    diagram_factors,
    k_homology,
    kunneth_product,
)

LABELS = [2, 3, 4, 5, 6, 0]  # 0 encodes the infinite label


def random_system(rng):
    n = rng.randint(1, 4)
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(LABELS)
    return parse_matrix(rows)


_RNG = random.Random(1729)
POOL = [random_system(_RNG) for _ in range(30)]


@pytest.fixture(scope="module")
def rings():
    return RepRingCache()


@pytest.fixture(scope="module")
def complexes(rings):
    return {i: assemble_complex(w, rings) for i, w in enumerate(POOL)}


def test_pool_is_deterministic():
    rng = random.Random(1729)
    again = [random_system(rng) for _ in range(30)]
    assert [w.m for w in again] == [w.m for w in POOL]


def test_boundary_squares_to_zero(complexes):
    for cx in complexes.values():
        for k in range(1, cx.top_dimension):
            assert is_zero(matmul(cx.differentials[k], cx.differentials[k + 1]))


def test_classification_matches_numeric_on_all_subsets():
    import itertools

    for w in POOL:
        for r in range(w.rank + 1):
            for t in itertools.combinations(range(w.rank), r):
                exact = spherical_order(w, t) is not None
                assert numeric_finiteness_check(w, t) == exact, (w.m, t)


def test_skeleton_decomposition_degree_by_degree(rings):
    # the cubical skeleton pairs split over U into cell pairs, and their
    # homology is that of the flag complex's pairs, sliced by top entry
    for w in POOL:
        full = cubical_complex(w, rings)
        flag = flag_oracle.assemble_complex(w, rings)
        poset = enumerate_spherical(w)
        for n in range(1, w.rank + 1):
            rel = relative_complex(full, n)
            got = rel.homology()
            assert got == relative_complex(flag, n).homology(), (w.m, n)
            combined: dict[int, FgAbGroup] = {}
            level = poset.by_rank[n] if n < len(poset.by_rank) else []
            for t in level:
                part = cell_pair_homology(w, t, rings)
                for d, g in part.groups.items():
                    combined[d] = combined.get(d, FgAbGroup.free(0)).direct_sum(g)
            assert got == HomologyProfile(combined), (w.m, n)


def test_tables_validate_for_encountered_subgroups(rings):
    seen = set()
    for w in POOL:
        poset = enumerate_spherical(w)
        for t in poset.subsets:
            key = w.submatrix(t).m
            if key in seen:
                continue
            seen.add(key)
            rings.table(w, t).validate()
    assert len(seen) >= 5  # the pool covers a real variety of types


def test_frobenius_reciprocity_for_encountered_pairs(rings):
    rng = random.Random(40320)
    checked = 0
    for w in POOL:
        poset = enumerate_spherical(w)
        pairs = [
            (t1, t2)
            for t1 in poset.subsets
            for t2 in poset.subsets
            if set(t1) < set(t2)
        ]
        rng.shuffle(pairs)
        for t1, t2 in pairs[:4]:
            sub = rings.table(w, t1)
            big = rings.table(w, t2)
            emb = rings.embedding(w, t1, t2)
            assert induction_matrix(sub, big, emb) == restriction_matrix(
                sub, big, emb
            ), (w.m, t1, t2)
            checked += 1
    assert checked >= 25


def test_closed_forms_agree_with_chain(rings, complexes):
    compared = 0
    for i, w in enumerate(POOL):
        chain = complexes[i].homology()
        poset = enumerate_spherical(w)
        for name in applicable_closed_forms(w, poset.full_order):
            assert closed_form_homology(w, name, poset, rings) == chain, (w.m, name)
            compared += 1
    assert compared >= 10


def block_product(a, b):
    """Block-diagonal matrix of two systems: all cross labels are 2."""
    n, k = a.rank, b.rank
    rows = [[2] * (n + k) for _ in range(n + k)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = a.to_raw()[i][j]
    for i in range(k):
        for j in range(k):
            rows[n + i][n + j] = b.to_raw()[i][j]
    return parse_matrix(rows)


def test_kunneth_agrees_on_constructed_products(rings):
    small = [w for w in POOL if w.rank <= 2]
    assert len(small) >= 4
    compared = 0
    for a, b in zip(small, small[1:]):
        w = block_product(a, b)
        assert len(diagram_factors(w)) >= 2
        expected = kunneth_product(
            assemble_complex(a, rings).homology(),
            assemble_complex(b, rings).homology(),
        )
        assert assemble_complex(w, rings).homology() == expected, w.m
        compared += 1
    assert compared >= 3


def test_k_theory_verdict_consistency(complexes):
    for cx in complexes.values():
        prof = cx.homology()
        verdict = k_homology(prof)
        torsion_free = all(not g.torsion for g in prof.groups.values())
        low = prof.max_degree <= 1 or (
            prof.max_degree == 2 and not prof.group_at(2).torsion
        )
        assert verdict.decided == (torsion_free or low)
        if verdict.decided:
            even = [g for d, g in prof.groups.items() if d % 2 == 0]
            odd = [g for d, g in prof.groups.items() if d % 2]
            assert verdict.k0 == FgAbGroup().direct_sum(*even)
            assert verdict.k1 == FgAbGroup().direct_sum(*odd)


def test_homology_invariant_under_generator_relabeling(rings):
    rng = random.Random(9009)
    for w in POOL[:10]:
        n = w.rank
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[perm[i]][perm[j]] = w.to_raw()[i][j]
        relabeled = parse_matrix(rows)
        again = assemble_complex(relabeled, rings).homology()
        assert again == assemble_complex(w, rings).homology(), w.m
