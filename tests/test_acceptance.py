"""Acceptance gate: eleven end-to-end criteria with stated time bounds.

Each test prints exactly one PASS/FAIL line (visible under pytest -s).
All equalities are integer-exact; elapsed time is asserted against the
per-criterion budget, which is generous enough for slow machines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from bredon.abelian import FgAbGroup, HomologyProfile
from bredon.chains import assemble_complex, cell_pair_homology
from bredon.characters import RepRingCache, induction_matrix
from bredon.coxeter import (
    enumerate_spherical,
    parse_matrix,
    spherical_order,
)
from bredon.formulas import (
    dihedral_class_count,
    even_homology,
    k_homology,
    kunneth_product,
    lowrank_catalog,
    right_angled_homology,
)
from bredon.groups import conjugacy_classes, realize_group
from bredon.snf import IntMatrix, smith_normal_form
from oracles import (
    cubical_complex,
    is_zero,
    matmul,
    numeric_finiteness_check,
    odd_dihedral_cell_formula,
    relative_cell_formula,
    relative_complex,
    restriction_matrix,
)


@pytest.fixture(scope="module")
def rings():
    return RepRingCache()


@contextmanager
def criterion(number, label, bound_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= bound_seconds:
        print(
            f"FAIL criterion {number}: {label} "
            f"took {elapsed:.2f}s, budget {bound_seconds}s"
        )
        raise AssertionError(f"criterion {number} exceeded {bound_seconds}s")
    print(
        f"PASS criterion {number}: {label} "
        f"({elapsed:.2f}s, budget {bound_seconds}s)"
    )


def free(n):
    return FgAbGroup.free(n)


def test_criterion_1_infinite_dihedral(rings):
    with criterion(1, "infinite dihedral collapses to three copies of Z", 1.0):
        w = parse_matrix([[1, 0], [0, 1]])
        prof = assemble_complex(w, rings).homology()
        assert prof.group_at(0) == free(3)
        assert prof.max_degree == 0
        verdict = k_homology(prof)
        assert verdict.decided
        assert verdict.k0 == free(3) and verdict.k1 == free(0)


def test_criterion_2_all_odd_triangle(rings):
    with criterion(2, "triangle group (3,3,3) has H_0 = Z^5 and H_1 = Z", 5.0):
        w = parse_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        prof = assemble_complex(w, rings).homology()
        assert prof.group_at(0) == free(5)
        assert prof.group_at(1) == free(1)
        assert prof.max_degree == 1
        # the degree-0 rank is the sum of edge dihedral class counts minus 4
        assert 5 == 3 * dihedral_class_count(3) - 4
        assert k_homology(prof).k1 == free(1)


def test_criterion_3_even_triangle_three_ways(rings):
    with criterion(3, "triangle group (2,4,4) gives Z^9 by three routes", 5.0):
        w = parse_matrix([[1, 2, 4], [2, 1, 4], [4, 4, 1]])
        want = HomologyProfile({0: free(9)})
        assert assemble_complex(w, rings).homology() == want
        assert even_homology(w) == want
        assert lowrank_catalog(w, enumerate_spherical(w).full_order, rings) == want
        # both closed-form counts evaluate to 9
        assert dihedral_class_count(2) + 2 * dihedral_class_count(4) - 5 == 9
        poset = enumerate_spherical(w)
        half_products = []
        for t in poset.subsets:
            prod = 1
            for i, j in combinations(t, 2):
                prod *= int(w.entry(i, j)) // 2
            half_products.append(prod)
        assert sum(half_products) == 9


def test_criterion_4_mixed_triangle_with_infinity(rings):
    with criterion(4, "triangle group (3,4,inf) gives Z^6 in degree 0", 5.0):
        w = parse_matrix([[1, 3, 0], [3, 1, 4], [0, 4, 1]])
        prof = assemble_complex(w, rings).homology()
        assert prof.group_at(0) == free(6)
        assert prof.max_degree == 0
        assert dihedral_class_count(3) + dihedral_class_count(4) - 2 == 6


def test_criterion_5_all_infinite_triangle(rings):
    with criterion(5, "triangle group (inf,inf,inf) gives Z^4", 1.0):
        w = parse_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        prof = assemble_complex(w, rings).homology()
        assert prof == HomologyProfile({0: free(4)})


def test_criterion_6_rank2_cell_pairs(rings):
    with criterion(6, "rank-2 cell pairs match their closed formulas", 4.0):
        expected = {
            4: HomologyProfile({0: free(2)}),
            6: HomologyProfile({0: free(3)}),
            3: HomologyProfile({0: free(1), 1: free(1)}),
            5: HomologyProfile({0: free(2), 1: free(1)}),
        }
        for m, want in expected.items():
            each_start = time.perf_counter()
            w = parse_matrix([[1, m], [m, 1]])
            chain = cell_pair_homology(w, (0, 1), rings)
            closed = (
                relative_cell_formula(w, (0, 1))
                if m % 2 == 0
                else odd_dihedral_cell_formula(m)
            )
            assert chain == want and closed == want, m
            assert time.perf_counter() - each_start < 1.0, m


def test_criterion_7_right_angled_path(rings):
    with criterion(7, "right-angled path on three generators gives Z^6", 1.0):
        w = parse_matrix([[1, 2, 0], [2, 1, 2], [0, 2, 1]])
        want = HomologyProfile({0: free(6)})
        assert assemble_complex(w, rings).homology() == want
        assert right_angled_homology(w) == want


def test_criterion_8_product_three_ways(rings):
    with criterion(8, "product of two infinite dihedrals gives Z^9", 5.0):
        rows = [[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]
        w = parse_matrix(rows)
        want = HomologyProfile({0: free(9)})
        assert assemble_complex(w, rings).homology() == want
        assert even_homology(w) == want
        factor = HomologyProfile({0: free(3)})
        assert kunneth_product(factor, factor) == want


def test_criterion_9_finite_group_class_count(rings):
    with criterion(9, "order-120 system: H_0 rank equals the class count", 60.0):
        w = parse_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
        table = rings.table(w, w.generators)  # H3: the dixon_table path
        model = realize_group(w)
        assert model.order == 120
        oracle = conjugacy_classes(model).count
        assert table.n_irreducibles == oracle == 10
        prof = assemble_complex(w, rings).homology()
        assert prof == HomologyProfile({0: free(oracle)})


def test_criterion_10_random_matrix_property_suite(rings):
    with criterion(10, "property suite over 25 random systems of rank <= 4", 600.0):
        rng = random.Random(65537)
        labels = [2, 3, 4, 5, 6, 0]
        seen_tables = set()
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [[1] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice(labels)
            w = parse_matrix(rows)

            # classification agrees with the numeric criterion on all subsets
            for r in range(n + 1):
                for t in combinations(range(n), r):
                    exact = spherical_order(w, t) is not None
                    assert numeric_finiteness_check(w, t) == exact, (rows, t)

            # the Morse and the cubical boundary maps compose to zero
            cubical = cubical_complex(w, rings)
            for cx in (assemble_complex(w, rings), cubical):
                for k in range(1, cx.top_dimension):
                    assert is_zero(matmul(cx.differentials[k], cx.differentials[k + 1])), rows

            # skeleton decomposition holds degree by degree
            poset = enumerate_spherical(w)
            for skel_rank in range(1, n + 1):
                rel = relative_complex(cubical, skel_rank)
                level = (
                    poset.by_rank[skel_rank]
                    if skel_rank < len(poset.by_rank)
                    else []
                )
                combined = {}
                for t in level:
                    part = cell_pair_homology(w, t, rings)
                    for d, g in part.groups.items():
                        combined[d] = combined.get(d, free(0)).direct_sum(g)
                assert rel.homology() == HomologyProfile(combined), (rows, skel_rank)

            # orthogonality and reciprocity for the subgroups encountered
            for t in poset.subsets:
                key = w.submatrix(t).m
                if key not in seen_tables:
                    seen_tables.add(key)
                    rings.table(w, t).validate()
            pairs = [
                (t1, t2)
                for t1 in poset.subsets
                for t2 in poset.subsets
                if set(t1) < set(t2)
            ]
            rng.shuffle(pairs)
            for t1, t2 in pairs[:3]:
                sub, big = rings.table(w, t1), rings.table(w, t2)
                emb = rings.embedding(w, t1, t2)
                ind = induction_matrix(sub, big, emb)
                assert ind == restriction_matrix(sub, big, emb), (rows, t1, t2)


def exact_det(rows, row_idx, col_idx):
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
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    return int(det)


def test_criterion_11_snf_minor_gcd_oracle():
    with criterion(11, "SNF diagonal matches the minor-gcd oracle", 30.0):
        rng = random.Random(31415)
        for _ in range(100):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            res = smith_normal_form(IntMatrix.from_rows(rows))
            prefix = 1
            for k in range(1, 6):
                g = 0
                for ri in combinations(range(5), k):
                    for ci in combinations(range(5), k):
                        g = math.gcd(g, abs(exact_det(rows, ri, ci)))
                if k <= res.rank:
                    prefix *= res.diagonal[k - 1]
                    assert prefix == g, rows
                else:
                    assert g == 0, rows
