"""Closed-form homology, Kunneth assembly, and the K-theory verdict."""

import pytest

from bredon.abelian import FgAbGroup, HomologyProfile
from bredon.chains import assemble_complex, cell_pair_homology
from bredon.characters import RepRingCache
from bredon.coxeter import enumerate_spherical, parse_matrix
from bredon.errors import ContractError
from bredon.formulas import (
    applicable_closed_forms,
    closed_form_homology,
    diagram_factors,
    dihedral_class_count,
    even_homology,
    finite_homology,
    k_homology,
    kunneth_product,
    lowrank_catalog,
    right_angled_homology,
)
from oracles import odd_dihedral_cell_formula, relative_cell_formula


@pytest.fixture(scope="module")
def rings():
    return RepRingCache()


def test_dihedral_class_count_formula():
    # against the parity-split closed form
    assert [dihedral_class_count(m) for m in range(2, 9)] == [4, 3, 5, 4, 6, 5, 7]


def test_finite_homology_is_class_count(rings):
    w = parse_matrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    prof = finite_homology(w, enumerate_spherical(w).full_order, rings)
    assert prof.group_at(0) == FgAbGroup.free(10)
    assert prof.max_degree == 0


def test_right_angled_counts_spherical_subsets(rings):
    w = parse_matrix(
        [[1, 2, 0, 0], [2, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]]
    )
    prof = right_angled_homology(w)
    assert prof.group_at(0) == FgAbGroup.free(8)
    # cross-check with the chain route
    assert assemble_complex(w, rings).homology() == prof


def test_even_formula_on_mixed_labels(rings):
    w = parse_matrix([[1, 2, 4], [2, 1, 4], [4, 4, 1]])
    prof = even_homology(w)
    assert prof.group_at(0) == FgAbGroup.free(9)
    assert assemble_complex(w, rings).homology() == prof


def test_even_requires_even_labels():
    w = parse_matrix([[1, 3], [3, 1]])
    with pytest.raises(ContractError):
        even_homology(w)


def test_relative_cell_formula_matches_chain_pair(rings):
    for m in (2, 4, 6, 8):
        w = parse_matrix([[1, m], [m, 1]])
        closed = relative_cell_formula(w, (0, 1))
        chain = cell_pair_homology(w, (0, 1), rings)
        assert closed == chain


def test_odd_cell_formula_matches_chain_pair(rings):
    for m in (3, 5, 7):
        w = parse_matrix([[1, m], [m, 1]])
        closed = odd_dihedral_cell_formula(m)
        chain = cell_pair_homology(w, (0, 1), rings)
        assert closed == chain


def test_lowrank_triangle_catalog(rings):
    cases = [
        ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], {0: 5, 1: 1}),
        ([[1, 2, 4], [2, 1, 4], [4, 4, 1]], {0: 9}),
        ([[1, 2, 3], [2, 1, 6], [3, 6, 1]], {0: 8}),
        ([[1, 3, 5], [3, 1, 5], [5, 5, 1]], {0: 7, 1: 1}),
        ([[1, 3, 0], [3, 1, 4], [0, 4, 1]], {0: 6}),
        ([[1, 3, 0], [3, 1, 0], [0, 0, 1]], {0: 4}),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], {0: 4}),
    ]
    for rows, expected in cases:
        w = parse_matrix(rows)
        prof = lowrank_catalog(w, enumerate_spherical(w).full_order, rings)
        want = HomologyProfile(
            {d: FgAbGroup.free(r) for d, r in expected.items()}
        )
        assert prof == want
        assert assemble_complex(w, rings).homology() == want


def test_kunneth_free_parts():
    a = HomologyProfile({0: FgAbGroup.free(3)})
    b = HomologyProfile({0: FgAbGroup.free(3)})
    assert kunneth_product(a, b).group_at(0) == FgAbGroup.free(9)

    c = HomologyProfile({0: FgAbGroup.free(5), 1: FgAbGroup.free(1)})
    prod = kunneth_product(c, c)
    assert prod.group_at(0) == FgAbGroup.free(25)
    assert prod.group_at(1) == FgAbGroup.free(10)
    assert prod.group_at(2) == FgAbGroup.free(1)


def test_kunneth_with_torsion():
    # Tor(Z/2, Z/4) = Z/2 lands one degree up
    a = HomologyProfile({0: FgAbGroup.from_factors(0, [2])})
    b = HomologyProfile({0: FgAbGroup.from_factors(0, [4])})
    prod = kunneth_product(a, b)
    assert prod.group_at(0) == FgAbGroup.from_factors(0, [2])
    assert prod.group_at(1) == FgAbGroup.from_factors(0, [2])


def test_kunneth_matches_chain_on_product_system(rings):
    # D-infinity x D-infinity assembled two ways
    w = parse_matrix(
        [[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]
    )
    factors = diagram_factors(w)
    assert len(factors) == 2
    dinf = parse_matrix([[1, 0], [0, 1]])
    part = assemble_complex(dinf, rings).homology()
    assert kunneth_product(part, part) == assemble_complex(w, rings).homology()


def test_diagram_factors():
    w = parse_matrix([[1, 2, 2], [2, 1, 4], [2, 4, 1]])
    assert diagram_factors(w) == [(0,), (1, 2)]
    connected = parse_matrix([[1, 3], [3, 1]])
    assert diagram_factors(connected) == [(0, 1)]


def test_applicable_closed_forms():
    w = parse_matrix([[1, 0], [0, 1]])
    names = applicable_closed_forms(w, enumerate_spherical(w).full_order)
    assert "right-angled" in names and "even" in names and "low-rank" in names
    assert "finite" not in names
    h3 = parse_matrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    assert "finite" in applicable_closed_forms(h3, enumerate_spherical(h3).full_order)
    generic = parse_matrix(
        [[1, 3, 5, 2], [3, 1, 0, 3], [5, 0, 1, 3], [2, 3, 3, 1]]
    )
    assert applicable_closed_forms(generic, enumerate_spherical(generic).full_order) == []


def test_closed_form_dispatch_rejects_unknown(rings):
    w = parse_matrix([[1, 0], [0, 1]])
    with pytest.raises(ContractError):
        closed_form_homology(w, "mystery", enumerate_spherical(w), rings)


def test_k_theory_collapse():
    prof = HomologyProfile({0: FgAbGroup.free(9)})
    verdict = k_homology(prof)
    assert verdict.decided
    assert verdict.k0 == FgAbGroup.free(9)
    assert verdict.k1 == FgAbGroup.free(0)
    assert "Baum-Connes" in verdict.note

    prof2 = HomologyProfile({0: FgAbGroup.free(5), 1: FgAbGroup.free(1)})
    verdict2 = k_homology(prof2)
    assert verdict2.decided
    assert verdict2.k1 == FgAbGroup.free(1)


def test_k_theory_undecided_with_torsion_above_degree_one():
    for groups in (
        {0: FgAbGroup.free(1), 1: FgAbGroup(0, (2,)), 3: FgAbGroup.free(1)},
        {0: FgAbGroup.free(1), 2: FgAbGroup(1, (3,))},
    ):
        verdict = k_homology(HomologyProfile(groups))
        assert not verdict.decided
        assert verdict.k0 is None
        assert verdict.obstructions == {d: g for d, g in groups.items() if d >= 2}
    assert verdict.rational_ranks == (2, 0)


def test_k_theory_torsion_free_collapse(rings):
    # affine D4: H_0 = Z^32, H_2 = Z, so K_0 = Z^33 and K_1 = 0
    rows = [[1 if i == j else 2 for j in range(5)] for i in range(5)]
    for i, j in ((0, 2), (1, 2), (2, 3), (2, 4)):
        rows[i][j] = rows[j][i] = 3
    verdict = k_homology(assemble_complex(parse_matrix(rows), rings).homology())
    assert verdict.decided
    assert (verdict.k0, verdict.k1) == (FgAbGroup.free(33), FgAbGroup.free(0))
    assert "torsion-free" in verdict.note and "Baum-Connes" in verdict.note

    verdict = k_homology(
        HomologyProfile({d: FgAbGroup.free(d + 1) for d in range(5)})
    )
    assert (verdict.k0, verdict.k1) == (FgAbGroup.free(9), FgAbGroup.free(6))


def test_k_theory_collapse_below_degree_three():
    # torsion in H_1 is allowed once nothing survives above degree 2
    prof = HomologyProfile(
        {0: FgAbGroup.free(3), 1: FgAbGroup(1, (2,)), 2: FgAbGroup.free(2)}
    )
    verdict = k_homology(prof)
    assert verdict.decided
    assert verdict.k0 == FgAbGroup.free(5)
    assert verdict.k1 == FgAbGroup(1, (2,))
    assert "H_p = 0 for p >= 3" in verdict.note


def test_k_theory_json_shape():
    prof = HomologyProfile({0: FgAbGroup.free(2)})
    data = k_homology(prof).to_json()
    assert data["decided"] is True
    assert data["K0"] == {"free_rank": 2, "torsion": []}
    undecided = k_homology(
        HomologyProfile({1: FgAbGroup(0, (2,)), 3: FgAbGroup.free(1)})
    ).to_json()
    assert undecided["decided"] is False
    assert undecided["higher_homology"] == {"3": {"free_rank": 1, "torsion": []}}
    assert undecided["rational_ranks"] == {"K0": 0, "K1": 1}
