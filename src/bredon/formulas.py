"""Closed-form Bredon homology and the passage to equivariant K-theory.

These are the theorem-backed shortcuts that bypass the chain complex:

* finite W: everything is one orbit, H_0 = Z^(number of conjugacy classes);
* right-angled W: H_0 = Z^(number of spherical subsets), rest zero;
* even W: H_0 free of rank sum over spherical T of prod m_ij / 2;
* rank <= 3: an explicit catalog in terms of dihedral class counts;
* products: the Kunneth formula glues profiles of commuting factors.

When the Atiyah-Hirzebruch spectral sequence from Bredon homology must
collapse (homology in degrees 0 and 1 only, every group torsion-free, or
nothing above degree 2 with H_2 free) the equivariant K-homology of the
classifying space for proper actions is read off directly, and the
Baum-Connes assembly map (an isomorphism for Coxeter groups, which have
the Haagerup property) identifies it with the K-theory of the reduced
group C*-algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import prod

from .abelian import FgAbGroup, HomologyProfile, TRIVIAL
from .characters import RepRingCache
from .coxeter import (
    INFINITE,
    CoxeterMatrix,
    SphericalPoset,
    components,
    enumerate_spherical,
)
from .errors import ContractError

BAUM_CONNES_NOTE = (
    "K_*(C*_r W) computed via the Baum-Connes assembly map, an isomorphism "
    "for Coxeter groups (they have the Haagerup property)"
)


def dihedral_class_count(m: int) -> int:
    """Number of conjugacy classes of the dihedral group of order 2m."""
    if m < 1:
        raise ContractError("dihedral parameter must be >= 1")
    return m // 2 + 3 if m % 2 == 0 else (m - 1) // 2 + 2


def finite_homology(w: CoxeterMatrix, order: int | None, rings: RepRingCache) -> HomologyProfile:
    """H_0 = Z^(class count of W) for finite W; higher degrees vanish.

    order is |W|, or None when W is infinite, as SphericalPoset.full_order
    gives it.  The class count comes from the conjugacy classes of W's
    realized Cayley graph, for every finite type, products, A1 and I2(m)
    included, not from the closed-form classes or the character tables
    the chain route uses, so this route stays independent of the chain
    assembly.
    """
    if order is None:
        raise ContractError("finite-group formula needs a finite system")
    count = rings.classes(w, w.generators).count
    return HomologyProfile({0: FgAbGroup.free(count)})


def right_angled_homology(
    w: CoxeterMatrix, poset: SphericalPoset | None = None
) -> HomologyProfile:
    """H_0 = Z^s with s the number of spherical subsets; rest zero."""
    if not w.is_right_angled():
        raise ContractError("right-angled formula needs all labels in {2, infinity}")
    if poset is None:
        poset = enumerate_spherical(w)
    return HomologyProfile({0: FgAbGroup.free(poset.size)})


def _half_label_product(w: CoxeterMatrix, t) -> int:
    """prod over pairs in the spherical subset t of m_ij / 2, whose labels
    are all finite.  Empty product is 1."""
    return prod(int(w.entry(i, j)) // 2 for i, j in combinations(t, 2))


def even_homology(
    w: CoxeterMatrix, poset: SphericalPoset | None = None
) -> HomologyProfile:
    """Even systems: H_0 free of rank sum_T prod_{i<j in T} m_ij / 2."""
    if not w.is_even():
        raise ContractError("even formula needs every finite label even")
    if poset is None:
        poset = enumerate_spherical(w)
    rank = sum(_half_label_product(w, t) for t in poset.subsets)
    return HomologyProfile({0: FgAbGroup.free(rank)})


def lowrank_catalog(w: CoxeterMatrix, order: int | None, rings: RepRingCache) -> HomologyProfile:
    """Catalog of all systems of rank at most 3; order is |W| or None, as
    for finite_homology.

    Rank 1 and 2 are finite or the infinite dihedral group; rank 3
    triangle groups Delta(p, q, r) split by how many labels are infinite,
    with class counts of the edge dihedrals carrying the answer.  All
    homology is concentrated in degree 0 except the hyperbolic/affine
    all-odd triangles, which add H_1 = Z.
    """
    n = w.rank
    if n > 3:
        raise ContractError("catalog covers rank <= 3 only")
    if order is not None:
        return finite_homology(w, order, rings)
    if n == 2:
        # infinite dihedral: R(C2) + R(C2) glued over R(1)
        return HomologyProfile({0: FgAbGroup.free(3)})
    labels = sorted(
        (w.entry(0, 1), w.entry(0, 2), w.entry(1, 2)), key=lambda v: float(v)
    )
    n_inf = sum(1 for v in labels if v == INFINITE)
    finite = [int(v) for v in labels if v != INFINITE]
    if n_inf == 3:
        return HomologyProfile({0: FgAbGroup.free(4)})
    if n_inf == 2:
        (p,) = finite
        return HomologyProfile({0: FgAbGroup.free(dihedral_class_count(p) + 1)})
    if n_inf == 1:
        p, q = finite
        rank0 = dihedral_class_count(p) + dihedral_class_count(q) - 2
        return HomologyProfile({0: FgAbGroup.free(rank0)})
    p, q, r = finite
    total = sum(dihedral_class_count(v) for v in (p, q, r))
    all_odd = all(v % 2 for v in (p, q, r))
    if all_odd:
        return HomologyProfile({0: FgAbGroup.free(total - 4), 1: FgAbGroup.free(1)})
    return HomologyProfile({0: FgAbGroup.free(total - 5)})


def kunneth_product(a: HomologyProfile, b: HomologyProfile) -> HomologyProfile:
    """Homology of a product from factor profiles.

    H_n = sum_{i+j=n} H_i (x) H_j  +  sum_{i+j=n-1} Tor(H_i, H_j).
    """
    groups: dict[int, FgAbGroup] = {}

    def add(degree: int, g: FgAbGroup) -> None:
        if not g.is_trivial:
            groups[degree] = groups.get(degree, TRIVIAL).direct_sum(g)

    for i, gi in a.groups.items():
        for j, gj in b.groups.items():
            add(i + j, gi.tensor(gj))
            add(i + j + 1, gi.tor(gj))
    return HomologyProfile(groups)


def diagram_factors(w: CoxeterMatrix) -> list[tuple[int, ...]]:
    """Connected components of the full diagram; W is their direct product
    exactly when there are at least two."""
    return components(w, w.generators)


@dataclass
class KTheoryVerdict:
    """Outcome of the passage from Bredon homology to K-theory.

    When k_homology decides it, k0 and k1 are the equivariant K-homology
    groups, which Baum-Connes transports to K_*(C*_r W), and the note
    names the rule used.  Otherwise the verdict carries the homology
    above degree 1 and the rational ranks (sum of rank H_even, sum of
    rank H_odd), which hold whatever the differentials are.
    """

    decided: bool
    k0: FgAbGroup | None = None
    k1: FgAbGroup | None = None
    obstructions: dict[int, FgAbGroup] = field(default_factory=dict)
    rational_ranks: tuple[int, int] | None = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {"decided": self.decided, "note": self.note}
        if self.decided:
            out["K0"] = self.k0.to_json()
            out["K1"] = self.k1.to_json()
        else:
            out["higher_homology"] = {
                str(d): g.to_json() for d, g in self.obstructions.items()
            }
            out["rational_ranks"] = dict(zip(("K0", "K1"), self.rational_ranks))
        return out


def k_homology(profile: HomologyProfile) -> KTheoryVerdict:
    """Read K-theory off a homology profile when the spectral sequence
    must collapse.

    The Atiyah-Hirzebruch spectral sequence has E^2_{p,q} = H_p for even
    q and 0 for odd q, so only d^3, d^5, ... can be nonzero, and Lueck's
    equivariant Chern character makes all of them vanish rationally.
    Three cases are decided:

    * H_p = 0 for p >= 2: K_0 = H_0, K_1 = H_1;
    * every H_p torsion-free: the differentials are rationally zero maps
      between free groups, hence zero, and the extensions have free
      quotients, so K_0 = sum H_{2i} and K_1 = sum H_{2i+1};
    * H_p = 0 for p >= 3 and H_2 free: d^3 has nowhere to go, K_1 = H_1,
      and K_0 is an extension of H_2 by H_0, which splits.
    """
    groups = profile.groups
    if profile.max_degree <= 1:
        return KTheoryVerdict(
            decided=True,
            k0=profile.group_at(0),
            k1=profile.group_at(1),
            note=BAUM_CONNES_NOTE,
        )
    even = [g for d, g in groups.items() if d % 2 == 0]
    odd = [g for d, g in groups.items() if d % 2]
    if all(not g.torsion for g in groups.values()):
        rule = (
            "every H_p is torsion-free, so the Atiyah-Hirzebruch spectral "
            "sequence collapses and splits: K_0 = sum H_2i, K_1 = sum H_2i+1"
        )
    elif profile.max_degree == 2 and not profile.group_at(2).torsion:
        rule = (
            "H_p = 0 for p >= 3, so the Atiyah-Hirzebruch spectral sequence "
            "collapses: K_1 = H_1 and K_0 = H_0 + H_2, split because H_2 is free"
        )
    else:
        return KTheoryVerdict(
            decided=False,
            obstructions={d: g for d, g in groups.items() if d >= 2},
            rational_ranks=(
                sum(g.free_rank for g in even),
                sum(g.free_rank for g in odd),
            ),
            note=(
                "homology survives above degree 1 and has torsion, so the "
                "spectral sequence may not collapse or split; its input and "
                "the rational ranks are reported instead of a K-theory answer"
            ),
        )
    return KTheoryVerdict(
        decided=True,
        k0=TRIVIAL.direct_sum(*even),
        k1=TRIVIAL.direct_sum(*odd),
        note=f"{rule}; {BAUM_CONNES_NOTE}",
    )


def applicable_closed_forms(w: CoxeterMatrix, order: int | None) -> list[str]:
    """Names of the closed-form routes that accept this system; order is
    |W| or None, as for finite_homology."""
    names = []
    if order is not None:
        names.append("finite")
    if w.is_right_angled():
        names.append("right-angled")
    if w.is_even():
        names.append("even")
    if w.rank <= 3:
        names.append("low-rank")
    return names


def closed_form_homology(
    w: CoxeterMatrix, name: str, poset: SphericalPoset, rings: RepRingCache
) -> HomologyProfile:
    """Dispatch one named closed form; poset is w's spherical poset."""
    if name == "finite":
        return finite_homology(w, poset.full_order, rings)
    if name == "right-angled":
        return right_angled_homology(w, poset)
    if name == "even":
        return even_homology(w, poset)
    if name == "low-rank":
        return lowrank_catalog(w, poset.full_order, rings)
    raise ContractError(f"unknown closed form {name!r}")
