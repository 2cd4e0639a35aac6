"""Bredon homology and equivariant K-theory of Coxeter groups.

The package takes a Coxeter matrix, enumerates the spherical subsets,
builds the character tables of their finite parabolics and the induction
maps between them, assembles the Bredon chain complex of the Davis
complex's cubical cells with representation-ring coefficients, and
computes its homology exactly.
Closed-form theorems (finite, right-angled, even, low-rank, Kunneth)
provide independent cross-checks, and when the Atiyah-Hirzebruch
spectral sequence must collapse the equivariant K-homology and the
K-theory of the reduced group C*-algebra are read off via Baum-Connes.
"""

from .abelian import FgAbGroup, HomologyProfile
from .chains import (
    BredonComplex,
    assemble_complex,
    build_cells,
    cell_pair_homology,
)
from .characters import (
    CharacterTable,
    RepRingCache,
    dihedral_table,
    dixon_table,
    induction_matrix,
    tensor_table,
)
from .coxeter import (
    CoxeterMatrix,
    SphericalPoset,
    classify_irreducible,
    classify_subset,
    components,
    enumerate_spherical,
    parse_matrix,
    spherical_order,
)
from .errors import (
    BredonError,
    ConsistencyError,
    ContractError,
    MatrixError,
    ResourceCapError,
)
from .formulas import (
    KTheoryVerdict,
    applicable_closed_forms,
    closed_form_homology,
    dihedral_class_count,
    even_homology,
    finite_homology,
    k_homology,
    kunneth_product,
    lowrank_catalog,
    right_angled_homology,
)
from .groups import GroupModel, conjugacy_classes, realize_group
from .snf import IntMatrix, homology_at, smith_normal_form

__version__ = "0.1.0"
