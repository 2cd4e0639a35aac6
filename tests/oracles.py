"""Independent oracles the tests check the library against.

Each computes a library answer by a second route that no part of the
pipeline uses: restriction for induction, leading principal minors for
the diagram classification, products and inverses by words for the
Cayley tables, the full cubical complex for the Morse complex the chain
route reduces, the closed forms of single cell pairs for the cubical
complex, and full sparse products and dense copies of integer matrices.
"""

from itertools import accumulate, combinations

import numpy as np

from bredon.abelian import FgAbGroup, HomologyProfile
from bredon.chains import BredonComplex, boundary, build_cells
from bredon.characters import CharacterTable, _round_int_rows
from bredon.coxeter import (
    CoxeterMatrix,
    _check_subset,
    canonical_subset,
    cosine_matrix,
    enumerate_spherical,
    spherical_order,
)
from bredon.errors import ConsistencyError, ContractError
from bredon.formulas import _half_label_product
from bredon.groups import GroupModel
from bredon.snf import IntMatrix

# tolerance for the floating-point positive-definiteness oracle
MINOR_TOL = 1.0e-9


def restriction_matrix(
    sub: CharacterTable, big: CharacterTable, embedding: list[int]
) -> IntMatrix:
    """Multiplicities of sub irreducibles in restricted big irreducibles.

    By Frobenius reciprocity this equals induction_matrix on the same
    data, but it is computed by the independent route (evaluate big
    characters on sub classes, then decompose), which makes it the test
    oracle for induction.
    """
    rest_vals = big.values[:, embedding]
    sizes = np.array(sub.class_sizes, dtype=float)
    raw = (rest_vals * sizes) @ sub.values.conj().T / sub.order
    rows = _round_int_rows(raw, "restriction matrix")
    for i in range(big.n_irreducibles):
        total = sum(rows[i][j] * sub.degrees[j] for j in range(sub.n_irreducibles))
        if total != big.degrees[i]:
            raise ConsistencyError("restricted degree mismatch")
    return IntMatrix.from_rows(rows)


def numeric_finiteness_check(w: CoxeterMatrix, t, tol: float = MINOR_TOL) -> bool:
    """Positive-definiteness of the cosine form, decided by leading
    principal minors with a floating-point tolerance.

    This is the numeric oracle for finiteness of W_T; the exact route is
    the diagram classification.  Minors within tol of zero count as
    degenerate (affine diagrams land there), so the answer is False.
    """
    t = canonical_subset(t)
    _check_subset(w, t)
    if not t:
        return True
    b = cosine_matrix(w, t)
    for k in range(1, len(t) + 1):
        if np.linalg.det(b[:k, :k]) <= tol:
            return False
    return True


def gen_elements(g: GroupModel) -> tuple[int, ...]:
    """Element indices of the generators s_0 .. s_{rank-1}."""
    return tuple(g.right[0].tolist())


def mult(g: GroupModel, i: int, j: int) -> int:
    """Index of element i . j (i applied after j): j's word walked along
    the right Cayley table from i."""
    for s in g.word(j):
        i = g.right[i, s]
    return int(i)


def inverses(g: GroupModel) -> np.ndarray:
    """x^-1 for every element x: x's word read backwards, walked along the
    right Cayley table from the identity.  The generators are involutions,
    so the reversed word is a word of x^-1."""
    inv = np.zeros(g.order, dtype=np.int32)
    rest = np.arange(g.order)  # x with the letters walked so far stripped
    while rest.any():
        live = rest != 0
        s = g.letter[rest]
        inv = np.where(live, g.right[inv, s], inv)
        rest = np.where(live, g.right[rest, s], 0)
    return inv


def dense(a: IntMatrix) -> list[list[int]]:
    """The dense rows of a sparse matrix."""
    out = [[0] * a.ncols for _ in range(a.nrows)]
    for row, entries in zip(out, a.rows):
        for j, v in entries:
            row[j] = v
    return out


def is_zero(a: IntMatrix) -> bool:
    return not any(a.rows)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The sparse product a . b, every row accumulated and kept."""
    if a.ncols != b.nrows:
        raise ContractError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    out = []
    for row in a.rows:
        acc: dict[int, int] = {}
        for k, x in row:
            for j, y in b.rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(sorted((j, v) for j, v in acc.items() if v))
    return IntMatrix(a.nrows, b.ncols, out)


def relative_cell_formula(w: CoxeterMatrix, t) -> HomologyProfile:
    """Homology of an even spherical cell modulo its boundary.

    For even spherical T the pair contributes Z^(prod m_ij / 2) in degree
    0 and nothing above.
    """
    t = canonical_subset(t)
    if spherical_order(w, t) is None:
        raise ContractError(f"subset {t} is not spherical")
    for i, j in combinations(t, 2):
        if int(w.entry(i, j)) % 2:
            raise ContractError("even-cell formula needs all labels even")
    return HomologyProfile({0: FgAbGroup.free(_half_label_product(w, t))})


def odd_dihedral_cell_formula(m: int) -> HomologyProfile:
    """The odd dihedral cell pair: H_0 = Z^((m-1)/2), H_1 = Z."""
    if m < 3 or m % 2 == 0:
        raise ContractError("odd dihedral cell needs an odd label >= 3")
    return HomologyProfile({0: FgAbGroup.free((m - 1) // 2), 1: FgAbGroup.free(1)})


def submatrix(a: IntMatrix, row_ids: list[int], col_ids: list[int]) -> IntMatrix:
    """The rows row_ids and columns col_ids of a, both increasing,
    renumbered from 0."""
    new_col = {c: n for n, c in enumerate(col_ids)}
    rows = [[(new_col[c], v) for c, v in a.rows[r] if c in new_col] for r in row_ids]
    return IntMatrix(len(row_ids), len(col_ids), rows)


def _offsets(block_ranks: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(offsets, dims) of blocks laid out side by side in each level."""
    offsets = [list(accumulate(level, initial=0))[:-1] for level in block_ranks]
    return offsets, [sum(level) for level in block_ranks]


def cubical_complex(w: CoxeterMatrix, rings, poset=None) -> BredonComplex:
    """Every cubical cell [T, U] of w and the full differentials of
    `boundary`: each induction face's block written from the induction
    matrix, each identity face's block as +-I.  Block ranks are the class
    counts of W_T (order cap applies)."""
    if poset is None:
        poset = enumerate_spherical(w)
    cells = build_cells(poset)
    rank_of = {t: rings.table(w, t).n_classes for t in poset.subsets}
    block_ranks = [[rank_of[t] for t, _ in level] for level in cells]
    offsets, dims = _offsets(block_ranks)

    offset_of = [dict(zip(level, starts)) for level, starts in zip(cells, offsets)]
    inductions: dict = {}  # keyed by (T, T + s)
    differentials = [IntMatrix.zero(0, dims[0])]
    for d in range(1, len(cells)):
        rows: list[list[tuple[int, int]]] = [[] for _ in range(dims[d - 1])]
        for ci, cell in enumerate(cells[d]):
            col0 = offsets[d][ci]
            for face, sign, kind in boundary(cell):
                row0 = offset_of[d - 1][face]
                if kind == "identity":
                    for j in range(block_ranks[d][ci]):
                        rows[row0 + j].append((col0 + j, sign))
                    continue
                pair = (cell[0], face[0])
                if pair not in inductions:
                    inductions[pair] = rings.induction(w, *pair)
                for r, brow in enumerate(inductions[pair].rows):
                    rows[row0 + r].extend((col0 + j, sign * v) for j, v in brow)
        differentials.append(IntMatrix(dims[d - 1], dims[d], rows))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)


def relative_complex(full: BredonComplex, n: int) -> BredonComplex:
    """Subquotient complex of the cells whose top subset has rank n (the
    U of a cubical cell [T, U], the last entry of a flag).

    Models the pair (rank-n skeleton, rank-(n-1) skeleton): faces whose
    top subset drops below rank n are projected away.
    """
    if n < 0:
        raise ContractError("rank must be non-negative")
    keep: list[list[int]] = []
    for level in full.cells:
        keep.append([ci for ci, cell in enumerate(level) if len(cell[-1]) == n])
    while keep and not keep[-1]:
        keep.pop()
    cells = [[full.cells[d][ci] for ci in keep[d]] for d in range(len(keep))]
    block_ranks = [
        [full.block_ranks[d][ci] for ci in keep[d]] for d in range(len(keep))
    ]
    offsets, dims = _offsets(block_ranks)
    coord_lists = []
    for d, kept in enumerate(keep):
        starts, ranks = full.offsets[d], full.block_ranks[d]
        coord_lists.append([c for ci in kept for c in range(starts[ci], starts[ci] + ranks[ci])])
    differentials = [IntMatrix.zero(0, dims[0] if dims else 0)]
    for d in range(1, len(keep)):
        differentials.append(submatrix(full.differentials[d], coord_lists[d - 1], coord_lists[d]))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)
