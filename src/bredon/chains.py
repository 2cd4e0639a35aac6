"""The Bredon chain complex of the Davis complex, modulo the group action.

The chamber K = |S^f| has a cubical cell structure (Davis 2008) with one
cell per interval [T, U] of spherical subsets T <= U: the cube spanned by
the barycentres of the cells sigma_V with T <= V <= U, of dimension
|U - T|, which W_T fixes pointwise.  With U - T = {s_0 < ... < s_{d-1}},

    d[T, U] = sum_i (-1)^i ( ind [T + s_i, U]  -  [T, U - s_i] )

where the first face changes the stabilizer and contributes the
induction R(W_T) -> R(W_{T + s_i}), and the second keeps it and
contributes the identity of R(W_T) (`boundary`).  The Bredon chain
group in degree d is the direct sum of R_C(W_T) over the degree-d cells.
The chain route reduces this complex (`assemble_complex`) and the cell
dumps print it.  The cells [T', U] with U fixed are the cell pair of W_U
(its Coxeter cell modulo the boundary), so relative complexes and cell
pairs are sliced from it by the rank of U.

The cells [T, U] with a fixed bottom T form the dual cell of W_T, and
their identity faces are blocks +-I.  An acyclic matching of them
(`morse_matching`; Skoldberg 2006, algebraic Morse theory) pairs the
cells off, leaving for each T a copy of R(W_T) per critical face of the
link of T, whose chains carry the link's reduced homology;
`homology_at` takes the pairs as its Smith forms' first pivots.  For a
simplex group one cell per proper T is left: the faces of the chamber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations

from .abelian import HomologyProfile
from .characters import RepRingCache
from .coxeter import (
    CoxeterMatrix,
    SphericalPoset,
    canonical_subset,
    enumerate_spherical,
    spherical_order,
)
from .errors import ContractError
from .snf import IntMatrix, homology_at

Cell = tuple[tuple[int, ...], tuple[int, ...]]  # an interval (T, U), T <= U


def build_cells(poset: SphericalPoset) -> list[list[Cell]]:
    """All intervals (T, U) of spherical subsets T <= U, by dimension
    |U - T|; each dimension is sorted by (T, U)."""
    by_dim: list[list[Cell]] = [[] for _ in poset.by_rank]
    for u in poset.subsets:
        for k in range(len(u) + 1):
            by_dim[len(u) - k].extend((t, u) for t in combinations(u, k))
    for level in by_dim:
        level.sort()
    return by_dim


def boundary(cell: Cell) -> list[tuple[Cell, int, str]]:
    """(face, sign, kind) of each face of [T, U]: for the i-th generator
    s of U - T, the induction face [T + s, U] with sign (-1)^i, then the
    identity face [T, U - s] with the opposite sign."""
    t, u = cell
    out = []
    for i, s in enumerate(x for x in u if x not in t):
        sign = -1 if i % 2 else 1
        out.append(((tuple(sorted((*t, s))), u), sign, "induction"))
        out.append(((t, tuple(x for x in u if x != s)), -sign, "identity"))
    return out


def morse_matching(cells: list[list[Cell]]) -> list[tuple[Cell, Cell]]:
    """Pairs (face, cell) of cells [T, U] and [T, U + s] of one bottom T,
    which the identity face joins, forming an acyclic matching.

    For each bottom T the tops U form the link {V : T + V spherical}
    shifted by T; it is matched by element matchings, one generator s at
    a time in increasing order, each pairing U with U + s while both are
    still free.  Such a union is acyclic (Jonsson 2008), and the faces
    between different bottoms are inductions, which enlarge T, so the
    whole matching is.  Bottoms come in order of size, so a pair comes
    before those its cell's induction faces reach.
    """
    rank = sum(len(t) == 1 for t, _ in cells[0])  # every singleton is spherical
    mask = {u: sum(1 << x for x in u) for u, _ in cells[0]}
    tops: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}  # by bitmask
    for level in cells:
        for t, u in level:
            tops.setdefault(t, {})[mask[u]] = u
    pairs = []
    for t in sorted(tops, key=len):
        top_of = tops[t]
        free = set(top_of)
        for s in range(rank):
            if len(free) < 2:
                break
            bit = 1 << s
            step = sorted(m for m in free if not m & bit and m | bit in free)
            free.difference_update(step, [m | bit for m in step])
            pairs.extend(((t, top_of[m]), (t, top_of[m | bit])) for m in step)
    return pairs


def _layout(block_ranks: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """(offsets, dims): each level's blocks sit side by side, so a block's
    offset is the running sum of the ranks before it and the level's
    dimension is their total."""
    offsets, dims = [], []
    for level in block_ranks:
        sums = list(accumulate(level, initial=0))
        offsets.append(sums[:-1])
        dims.append(sums[-1])
    return offsets, dims


@dataclass
class BredonComplex:
    """Assembled chain complex: cells, coordinate layout, differentials.

    differentials[k] maps degree k to degree k-1 for k >= 1; index 0
    holds the zero map out of degree 0 so lengths line up.  block_ranks
    mirror the cell lists: cell ci of dimension d occupies
    block_ranks[d][ci] consecutive coordinates starting at
    offsets[d][ci].  matching[k] lists the (row, column) pairs of
    differentials[k] that homology cancels first; it is empty where no
    identity face is kept, as in relative complexes.
    """

    cells: list[list[Cell]]
    block_ranks: list[list[int]]
    offsets: list[list[int]]
    dims: list[int]
    differentials: list[IntMatrix]
    matching: list[list[tuple[int, int]]] = field(default_factory=list)

    @property
    def top_dimension(self) -> int:
        return len(self.cells) - 1

    def homology(self) -> HomologyProfile:
        return HomologyProfile(homology_at(self.differentials, self.top_dimension, self.matching))


def assemble_complex(
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset | None = None,
) -> BredonComplex:
    """Build the cells [T, U] and their differentials for w.

    Each block rank is the class count of W_T (order cap applies); the
    boundary uses only the codimension-one inductions W_T < W_{T + s}.
    """
    if poset is None:
        poset = enumerate_spherical(w)
    cells = build_cells(poset)
    rank_of = {t: rings.table(w, t).n_classes for t in poset.subsets}
    block_ranks = [[rank_of[t] for t, _ in level] for level in cells]
    offsets, dims = _layout(block_ranks)

    offset_of = [dict(zip(level, starts)) for level, starts in zip(cells, offsets)]
    inductions: dict[Cell, IntMatrix] = {}  # keyed by (T, T + s)
    differentials = [IntMatrix.zero(0, dims[0])]
    for d in range(1, len(cells)):
        # Cells are visited in column order and the faces of one cell are
        # distinct cells, so every row receives its entries sorted and no
        # entry is written twice.
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
    matching: list[list[tuple[int, int]]] = [[] for _ in cells]
    for face, cell in morse_matching(cells):
        d = len(cell[1]) - len(cell[0])
        row0, col0 = offset_of[d - 1][face], offset_of[d][cell]
        n = rank_of[cell[0]]
        matching[d].extend(zip(range(row0, row0 + n), range(col0, col0 + n)))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials, matching)


def relative_complex(full: BredonComplex, n: int) -> BredonComplex:
    """Subquotient complex of the cells [T, U] with |U| = n.

    Models the pair (rank-n skeleton, rank-(n-1) skeleton): faces whose
    top subset U drops below rank n are projected away.
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
    offsets, dims = _layout(block_ranks)
    coord_lists = []
    for d, kept in enumerate(keep):
        starts, ranks = full.offsets[d], full.block_ranks[d]
        coord_lists.append([c for ci in kept for c in range(starts[ci], starts[ci] + ranks[ci])])
    differentials = [IntMatrix.zero(0, dims[0] if dims else 0)]
    for d in range(1, len(keep)):
        differentials.append(
            full.differentials[d].submatrix(coord_lists[d - 1], coord_lists[d])
        )
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)


def cell_pair_homology(w: CoxeterMatrix, t, rings: RepRingCache) -> HomologyProfile:
    """Relative homology of one closed cell modulo its boundary.

    t must be spherical; the computation runs inside the subsystem on t,
    keeping only the cells [T', t].
    """
    t = canonical_subset(t)
    if spherical_order(w, t) is None:
        raise ContractError(f"subset {t} is not spherical")
    sub = w.submatrix(t)
    return relative_complex(assemble_complex(sub, rings), len(t)).homology()
