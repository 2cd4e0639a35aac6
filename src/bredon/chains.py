"""The Bredon chain complex of the Davis complex, modulo the group action.

Two cell structures on the chamber K = |S^f| give the same homology.

The cubical one (Davis 2008) has one cell per interval [T, U] of
spherical subsets T <= U; it is the cube spanned by the barycentres of
the cells sigma_V with T <= V <= U, of dimension |U - T|, and W_T fixes
it pointwise.  With U - T = {s_0 < ... < s_{d-1}},

    d[T, U] = sum_i (-1)^i ( ind [T + s_i, U]  -  [T, U - s_i] )

where the first face changes the stabilizer and contributes the
induction R(W_T) -> R(W_{T + s_i}), and the second keeps it and
contributes the identity of R(W_T).  The chain route reduces this
complex (`cubical_complex`).

Its barycentric subdivision has one cell per strictly increasing chain
T_1 < T_2 < ... < T_n of spherical subsets (the empty set is allowed and
sits at the bottom); that cell has dimension n - 1 and stabilizer
conjugate to W_{T_1}, and the boundary deletes one chain entry at a time:

    d(T_1 < ... < T_n) = sum_{k=1}^{n} (-1)^k (T_1 < ... T_k^ ... < T_n)

where deleting k = 1 contributes minus the induction
R(W_{T_1}) -> R(W_{T_2}), and every other deletion contributes (+-1)
times the identity of R(W_{T_1}).  This flag complex (`assemble_complex`)
is what the cell dumps print, and relative complexes and cell pairs are
sliced from it.  In both, the Bredon chain group in degree d is the
direct sum of R_C(stabilizer) over the degree-d cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .abelian import HomologyProfile
from .characters import RepRingCache
from .coxeter import CoxeterMatrix, SphericalPoset, enumerate_spherical
from .errors import ContractError
from .snf import IntMatrix, homology_at

Chain = tuple[tuple[int, ...], ...]  # a flag T_1 < ... < T_n, or an interval (T, U)


def build_cells(poset: SphericalPoset) -> list[list[Chain]]:
    """All strictly increasing chains of spherical subsets, by dimension.

    Each dimension is sorted lexicographically.
    """
    subs = poset.subsets
    sups: dict[tuple[int, ...], list[tuple[int, ...]]] = {
        t: [u for u in subs if len(u) > len(t) and set(t) < set(u)] for t in subs
    }
    by_dim: list[list[Chain]] = []

    def extend(chain: Chain) -> None:
        dim = len(chain) - 1
        while len(by_dim) <= dim:
            by_dim.append([])
        by_dim[dim].append(chain)
        for u in sups[chain[-1]]:
            extend(chain + (u,))

    for t in subs:
        extend((t,))
    for level in by_dim:
        level.sort()
    return by_dim


def faces(chain: Chain) -> list[tuple[Chain, int]]:
    """(face, sign) for deleting entry k = 1..n, sign (-1)^k; the first
    face is the induction block and every later one an identity block."""
    return [
        (chain[: k - 1] + chain[k:], -1 if k % 2 else 1)
        for k in range(1, len(chain) + 1)
    ]


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
    offsets[d][ci].
    """

    cells: list[list[Chain]]
    block_ranks: list[list[int]]
    offsets: list[list[int]]
    dims: list[int]
    differentials: list[IntMatrix]

    @property
    def top_dimension(self) -> int:
        return len(self.cells) - 1

    def homology(self, max_degree: int | None = None) -> HomologyProfile:
        top = self.top_dimension
        limit = top if max_degree is None else min(max_degree, top)
        return HomologyProfile(homology_at(self.differentials, limit))


def assemble_complex(
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset | None = None,
) -> BredonComplex:
    """Build cells and differentials for the system w.

    Takes each block rank from the class count of the stabilizer's
    character table (order cap applies) and fills the induction/identity
    blocks of the boundary maps.
    """
    if poset is None:
        poset = enumerate_spherical(w)
    cells = build_cells(poset)
    # cells[0] holds one singleton chain per subset
    rank_of = {t: rings.table(w, t).n_classes for (t,) in cells[0]}
    block_ranks = [[rank_of[chain[0]] for chain in level] for level in cells]
    offsets, dims = _layout(block_ranks)

    index_of = [
        {chain: ci for ci, chain in enumerate(level)} for level in cells
    ]
    inductions: dict[Chain, IntMatrix] = {}  # keyed by (T_1, T_2)
    differentials = [IntMatrix.zero(0, dims[0])]
    for d in range(1, len(cells)):
        # Cells are visited in column order and the faces of one cell are
        # distinct cells, so every row receives its entries sorted and no
        # entry is written twice.
        rows: list[list[tuple[int, int]]] = [[] for _ in range(dims[d - 1])]
        for ci, chain in enumerate(cells[d]):
            col0 = offsets[d][ci]
            for k, (face, sign) in enumerate(faces(chain)):
                row0 = offsets[d - 1][index_of[d - 1][face]]
                if k == 0:
                    pair = chain[:2]
                    if pair not in inductions:
                        inductions[pair] = rings.induction(w, *pair)
                    for i, brow in enumerate(inductions[pair].rows):
                        rows[row0 + i].extend((col0 + j, sign * v) for j, v in brow)
                else:
                    for j in range(block_ranks[d][ci]):
                        rows[row0 + j].append((col0 + j, sign))
        differentials.append(IntMatrix(dims[d - 1], dims[d], rows))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)


def build_intervals(poset: SphericalPoset) -> list[list[Chain]]:
    """All intervals (T, U) of spherical subsets T <= U, by dimension
    |U - T|; each dimension is sorted by (T, U)."""
    by_dim: list[list[Chain]] = [[] for _ in poset.by_rank]
    for u in poset.subsets:
        for k in range(len(u) + 1):
            by_dim[len(u) - k].extend((t, u) for t in combinations(u, k))
    for level in by_dim:
        level.sort()
    return by_dim


def cubical_complex(
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset | None = None,
) -> BredonComplex:
    """Build the cubical cells [T, U] and their differentials for w.

    Each block rank is the class count of W_T (order cap applies); the
    boundary uses only the codimension-one inductions W_T < W_{T + s}.
    """
    if poset is None:
        poset = enumerate_spherical(w)
    cells = build_intervals(poset)
    rank_of = {t: rings.table(w, t).n_classes for t in poset.subsets}
    block_ranks = [[rank_of[t] for t, _ in level] for level in cells]
    offsets, dims = _layout(block_ranks)

    offset_of = [dict(zip(level, starts)) for level, starts in zip(cells, offsets)]
    inductions: dict[Chain, IntMatrix] = {}  # keyed by (T, T + s)
    differentials = [IntMatrix.zero(0, dims[0])]
    for d in range(1, len(cells)):
        # As in assemble_complex: cells in column order, faces distinct,
        # so every row receives its entries sorted.
        rows: list[list[tuple[int, int]]] = [[] for _ in range(dims[d - 1])]
        for ci, (t, u) in enumerate(cells[d]):
            col0 = offsets[d][ci]
            rank = block_ranks[d][ci]
            for i, s in enumerate(x for x in u if x not in t):
                sign = -1 if i % 2 else 1
                up = tuple(sorted((*t, s)))
                pair = (t, up)
                if pair not in inductions:
                    inductions[pair] = rings.induction(w, t, up)
                row0 = offset_of[d - 1][(up, u)]
                for r, brow in enumerate(inductions[pair].rows):
                    rows[row0 + r].extend((col0 + j, sign * v) for j, v in brow)
                row0 = offset_of[d - 1][(t, tuple(x for x in u if x != s))]
                for j in range(rank):
                    rows[row0 + j].append((col0 + j, -sign))
        differentials.append(IntMatrix(dims[d - 1], dims[d], rows))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)


def relative_complex(full: BredonComplex, n: int) -> BredonComplex:
    """Subquotient complex of the cells whose top subset has rank n.

    Models the pair (rank-n skeleton, rank-(n-1) skeleton): faces whose
    top drops below rank n are projected away.
    """
    if n < 0:
        raise ContractError("rank must be non-negative")
    keep: list[list[int]] = []
    for level in full.cells:
        keep.append([ci for ci, chain in enumerate(level) if len(chain[-1]) == n])
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


def chain_homology(
    w: CoxeterMatrix,
    rings: RepRingCache | None = None,
    max_degree: int | None = None,
) -> HomologyProfile:
    """Bredon homology of the system w along the chain-complex route,
    from the cubical complex."""
    if rings is None:
        rings = RepRingCache()
    return cubical_complex(w, rings).homology(max_degree)


def cell_pair_homology(
    w: CoxeterMatrix, t, rings: RepRingCache | None = None
) -> HomologyProfile:
    """Relative homology of one closed cell modulo its boundary.

    t must be spherical; the computation runs inside the subsystem on t,
    keeping only chains that reach the top rank |t|.
    """
    if rings is None:
        rings = RepRingCache()
    from .coxeter import canonical_subset, spherical_order

    t = canonical_subset(t)
    if spherical_order(w, t) is None:
        raise ContractError(f"subset {t} is not spherical")
    sub = w.submatrix(t)
    full = assemble_complex(sub, rings)
    return relative_complex(full, len(t)).homology()
