"""The Bredon chain complex of the Davis complex, modulo the group action.

The chamber K = |S^f| has a cubical cell structure (Davis 2008) with one
cell per interval [T, U] of spherical subsets T <= U: the cube spanned by
the barycentres of the cells sigma_V with T <= V <= U, of dimension
|U - T|, which W_T fixes pointwise.  With U - T = {s_0 < ... < s_{d-1}},

    d[T, U] = sum_i (-1)^i ( ind [T + s_i, U]  -  [T, U - s_i] )

where the first face changes the stabilizer and contributes the
induction R(W_T) -> R(W_{T + s_i}), and the second keeps it and
contributes the identity of R(W_T) (`boundary`).  The Bredon chain
group in degree d is the direct sum of R_C(W_T) over the degree-d cells
(`build_cells`, `_layout`), which the cell dumps print.

The chain route reduces a smaller complex with the same homology.  The
cells [T, U] with a fixed bottom T form the dual cell of W_T, and an
acyclic matching of their identity faces (`morse_matching`) leaves
critical cells.  By algebraic Morse theory (Skoldberg 2006) the Morse
complex has one copy of R(W_T) per critical cell [T, U], and its block
from c to a critical cell c' = [T', U'] one degree lower sums the
gradient paths from c to c'.  Each step of a path keeps T (a block +-I)
or enlarges it (an induction), and induction is transitive, so the block
is n(c, c') ind_{W_T}^{W_T'}, where n(c, c') counts the paths with their
signs alone (`morse_counts`).  For a simplex group one critical cell per
proper T is left: the faces of the chamber.

The cells [T', U] with U fixed are the cell pair of W_U (its Coxeter
cell modulo the boundary), whose differential keeps only the induction
faces (`cell_pair_homology`).
"""

from __future__ import annotations

from dataclasses import dataclass
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


def morse_counts(cells: list[list[Cell]]) -> dict[Cell, dict[Cell, int]]:
    """For each critical cell c of morse_matching(cells), in the order of
    cells, the nonzero signed counts n(c, c') of the gradient paths from c
    to the critical cells c' one degree lower, each path weighted by the
    signs of `boundary` alone.

    A path leaves a cell by a face.  A face matched with a cell above it
    passes the path up to that cell, with the sign -e of their identity
    face (e = +-1 is its own inverse), and on through the cell's other
    faces; a path ends on a critical face and dies on a face matched with
    a cell below it.  Each face's counts are memoized, so it is expanded
    once, and the matching is acyclic, so the expansion ends.
    """
    up = dict(morse_matching(cells))
    down = set(up.values())
    flow: dict[Cell, dict[Cell, int]] = {}

    def spread(faces) -> dict[Cell, int]:
        out: dict[Cell, int] = {}
        for face, sign in faces:
            for c, n in reach(face).items():
                out[c] = out.get(c, 0) + sign * n
        return {c: n for c, n in out.items() if n}

    def reach(x: Cell) -> dict[Cell, int]:
        if x not in flow:
            if x in up:
                faces = boundary(up[x])
                e = next(sign for face, sign, _ in faces if face == x)
                flow[x] = spread((f, -e * sign) for f, sign, _ in faces if f != x)
            else:
                flow[x] = {} if x in down else {x: 1}
        return flow[x]

    return {
        c: spread((f, sign) for f, sign, _ in boundary(c))
        for level in cells
        for c in level
        if c not in up and c not in down
    }


def _layout(
    w: CoxeterMatrix, rings: RepRingCache, cells: list[list[Cell]]
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(block_ranks, offsets, dims) of cells: a cell [T, U] carries the
    class count of W_T (order cap applies), each level's blocks sit side
    by side, so a block's offset is the running sum of the ranks before
    it, and the level's dimension is their total."""
    rank_of: dict[tuple[int, ...], int] = {}
    block_ranks, offsets, dims = [], [], []
    for level in cells:
        ranks = []
        for t, _ in level:
            if t not in rank_of:
                rank_of[t] = rings.table(w, t).n_classes
            ranks.append(rank_of[t])
        sums = list(accumulate(ranks, initial=0))
        block_ranks.append(ranks)
        offsets.append(sums[:-1])
        dims.append(sums[-1])
    return block_ranks, offsets, dims


@dataclass
class BredonComplex:
    """Assembled chain complex: cells, coordinate layout, differentials.

    differentials[k] maps degree k to degree k-1 for k >= 1; index 0
    holds the zero map out of degree 0 so lengths line up.  block_ranks
    mirror the cell lists: cell ci of dimension d occupies
    block_ranks[d][ci] consecutive coordinates starting at
    offsets[d][ci].
    """

    cells: list[list[Cell]]
    block_ranks: list[list[int]]
    offsets: list[list[int]]
    dims: list[int]
    differentials: list[IntMatrix]

    @property
    def top_dimension(self) -> int:
        return len(self.cells) - 1

    def homology(self) -> HomologyProfile:
        return HomologyProfile(homology_at(self.differentials, self.top_dimension))


def _complex_of(
    w: CoxeterMatrix,
    rings: RepRingCache,
    cells: list[list[Cell]],
    faces: dict[Cell, dict[Cell, int]],
) -> BredonComplex:
    """The complex on cells (by degree) with one block R(W_T) per cell
    [T, U] and, for each entry face: n of faces[cell], the block n . I when
    the face keeps T and n . ind_{W_T}^{W_T'} when its bottom is T'."""
    block_ranks, offsets, dims = _layout(w, rings, cells)
    inductions: dict[tuple[tuple[int, ...], tuple[int, ...]], IntMatrix] = {}
    differentials = [IntMatrix.zero(0, dims[0])]
    for d in range(1, len(cells)):
        # Cells are visited in column order and the faces of one cell are
        # distinct cells, so every row receives its entries sorted and no
        # entry is written twice.
        row_of = dict(zip(cells[d - 1], offsets[d - 1]))
        rows: list[list[tuple[int, int]]] = [[] for _ in range(dims[d - 1])]
        for cell, col0, rank in zip(cells[d], offsets[d], block_ranks[d]):
            for face, n in faces[cell].items():
                row0 = row_of[face]
                if face[0] == cell[0]:
                    for j in range(rank):
                        rows[row0 + j].append((col0 + j, n))
                    continue
                pair = (cell[0], face[0])
                if pair not in inductions:
                    inductions[pair] = rings.induction(w, *pair)
                for r, brow in enumerate(inductions[pair].rows):
                    rows[row0 + r].extend((col0 + j, n * v) for j, v in brow)
        differentials.append(IntMatrix(dims[d - 1], dims[d], rows))
    return BredonComplex(cells, block_ranks, offsets, dims, differentials)


def assemble_complex(
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset | None = None,
) -> BredonComplex:
    """The Morse complex of w's cubical cells, which the chain route
    reduces: its cells are the critical cells, and its block from a
    critical cell [T, U] to a critical cell [T', U'] is n . I when T' = T
    and n . ind_{W_T}^{W_T'} otherwise, for each count n of morse_counts.
    """
    if poset is None:
        poset = enumerate_spherical(w)
    cells = build_cells(poset)
    counts = morse_counts(cells)
    critical = [[c for c in level if c in counts] for level in cells]
    return _complex_of(w, rings, critical, counts)


def cell_pair_homology(w: CoxeterMatrix, t, rings: RepRingCache) -> HomologyProfile:
    """Relative homology of one closed cell modulo its boundary.

    t must be spherical; the computation runs inside the subsystem on t,
    over the cells [T', t], keeping only their induction faces: the
    identity faces drop the top t, so they lie in the boundary.
    """
    t = canonical_subset(t)
    if spherical_order(w, t) is None:
        raise ContractError(f"subset {t} is not spherical")
    sub = w.submatrix(t)
    u = sub.generators
    cells = [[(low, u) for low in combinations(u, len(u) - d)] for d in range(len(u) + 1)]
    faces = {
        cell: {face: sign for face, sign, kind in boundary(cell) if kind == "induction"}
        for level in cells
        for cell in level
    }
    return _complex_of(sub, rings, cells, faces).homology()
