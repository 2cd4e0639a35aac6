"""The flag complex: the barycentric subdivision of the cubical cells.

It has one cell per strictly increasing chain T_1 < T_2 < ... < T_n of
spherical subsets (the empty set is allowed and sits at the bottom);
that cell has dimension n - 1 and stabilizer conjugate to W_{T_1}, and
the boundary deletes one chain entry at a time:

    d(T_1 < ... < T_n) = sum_{k=1}^{n} (-1)^k (T_1 < ... T_k^ ... < T_n)

where deleting k = 1 contributes minus the induction
R(W_{T_1}) -> R(W_{T_2}), and every other deletion contributes (+-1)
times the identity of R(W_{T_1}).  It has the same Bredon homology as
the cubical complex, cell pairs included, so tests compare against it.
"""

from itertools import accumulate

from bredon.chains import BredonComplex
from bredon.coxeter import enumerate_spherical
from bredon.snf import IntMatrix

Chain = tuple[tuple[int, ...], ...]  # a flag T_1 < ... < T_n


def build_cells(poset) -> list[list[Chain]]:
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


def assemble_complex(w, rings, poset=None) -> BredonComplex:
    """Build the flag cells and differentials for the system w.

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
    offsets = [list(accumulate(level, initial=0))[:-1] for level in block_ranks]
    dims = [sum(level) for level in block_ranks]

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
