"""Coxeter matrices, finite-type classification, and spherical subsets.

A Coxeter system (W, S) is encoded by its symmetric matrix of orders
m_ij = order of s_i s_j, with m_ii = 1 and m_ij in {2, 3, ...} or infinity
off the diagonal.  In files and JSON the infinite label is written as the
integer 0; internally it is ``math.inf`` so that comparisons like
``m >= 3`` and the cosine formula -cos(pi/m) work uniformly.

A subset T of the generators is *spherical* when the standard parabolic
W_T is finite, which is decided by splitting the induced diagram into
connected components and matching each against the classification of
finite irreducible Coxeter groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

import numpy as np

from .errors import ContractError, MatrixError

INFINITE = math.inf

_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}
_H_ORDERS = {3: 120, 4: 14400}


@dataclass(frozen=True)
class CoxeterMatrix:
    """Immutable Coxeter matrix; entries are ints or ``math.inf``."""

    m: tuple[tuple[float, ...], ...]
    # induced matrices already built, by subset; lives as long as the system
    _submatrices: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @property
    def rank(self) -> int:
        return len(self.m)

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(range(self.rank))

    def entry(self, i: int, j: int) -> float:
        return self.m[i][j]

    def submatrix(self, t: tuple[int, ...]) -> "CoxeterMatrix":
        """Induced matrix on the generators in t (sorted order), built
        once per subset."""
        t = canonical_subset(t)
        sub = self._submatrices.get(t)
        if sub is None:
            _check_subset(self, t)
            sub = CoxeterMatrix(tuple(tuple(self.m[i][j] for j in t) for i in t))
            self._submatrices[t] = sub
        return sub

    def is_right_angled(self) -> bool:
        return all(
            self.m[i][j] in (2, INFINITE)
            for i, j in combinations(range(self.rank), 2)
        )

    def is_even(self) -> bool:
        return all(
            self.m[i][j] == INFINITE or self.m[i][j] % 2 == 0
            for i, j in combinations(range(self.rank), 2)
        )

    def to_raw(self) -> list[list[int]]:
        """Back to the file encoding (infinity as 0)."""
        return [
            [0 if v == INFINITE else int(v) for v in row] for row in self.m
        ]


def canonical_subset(t) -> tuple[int, ...]:
    """Sorted duplicate-free tuple; subsets are always handled this way."""
    return tuple(sorted(set(t)))


def parse_matrix(raw) -> CoxeterMatrix:
    """Validate a raw integer matrix (0 meaning infinity).

    Raises MatrixError naming the offending entry with 1-based indices.
    """
    if not isinstance(raw, (list, tuple)) or len(raw) == 0:
        raise MatrixError("matrix must be a non-empty list of rows")
    n = len(raw)
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise MatrixError(f"row {i + 1} does not have length {n}")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int):
                raise MatrixError(f"entry at ({i + 1}, {j + 1}) is not an integer")
    for i in range(n):
        if raw[i][i] != 1:
            raise MatrixError(f"diagonal entry {raw[i][i]} at ({i + 1}, {i + 1}); must be 1")
    for i in range(n):
        for j in range(i + 1, n):
            if raw[i][j] != raw[j][i]:
                raise MatrixError(
                    f"asymmetric entries at ({i + 1}, {j + 1}) and ({j + 1}, {i + 1})"
                )
            if raw[i][j] != 0 and raw[i][j] < 2:
                raise MatrixError(
                    f"off-diagonal entry {raw[i][j]} at ({i + 1}, {j + 1}); must be 0 or >= 2"
                )
    m = tuple(
        tuple(INFINITE if v == 0 else v for v in row) for row in raw
    )
    return CoxeterMatrix(m)


@dataclass(frozen=True)
class ComponentType:
    """Type of one connected diagram component: family letter, rank,
    and the edge label for the dihedral family.  family "X" = infinite."""

    family: str
    rank: int
    edge: int = 0

    @property
    def finite(self) -> bool:
        return self.family != "X"

    @property
    def name(self) -> str:
        if self.family == "X":
            return "infinite"
        if self.family == "I":
            return f"I2({self.edge})"
        return f"{self.family}{self.rank}"

    @property
    def order(self) -> int:
        if self.family == "A":
            return factorial(self.rank + 1)
        if self.family == "B":
            return 2 ** self.rank * factorial(self.rank)
        if self.family == "D":
            return 2 ** (self.rank - 1) * factorial(self.rank)
        if self.family == "E":
            return _E_ORDERS[self.rank]
        if self.family == "F":
            return 1152
        if self.family == "H":
            return _H_ORDERS[self.rank]
        if self.family == "I":
            return 2 * self.edge
        raise ContractError("infinite component has no order")


INFINITE_TYPE = ComponentType("X", 0)


def components(w: CoxeterMatrix, t) -> list[tuple[int, ...]]:
    """Connected components of the diagram induced on t.

    Edges are the pairs with m_ij >= 3, infinity included.  Components
    come back sorted by smallest member.
    """
    t = canonical_subset(t)
    _check_subset(w, t)
    seen: set[int] = set()
    parts: list[tuple[int, ...]] = []
    for start in t:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            i = queue.pop()
            for j in t:
                if j not in comp and w.entry(i, j) >= 3:
                    comp.add(j)
                    queue.append(j)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    return parts


def _check_subset(w: CoxeterMatrix, t: tuple[int, ...]) -> None:
    for i in t:
        if not 0 <= i < w.rank:
            raise ContractError(f"generator index {i} outside rank {w.rank}")


def classify_irreducible(w: CoxeterMatrix, t) -> ComponentType:
    """Finite type of a connected induced diagram, or the infinite marker.

    Matches the classification of finite irreducible Coxeter groups:
    A_n, B_n, D_n, E6, E7, E8, F4, H3, H4, I2(m).
    """
    return reference_labelling(w, t)[0]


def reference_labelling(w: CoxeterMatrix, t) -> tuple[ComponentType, tuple[int, ...]]:
    """classify_irreducible's type, and the members of t in the order of
    the walk that decided it: a path from the end of its heavier label
    (from its least end when both end labels agree), a branched tree from
    the branch node along its arms by increasing length.  Any two
    connected subsets of one finite type induce the same matrix when
    each is read in this order.  An infinite type keeps t sorted.
    """
    t = canonical_subset(t)
    _check_subset(w, t)
    n = len(t)
    if n == 0:
        raise ContractError("cannot classify the empty subset")
    if n == 1:
        return ComponentType("A", 1), t
    if n == 2:
        m = w.entry(t[0], t[1])
        if m == INFINITE:
            return INFINITE_TYPE, t
        return ComponentType("I", 2, int(m)), t

    edges = [
        (i, j, w.entry(i, j))
        for i, j in combinations(t, 2)
        if w.entry(i, j) >= 3
    ]
    # no finite type of rank >= 3 carries a label outside {3, 4, 5}
    if any(m not in (3, 4, 5) for _, _, m in edges):
        return INFINITE_TYPE, t
    if len(edges) != n - 1:
        # connected input, so != n-1 means a cycle
        return INFINITE_TYPE, t
    deg = {i: 0 for i in t}
    adj: dict[int, list[int]] = {i: [] for i in t}
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
        adj[i].append(j)
        adj[j].append(i)
    if max(deg.values()) >= 4:
        return INFINITE_TYPE, t
    branch = [v for v in t if deg[v] == 3]
    if len(branch) > 1:
        return INFINITE_TYPE, t

    if not branch:
        return _classify_path(w, t, deg, adj, n)

    # branched tree: only simple edges allowed, arms decide D vs E
    if any(m != 3 for _, _, m in edges):
        return INFINITE_TYPE, t
    arms = sorted(_arms(branch[0], adj), key=len)
    walk = (branch[0], *(v for arm in arms for v in arm))
    lengths = [len(arm) for arm in arms]
    if lengths[0] == 1 and lengths[1] == 1:
        return ComponentType("D", lengths[2] + 3), walk
    if lengths[0] == 1 and lengths[1] == 2 and lengths[2] in (2, 3, 4):
        return ComponentType("E", lengths[2] + 4), walk
    return INFINITE_TYPE, t


def _classify_path(w, t, deg, adj, n) -> tuple[ComponentType, tuple[int, ...]]:
    ends = [v for v in t if deg[v] == 1]
    start = min(ends)
    order = [start]
    prev = None
    while len(order) < n:
        nxt = [u for u in adj[order[-1]] if u != prev]
        prev = order[-1]
        order.append(nxt[0])
    labels = [int(w.entry(order[k], order[k + 1])) for k in range(n - 1)]
    if labels[0] < labels[-1]:
        # heavier label first, so terminal checks look at labels[0]
        labels.reverse()
        order.reverse()
    walk = tuple(order)
    fours = labels.count(4)
    fives = labels.count(5)
    if fours == 0 and fives == 0:
        return ComponentType("A", n), walk
    if fives == 0 and fours == 1:
        if labels[0] == 4:
            return ComponentType("B", n), walk
        if n == 4 and labels == [3, 4, 3]:
            return ComponentType("F", 4), walk
        return INFINITE_TYPE, t
    if fours == 0 and fives == 1 and labels[0] == 5 and n in (3, 4):
        return ComponentType("H", n), walk
    return INFINITE_TYPE, t


def _arms(center: int, adj) -> list[list[int]]:
    """The arms of a branch node, each walked outward from the node."""
    arms = []
    for first in adj[center]:
        arm = [first]
        prev, cur = center, first
        while len(adj[cur]) == 2:
            nxt = [u for u in adj[cur] if u != prev][0]
            prev, cur = cur, nxt
            arm.append(cur)
        arms.append(arm)
    return arms


def classify_subset(w: CoxeterMatrix, t) -> tuple[ComponentType, ...]:
    """Component types of the parabolic W_T, one per diagram component."""
    t = canonical_subset(t)
    return tuple(classify_irreducible(w, c) for c in components(w, t))


def _parabolic_order(types: tuple[ComponentType, ...]) -> int | None:
    """Product of the component orders, or None if a component is infinite."""
    if not all(c.finite for c in types):
        return None
    return math.prod(c.order for c in types)


def spherical_order(w: CoxeterMatrix, t) -> int | None:
    """|W_T| when the parabolic on t is finite, else None.  |W_empty| = 1."""
    return _parabolic_order(classify_subset(w, t))


def cosine_matrix(w: CoxeterMatrix, t) -> np.ndarray:
    """Symmetric bilinear form of the reflection representation on t:
    B_ij = -cos(pi / m_ij).  The formula also yields the unit diagonal
    and the -1 convention at infinite labels."""
    t = canonical_subset(t)
    return np.array(
        [[-math.cos(math.pi / w.entry(i, j)) for j in t] for i in t]
    )


@dataclass(frozen=True)
class SphericalPoset:
    """All spherical subsets of S, grouped by rank (cardinality).

    by_rank[0] = [()] always; by_rank[1] lists every singleton.  Within a
    rank, subsets are in lexicographic order.
    """

    by_rank: tuple[tuple[tuple[int, ...], ...], ...]
    orders: dict[tuple[int, ...], int]
    labels: dict[tuple[int, ...], tuple[ComponentType, ...]]

    @property
    def subsets(self) -> list[tuple[int, ...]]:
        return [t for level in self.by_rank for t in level]

    @property
    def counts(self) -> list[int]:
        return [len(level) for level in self.by_rank]

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def full_order(self) -> int | None:
        """|W| when the whole generating set is spherical, else None.
        Every singleton is spherical, so by_rank[1] names all of S."""
        return self.orders.get(tuple(range(len(self.by_rank[1]))))

    def label_name(self, t) -> str:
        t = canonical_subset(t)
        if not t:
            return "1"
        return " x ".join(c.name for c in self.labels[t])


def enumerate_spherical(w: CoxeterMatrix) -> SphericalPoset:
    """Enumerate spherical subsets rank by rank.

    Sphericality is downward closed, so each rank-n subset extends its
    rank-(n-1) prefix t by a generator above t[-1], and is pruned unless
    its other facets are already present.  Extending each rank in
    lexicographic order keeps the next one in lexicographic order.
    """
    by_rank: list[list[tuple[int, ...]]] = []
    orders: dict[tuple[int, ...], int] = {(): 1}
    labels: dict[tuple[int, ...], tuple[ComponentType, ...]] = {(): ()}
    level = [()]
    while level:
        by_rank.append(level)
        prev_set, level = set(level), []
        for t in by_rank[-1]:
            for i in range(t[-1] + 1 if t else 0, w.rank):
                cand = t + (i,)
                if any(cand[:k] + cand[k + 1:] not in prev_set for k in range(len(t))):
                    continue
                types = classify_subset(w, cand)
                order = _parabolic_order(types)
                if order is None:
                    continue
                level.append(cand)
                orders[cand] = order
                labels[cand] = types
    return SphericalPoset(
        by_rank=tuple(tuple(level) for level in by_rank),
        orders=orders,
        labels=labels,
    )
