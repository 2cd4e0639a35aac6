"""Character tables of the finite parabolics, and induction.

Tables are computed three ways, chosen by the classification of the
subgroup:

* closed forms: the textbook tables of the trivial group, rank 1 and
  dihedral parabolics, classes included, and Murnaghan-Nakayama over
  (bi)partitions for types A_n and B_n (n >= 3) on their realized
  classes;
* reducible parabolics are tensor products of their factor tables;
* the other irreducible types (D, E, F4, H3, H4) are realized as a Cayley
  graph and go through Burnside's eigenvector method (dixon_table): the
  central characters are the common eigenvectors of the class-sum
  matrices, which are self-adjoint once each class's coordinate is
  scaled by the square root of its size, so one symmetric eigenproblem
  of a fixed combination of them gives every character, and each
  eigenvector is checked against every class sum.

Every finite Coxeter group is real: each element is conjugate to its
inverse (Geck-Pfeiffer 2000), so every character is real-valued and
every table holds float64 values.

A table's columns are always the conjugacy classes in canonical order:
sorted by (length, word) of their shortlex-least representative, so the
identity comes first.  That is the order conjugacy_classes gives a
realized model; the closed forms write it down, and a product's classes
are the tuples of its factors' classes, represented by the merge of the
factors' words.  Each table is built with its class-fusion rule by one
classification of the induced matrix, so only the irreducible
parabolics of rank >= 3 are ever realized.  The representation ring
R_C(W_T) is the free Z-module on the rows, and induction along
W_T <= W_T' is the integer matrix of Frobenius induced-character
multiplicities.

RepRingCache keys at two levels.  Tables with their fusion rules,
models, classes and inductions are positional, keyed by the induced
Coxeter matrix.  The Dixon values are keyed by irreducible type: one
dixon_table build per D, E, F4, H3 or H4 type serves every relabelled copy
of it, whose own classes are mapped onto the stored ones by a generator
map between reference labellings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import cos, pi, prod, sqrt

import numpy as np

from .coxeter import (
    CoxeterMatrix,
    canonical_subset,
    components,
    reference_labelling,
)
from .errors import ConsistencyError, ContractError, ResourceCapError
from .groups import (
    DEFAULT_ORDER_CAP,
    ConjugacyClasses,
    GroupModel,
    conjugacy_classes,
    realize_group,
)
from .snf import IntMatrix

VALUE_TOL = 1.0e-6


@dataclass
class CharacterTable:
    """Irreducible characters of a finite parabolic, all real-valued.

    values[i, c] is the i-th character on the c-th conjugacy class, a
    float64;
    class_words hold one defining word per class in the positions 0..k-1
    of the induced system, with no generator labels.  Row order is fixed
    by the construction path, so identical inputs give identical tables.
    """

    order: int
    class_words: list[tuple[int, ...]]
    class_sizes: list[int]
    values: np.ndarray
    degrees: list[int]

    @property
    def n_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def n_irreducibles(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        """Orthogonality and counting checks; ConsistencyError on failure,
        also for a NaN or infinite value."""
        k = self.n_classes
        if self.n_irreducibles != k:
            raise ConsistencyError(
                f"{self.n_irreducibles} irreducibles vs {k} classes"
            )
        if sum(self.class_sizes) != self.order:
            raise ConsistencyError("class sizes do not sum to the group order")
        if sum(d * d for d in self.degrees) != self.order:
            raise ConsistencyError("degree squares do not sum to the group order")
        if not np.isfinite(self.values).all():
            raise ConsistencyError("a character value is not finite")
        ident = self.values[:, 0]
        if not np.abs(ident - np.array(self.degrees, dtype=float)).max() <= VALUE_TOL:
            raise ConsistencyError("identity column disagrees with the degrees")
        sizes = np.array(self.class_sizes, dtype=float)
        gram = (self.values * sizes) @ self.values.T / self.order
        if not np.abs(gram - np.eye(k)).max() <= VALUE_TOL:
            raise ConsistencyError("first orthogonality relations fail")


def trivial_table() -> CharacterTable:
    return CharacterTable(
        order=1,
        class_words=[()],
        class_sizes=[1],
        values=np.ones((1, 1)),
        degrees=[1],
    )


def rank1_table() -> CharacterTable:
    """A1 = C2: trivial and sign characters on the classes (), (0,)."""
    return CharacterTable(
        order=2,
        class_words=[(), (0,)],
        class_sizes=[1, 1],
        values=np.array([[1, 1], [1, -1]], dtype=float),
        degrees=[1, 1],
    )


def _dihedral_classes(m: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Class words and sizes of I2(m) in canonical order.

    With generators a, b and rotation r = ab: the identity, then the
    reflections (one class of a for odd m; the classes of a and b, m/2
    each, for even m), then r^j = (ab)^j for j = 1 .. floor(m/2), of
    size 2 except the central r^(m/2).
    """
    reflections = [(0,), (1,)] if m % 2 == 0 else [(0,)]
    rotations = range(1, m // 2 + 1)
    words = [()] + reflections + [(0, 1) * j for j in rotations]
    sizes = [1] + [m // len(reflections)] * len(reflections)
    sizes += [1 if 2 * j == m else 2 for j in rotations]
    return words, sizes


def _dihedral_class(word, m: int) -> int:
    """Canonical class index of a word in I2(m), tracked as r^k or r^k a.

    a = s_0 toggles r^k and r^k a; b = s_1 = a r sends r^k to r^(k-1) a
    and r^k a to r^(k+1).
    """
    k = 0
    for i, s in enumerate(word):
        if s:
            k += 1 if i % 2 else -1  # i letters so far: r^k a when i is odd
    k %= m
    if len(word) % 2:
        return 2 if m % 2 == 0 and k % 2 else 1
    j = min(k, m - k)
    if j == 0:
        return 0
    return j + (2 if m % 2 == 0 else 1)


def dihedral_table(m: int) -> CharacterTable:
    """Closed form for I2(m) = D_m on the classes of _dihedral_classes.

    With generators a, b and rotation r = ab of order m the irreducibles
    are: the trivial and sign characters; for even m the two further
    linear characters hat-chi3 (+1 on the class of a, -1 on the class of
    b, (-1)^k on r^k) and hat-chi4 = sign * hat-chi3; and the
    two-dimensional phi_l with phi_l(r^k) = 2 cos(2 pi l k / m) and 0 on
    reflections, for l = 1 .. ceil(m/2) - 1.
    """
    words, sizes = _dihedral_classes(m)
    even = m % 2 == 0
    n_two_dim = (m - 1) // 2
    base = 3 if even else 1
    values = np.zeros((2 + 2 * even + n_two_dim, len(words)))
    for c, word in enumerate(words):
        if len(word) % 2:
            values[0, c] = 1
            values[1, c] = -1
            if even:
                sign = 1 if word == (0,) else -1
                values[2, c] = sign
                values[3, c] = -sign
            # two-dimensional characters vanish on reflections
        else:
            k = len(word) // 2
            values[0, c] = 1
            values[1, c] = 1
            if even:
                values[2, c] = (-1) ** k
                values[3, c] = (-1) ** k
            for l in range(1, n_two_dim + 1):
                values[base + l, c] = 2 * cos(2 * pi * l * k / m)
    degrees = [1, 1] + ([1, 1] if even else []) + [2] * n_two_dim
    return CharacterTable(
        order=2 * m,
        class_words=words,
        class_sizes=sizes,
        values=values,
        degrees=degrees,
    )


def tensor_table(p: CharacterTable, q: CharacterTable) -> CharacterTable:
    """Character table of a direct product from factor tables.

    Classes are the pairs (row-major, p outer and q inner) and characters
    are products.  Both factors' class words must already be written in
    one position space, with no letter in both; each pair's words are
    merged letter by letter, least first, and since the alphabets are
    disjoint the merge of two shortlex-least words is the shortlex-least
    word of the pair.
    """
    if {s for word in p.class_words for s in word} & {s for word in q.class_words for s in word}:
        raise ContractError("tensor factors share generators")
    from heapq import merge  # here, not at module load: every CLI request imports characters

    class_words = [tuple(merge(wp, wq)) for wp in p.class_words for wq in q.class_words]
    class_sizes = [sp * sq for sp in p.class_sizes for sq in q.class_sizes]
    values = np.kron(p.values, q.values)
    degrees = [dp * dq for dp in p.degrees for dq in q.degrees]
    return CharacterTable(
        order=p.order * q.order,
        class_words=class_words,
        class_sizes=class_sizes,
        values=values,
        degrees=degrees,
    )


def murnaghan_nakayama(sub: CoxeterMatrix, label, walk, words) -> list[list[int]]:
    """Every irreducible character of W_sub, of type A_n = S_(n+1) or B_n,
    at each word in sub's positions, one row per (bi)partition.

    Along a walk that induces the reference matrix (3 along the path, 4 on
    its first edge for B_n), generator i is (i, i+1) of n + 1 points in
    A_n, and (i-1, i) in B_n but for the first, which negates coordinate 0.
    Each cycle of a word's signed cycle type, largest first, of length r
    removes an r-rim hook from either component with sign (-1)^leg, and -1
    more from the second if the cycle is negative: a bead of a beta-set
    moves down by r to a free place, passing leg beads.
    """
    n, family = label.rank, label.family
    ref = [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)] for i in range(n)]
    ref[0][1] = ref[1][0] = 4 if family == "B" else 3
    position = _relabelling(sub, walk, CoxeterMatrix(tuple(map(tuple, ref))), range(n))
    points = n + 1 if family == "A" else n
    cycle_types = []
    for word in words:
        image = list(range(1, points + 1))  # image[i] = +-(j + 1): e_i goes to +-e_j
        for s in word:
            a = position[s] - (family == "B")
            if a < 0:
                image[0] = -image[0]
            else:
                image[a], image[a + 1] = image[a + 1], image[a]
        cycles = []
        for i in range(points):
            cycle = []
            while image[i]:  # read entries are cleared
                cycle.append(image[i])
                image[i], i = 0, abs(image[i]) - 1
            if cycle:
                cycles.append((len(cycle), 1 if prod(cycle) > 0 else -1))
        cycle_types.append(tuple(sorted(cycles, reverse=True)))
    empty = (1 << points) - 1  # the beta-set of the empty partition
    parts = [{empty}]  # parts[k]: the partitions of k, adding a box (a bead moves up 1) at a time
    for k in range(points):
        parts.append({x ^ 3 << b for x in parts[k] for b in range(points + k) if x >> b & 3 == 1})
    memo = {(empty, empty, ()): 1}  # (alpha, beta, remaining cycles) -> value
    hooks: dict = {}  # (beta-set, r) -> [(beta-set without an r-rim hook, (-1)^leg)]

    def chi(alpha, beta, cycles):
        if (alpha, beta, cycles) not in memo:
            (r, sign), rest = cycles[0], cycles[1:]
            for x in (alpha, beta):
                if (x, r) not in hooks:
                    hooks[x, r] = [
                        (x ^ 1 << b ^ 1 << b - r, (-1) ** (x % (1 << b) >> b - r).bit_count())
                        for b in range(r, x.bit_length())
                        if x >> b & 1 and not x >> b - r & 1
                    ]
            total = 0
            for a, e in hooks[alpha, r]:
                total += e * chi(a, beta, rest)
            for b, e in hooks[beta, r]:
                total += sign * e * chi(alpha, b, rest)
            memo[alpha, beta, cycles] = total
        return memo[alpha, beta, cycles]

    sizes = [points] if family == "A" else range(n + 1)  # boxes of the first component
    labels = [(a, b) for k in sizes for a in parts[k] for b in parts[points - k]]
    return [[chi(alpha, beta, cycles) for cycles in cycle_types] for alpha, beta in labels]


# ---------------------------------------------------------------------------
# Burnside: the character table of an arbitrary finite model
# ---------------------------------------------------------------------------


def _structure_matrices(model: GroupModel, classes: ConjugacyClasses):
    """Class-algebra structure constants a_{ijk}, exact int64 counts, as
    the matrices A_i[j, k] for i = 1, 2, ... in class order: with z fixed
    in class k, a_{ijk} counts x in class i with x^{-1} z in class j.
    Each class of a finite Coxeter group is closed under inversion, so
    x^{-1} runs over class i as x does, and a_{ijk} also counts x in class
    i with x z in class j.

    Every class is read.  The classes come in blocks of 1, 2, 4, ...
    classes, which only bounds the memory of one pass: for a block, x z
    comes from walking the words of all class representatives z along the
    right Cayley table from x, for every x of the block at once, and the
    words are walked in lexicographic order, so each prefix they share is
    walked once.  That makes about log2 k passes over the group.
    """
    k = classes.count
    class_of = classes.class_of.astype(np.int64)
    right_cols = np.ascontiguousarray(model.right.T)
    words = classes.rep_words
    lex = sorted(range(k), key=lambda c: words[c])
    lo, width = 1, 1
    while lo < k:
        hi = min(lo + width, k)
        xs = np.flatnonzero((class_of >= lo) & (class_of < hi))
        rows = (class_of[xs] - lo) * k  # x in class i counts in row (i - lo, j)
        a = np.empty((hi - lo, k, k), dtype=np.int64)
        walked = [xs]  # walked[l]: after l letters of prev
        prev: tuple[int, ...] = ()
        for c in lex:
            word = words[c]
            common = 0
            while common < min(len(prev), len(word)) and prev[common] == word[common]:
                common += 1
            del walked[common + 1 :]
            for s in word[common:]:
                walked.append(right_cols[s].take(walked[-1]))
            hits = rows + class_of.take(walked[-1])
            a[:, :, c] = np.bincount(hits, minlength=(hi - lo) * k).reshape(hi - lo, k)
            prev = word
        yield from a
        lo, width = hi, 2 * width


def _row_order(values: np.ndarray, degrees: list[int]) -> list[int]:
    """The order of a table's rows from dixon_table or _irreducible: by
    degree, then by their values rounded once, class by class."""
    keys = np.round(values, 6).tolist()
    return sorted(range(len(degrees)), key=lambda t: (degrees[t], keys[t]))


def dixon_table(model: GroupModel, classes: ConjugacyClasses) -> CharacterTable:
    """Character table of a finite Coxeter group's model by Burnside's
    eigenvector method; the name stays from the Burnside-Dixon algorithm
    it replaced, and the trace wraps it under that name.

    A central character omega_t(i) = |C_i| chi_t(g_i) / chi_t(1) is a
    common eigenvector of the class-sum matrices A_i: A_i omega_t =
    omega_t(i) omega_t.  The classes must be closed under inversion, as
    they are in every finite Coxeter group, and then each A_i D, with D =
    diag(|C|), is symmetric, checked exactly (ConsistencyError otherwise).
    So S = D^(-1/2) M D^(1/2) is symmetric for M = sum_i sin(i + 1) A_i, a
    fixed combination whose eigenvalues separate the central characters,
    and one eigh of S gives them all: omega_t = D^(1/2) u_t / u_t[0] for
    its orthonormal eigenvectors u_t, entry 0 being the identity class.
    Since u_t is a unit vector, u_t[0]^2 = 1 / sum_c omega_t(c)^2 / |C_c|
    = chi_t(1)^2 / |G|, so the degree is |u_t[0]| sqrt(|G|).

    Checks, each failed by NaN or inf: every degree lies within VALUE_TOL
    of a positive integer, and every omega_t is an eigenvector of every
    A_i, within VALUE_TOL |C_i|.  validate()'s orthogonality would hold for
    any orthonormal u, so it cannot stand in for the eigenvector check.
    The values are chi_t = d_t omega_t / |C|, rows in _row_order.
    """
    k = classes.count
    order = model.order
    mats = np.array([np.eye(k, dtype=np.int64), *_structure_matrices(model, classes)])
    sizes = np.array(classes.sizes, dtype=np.int64)
    scaled = mats * sizes  # A_i D
    if not np.array_equal(scaled, scaled.transpose(0, 2, 1)):
        raise ConsistencyError("a class is not closed under inversion: A_i D is not symmetric")
    mats = mats.astype(float)
    root = np.sqrt(sizes.astype(float))
    m = np.tensordot(np.sin(np.arange(1, k + 1)), mats, axes=1)
    _, u = np.linalg.eigh(m * root / root[:, None])
    d = np.abs(u[0]) * sqrt(order)
    nearest = np.round(d)
    if not np.all((np.abs(d - nearest) <= VALUE_TOL) & (nearest >= 1)):
        raise ConsistencyError("a central character gives no integer degree")
    omega = (root[:, None] * u / u[0]).T  # omega[t, c] = omega_t(c)
    err = np.abs(omega @ mats.transpose(0, 2, 1) - omega.T[:, :, None] * omega)  # [i, t, j]
    if not np.all(err <= VALUE_TOL * sizes[:, None, None]):
        raise ConsistencyError("a central character is not an eigenvector of every class sum")
    degrees = nearest.astype(int).tolist()
    values = omega * (nearest[:, None] / sizes)

    row_order = _row_order(values, degrees)
    return CharacterTable(
        order=order,
        class_words=list(classes.rep_words),
        class_sizes=list(classes.sizes),
        values=values[row_order],
        degrees=[degrees[t] for t in row_order],
    )


# ---------------------------------------------------------------------------
# Induction between nested parabolics
# ---------------------------------------------------------------------------


def _round_int_rows(raw: np.ndarray, what: str) -> list[list[int]]:
    if np.iscomplexobj(raw):
        raise ConsistencyError(f"{what} has a complex entry")
    if not np.isfinite(raw).all():
        raise ConsistencyError(f"{what} has a non-integer entry")
    nearest = np.round(raw)
    if not np.abs(raw - nearest).max(initial=0.0) <= VALUE_TOL:
        raise ConsistencyError(f"{what} has a non-integer entry")
    if nearest.min(initial=0.0) < 0:
        raise ConsistencyError(f"{what} has a negative entry")
    return nearest.astype(int).tolist()


def induction_matrix(
    sub: CharacterTable, big: CharacterTable, embedding: list[int]
) -> IntMatrix:
    """Multiplicity matrix of induction R(W_T) -> R(W_T').

    embedding[j] is the big-group class that the j-th sub-group class
    fuses into.  Rows are big irreducibles, columns sub irreducibles, so
    composing matrices composes inductions.  With the fusion matrix
    F[j, embedding[j]] = |class j|, chi . F sums a sub character over each
    big class, and the Frobenius formula for the induced character turns
    the inner products into big.values @ (sub.values @ F)^T / |W_T|, with
    no complex conjugate since the characters are real.
    """
    if big.order % sub.order:
        raise ContractError("subgroup order does not divide the group order")
    fusion = np.zeros((sub.n_classes, big.n_classes))
    fusion[np.arange(sub.n_classes), embedding] = sub.class_sizes
    raw = big.values @ (sub.values @ fusion).T / sub.order
    rows = _round_int_rows(raw, "induction matrix")
    index = big.order // sub.order
    for j, total in enumerate(np.dot(big.degrees, rows).tolist()):
        if total != index * sub.degrees[j]:
            raise ConsistencyError(
                "induced degree mismatch: column "
                f"{j} gives {total}, expected {index * sub.degrees[j]}"
            )
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Cache: models, classes, tables with their fusion rules and inductions
# keyed by induced matrices, Dixon values by irreducible type
# ---------------------------------------------------------------------------


def _relabelling(sub: CoxeterMatrix, walk, ref: CoxeterMatrix, ref_walk) -> list[int]:
    """The generator map of sub onto ref that sends walk[i] to
    ref_walk[i], as a list over sub's positions; ConsistencyError unless
    it preserves every m_ij."""
    k = sub.rank
    gens = [0] * k
    for a, b in zip(walk, ref_walk):
        gens[a] = b
    if ref.rank != k or any(
        sub.m[i][j] != ref.m[gens[i]][gens[j]] for i in range(k) for j in range(k)
    ):
        raise ConsistencyError(f"the relabelling {gens} does not preserve the Coxeter matrix")
    return gens


def _nested(t1, t2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both subsets in canonical form, once T1 is checked to lie in T2."""
    t1, t2 = canonical_subset(t1), canonical_subset(t2)
    if not set(t1) <= set(t2):
        raise ContractError(f"{t1} is not contained in {t2}")
    return t1, t2


class RepRingCache:
    """Shared store of the parabolics' class data and character tables.

    Models, classes, entries and inductions are keyed by the induced
    Coxeter matrix, so equal induced matrices of different systems are
    computed once.  They are positional: their generators are 0..k-1 of
    the induced system, and callers translate subset positions at the
    boundary.  An entry is a table with its class-fusion rule, both from
    one classification (_build).  Only the irreducible parabolics of
    rank >= 3 are realized for their entries; model and classes realize
    any finite parabolic on demand.

    The Dixon values, of types D, E, F4, H3 and H4 only, are keyed by
    irreducible type instead: each type runs dixon_table once, on its
    first orientation, and every orientation (a relabelled copy such as
    the four D4 of affine D4) maps its own classes onto the stored ones
    through reference_labelling's walks (_irreducible).
    """

    def __init__(self, order_cap: int = DEFAULT_ORDER_CAP):
        self.order_cap = order_cap
        self._models: dict = {}
        self._classes: dict = {}
        self._entries: dict = {}  # induced matrix -> table, fusion rule
        self._inductions: dict = {}
        self._dixon: dict = {}  # type -> its first orientation's matrix, walk, table, rule

    def model(self, w: CoxeterMatrix, t) -> GroupModel:
        sub = w.submatrix(t)
        key = sub.m
        if key not in self._models:
            self._models[key] = realize_group(sub, order_cap=self.order_cap)
        return self._models[key]

    def classes(self, w: CoxeterMatrix, t) -> ConjugacyClasses:
        sub = w.submatrix(t)
        key = sub.m
        if key not in self._classes:
            self._classes[key] = conjugacy_classes(self.model(w, t))
        return self._classes[key]

    def table(self, w: CoxeterMatrix, t) -> CharacterTable:
        return self._entry(w.submatrix(t))[0]

    def _fuse(self, sub: CoxeterMatrix, words) -> list[int]:
        """The class in W_sub of each word in sub's generator positions."""
        return self._entry(sub)[1](words)

    def _entry(self, sub: CoxeterMatrix):
        key = sub.m
        if key not in self._entries:
            self._entries[key] = self._build(sub)
        return self._entries[key]

    def _build(self, sub: CoxeterMatrix):
        """The table of W_sub and its class-fusion rule, chosen by the
        types of sub's components."""
        t = sub.generators
        parts = components(sub, t)
        labels = [reference_labelling(sub, part) for part in parts]
        if not all(label.finite for label, _ in labels):
            raise ContractError(f"subset {t} is not spherical")
        order = prod(label.order for label, _ in labels)
        if order > self.order_cap:
            raise ResourceCapError(
                f"|W_T| = {order} exceeds the order cap {self.order_cap}"
            )
        if len(parts) > 1:
            table, rule = self._product(sub, parts)
        elif len(t) < 2:  # the trivial group's only class word is ()
            table = rank1_table() if t else trivial_table()
            rule = lambda words: [len(word) % 2 for word in words]
        elif len(t) == 2:
            m = labels[0][0].edge
            table = dihedral_table(m)
            rule = lambda words: [_dihedral_class(word, m) for word in words]
        else:
            table, rule = self._irreducible(sub, *labels[0])
        table.validate()
        return table, rule

    def _irreducible(self, sub: CoxeterMatrix, label, walk):
        """An irreducible parabolic of rank >= 3: its type's values on its
        own model's classes, rows ordered as dixon_table orders them, and
        fusion by evaluation in that model.  Types A and B have closed
        values.  Any other type's first orientation stores its dixon_table
        and rule; every orientation maps its class words, relabelled walk to
        walk, by that rule and takes those columns of the stored values."""
        t = sub.generators
        model, classes = self.model(sub, t), self.classes(sub, t)
        rule = lambda words: [int(classes.class_of[model.evaluate_word(word)]) for word in words]
        if label.family in ("A", "B"):
            chars = murnaghan_nakayama(sub, label, walk, classes.rep_words)
            values, degrees = np.array(chars, dtype=float), [row[0] for row in chars]
        else:
            if label not in self._dixon:
                self._dixon[label] = (sub, walk, dixon_table(model, classes), rule)
            ref, ref_walk, stored, ref_rule = self._dixon[label]
            gens = _relabelling(sub, walk, ref, ref_walk)
            columns = ref_rule([[gens[s] for s in word] for word in classes.rep_words])
            if sorted(columns) != list(range(stored.n_classes)) or [
                stored.class_sizes[c] for c in columns
            ] != classes.sizes:
                raise ConsistencyError(
                    f"the classes of {label.name} do not match its stored classes"
                )
            values, degrees = stored.values[:, columns], stored.degrees
        rows = _row_order(values, degrees)
        table = CharacterTable(
            model.order, list(classes.rep_words), list(classes.sizes),
            values[rows], [degrees[r] for r in rows],
        )
        return table, rule

    def _product(self, sub: CoxeterMatrix, parts):
        """The tensor product of the factor tables, their class words
        translated into sub's positions, with its columns sorted by
        (length, word); a word's class combines its factors' classes
        through the same sort."""
        tables = [self.table(sub, part) for part in parts]
        factors = [
            replace(f, class_words=[tuple(part[i] for i in word) for word in f.class_words])
            for f, part in zip(tables, parts)
        ]
        rules = [self._entry(sub.submatrix(part))[1] for part in parts]
        local = [{g: i for i, g in enumerate(part)} for part in parts]
        combined = factors[0]
        for nxt in factors[1:]:
            combined = tensor_table(combined, nxt)
        merged = combined.class_words
        order = sorted(range(len(merged)), key=lambda c: (len(merged[c]), merged[c]))
        columns = np.empty(len(order), dtype=np.int64)
        columns[order] = np.arange(len(order))

        def rule(words):
            kron = np.zeros(len(words), dtype=np.int64)
            for factor, fuse, pos in zip(factors, rules, local):
                split = [[pos[s] for s in word if s in pos] for word in words]
                kron = kron * factor.n_classes + fuse(split)
            return columns[kron].tolist()

        table = replace(
            combined,
            class_words=[merged[c] for c in order],
            class_sizes=[combined.class_sizes[c] for c in order],
            values=combined.values[:, order],
        )
        return table, rule

    def embedding(self, w: CoxeterMatrix, t1, t2) -> list[int]:
        """Class fusion of W_T1 into W_T2: the class in W_T2 of each T1
        class word."""
        t1, t2 = _nested(t1, t2)
        pos_in_big = {g: i for i, g in enumerate(t2)}
        words = [[pos_in_big[t1[p]] for p in word] for word in self.table(w, t1).class_words]
        return self._fuse(w.submatrix(t2), words)

    def induction(self, w: CoxeterMatrix, t1, t2) -> IntMatrix:
        """Induction multiplicities R(W_T1) -> R(W_T2) for T1 inside T2."""
        t1, t2 = _nested(t1, t2)
        key = (w.submatrix(t2).m, tuple(t2.index(g) for g in t1))
        if key not in self._inductions:
            emb = self.embedding(w, t1, t2)
            self._inductions[key] = induction_matrix(
                self.table(w, t1), self.table(w, t2), emb
            )
        return self._inductions[key]
