"""Concrete models of finite standard parabolics as root permutations.

W_T acts on its root system in the reflection representation; each
generator s_i sends v to v - 2 B(a_i, v) a_i.  The full root set is the
closure of the simple roots under the generators, computed layer by layer
in simple-root coordinates with a matching tolerance.  Elements are then
stored as exact permutations of the root list, so everything downstream
(multiplication, conjugacy, character work) is integer-exact; floats only
enter while the root set is being built.

An element is fixed by its images of the simple roots, and w(a_i) lies in
the W-orbit of a_i.  So each element gets one integer key: digit i is the
place of w(a_i) inside that orbit, and the digits are packed mixed-radix
(radix = orbit size) into an int64.  Scalar products look keys up in a
dict; bulk work looks whole arrays of keys up with one binary search.

Generators inside a model are addressed by *position* in the sorted
subset, which makes models reusable across systems that induce the same
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterMatrix, canonical_subset, cosine_matrix, spherical_order
from .errors import ConsistencyError, ContractError, ResourceCapError

DEFAULT_ORDER_CAP = 14400

_MATCH_TOL = 1.0e-9
_KEY_DECIMALS = 6  # root coordinates of the finite types are >> 1e-6 apart


def _root_keys(vecs: np.ndarray) -> list[tuple]:
    """Hashable rounded keys of root vectors, one per row."""
    rounded = np.round(vecs, _KEY_DECIMALS) + 0.0  # + 0.0 normalizes -0.0
    return [tuple(row) for row in rounded.tolist()]


@dataclass
class GroupModel:
    """Finite parabolic W_T realized on its root system.

    perms[k] is the permutation of the root list given by element k, as an
    int32 row; roots 0..rank-1 are the simple roots.  words[k] is a
    defining word in generator positions (0..len(members)-1), shortest for
    its element; elements are numbered in (length, word) order, so element
    0 is the identity.

    An element's key packs its simple-root images: root_place[r] is the
    place of root r inside its W-orbit and key_weights[i] the mixed-radix
    weight of simple root i, so the key of row x is
    root_place[x[:rank]] @ key_weights.  index maps keys to elements;
    sorted_keys and key_elements hold the same map as arrays, for lookup.
    """

    members: tuple[int, ...]
    order: int
    perms: np.ndarray
    words: list[tuple[int, ...]]
    index: dict[int, int]
    gen_elements: tuple[int, ...]
    root_place: np.ndarray
    key_weights: np.ndarray
    sorted_keys: np.ndarray
    key_elements: np.ndarray

    @property
    def nroots(self) -> int:
        return self.perms.shape[1]

    @property
    def rank(self) -> int:
        return len(self.members)

    def _key(self, simple_images: np.ndarray) -> int:
        return int(self.root_place[simple_images] @ self.key_weights)

    def mult(self, i: int, j: int) -> int:
        """Index of element i . j (i applied after j)."""
        return self.index[self._key(self.perms[i][self.perms[j, : self.rank]])]

    def inverse(self, i: int) -> int:
        return self.index[self._key(np.argsort(self.perms[i])[: self.rank])]

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Element indices of rows of root images, by binary search on
        the keys.  Only the first rank columns (the simple roots) are
        read, and image i must lie in the orbit of simple root i, as it
        does for any product of elements.  ConsistencyError when a key
        belongs to no element."""
        keys = self.root_place[np.asarray(images)[..., : self.rank]] @ self.key_weights
        pos = np.searchsorted(self.sorted_keys, keys)
        np.minimum(pos, self.order - 1, out=pos)
        if not np.array_equal(self.sorted_keys[pos], keys):
            raise ConsistencyError("root images outside the group")
        return self.key_elements[pos]

    def evaluate_word(self, word) -> int:
        """Element index of a product of generator positions."""
        cur = 0
        for pos in word:
            cur = self.mult(cur, self.gen_elements[pos])
        return cur


def _close_roots(reflections: list[np.ndarray]):
    """Close the simple roots under the reflections, one layer at a time.

    Returns the roots as rows, the map from root keys to root indices,
    and each root's W-orbit label (the least simple root in its orbit): a
    new root inherits its parent's orbit, and an image that is already
    known joins the two.
    """
    k = len(reflections)
    stacked = np.hstack([mat.T for mat in reflections])  # (k, k * k)
    frontier = np.eye(k)
    layers = [frontier]
    root_index = {key: r for r, key in enumerate(_root_keys(frontier))}
    orbit = list(range(k))  # orbit label of each root
    joined = list(range(k))  # union-find over the simple roots' labels

    def find(a: int) -> int:
        while joined[a] != a:
            joined[a] = joined[joined[a]]
            a = joined[a]
        return a

    frontier_ids = list(range(k))
    while frontier_ids:
        images = (frontier @ stacked).reshape(-1, k)  # (parent, generator) rows
        fresh, fresh_ids = [], []
        for c, key in enumerate(_root_keys(images)):
            src = orbit[frontier_ids[c // k]]
            r = root_index.get(key)
            if r is None:
                r = len(orbit)
                root_index[key] = r
                orbit.append(src)
                fresh.append(c)
                fresh_ids.append(r)
            else:
                a, b = find(src), find(orbit[r])
                joined[max(a, b)] = min(a, b)
        frontier = images[fresh]
        frontier_ids = fresh_ids
        layers.append(frontier)
    return np.vstack(layers), root_index, [find(o) for o in orbit]


def realize_group(
    w: CoxeterMatrix, t, order_cap: int = DEFAULT_ORDER_CAP
) -> GroupModel:
    """Build the root-permutation model of a spherical W_T.

    Raises ResourceCapError when the classified order exceeds order_cap
    or the element keys would not fit an int64 (only E8 among the finite
    types), and ConsistencyError when the closure does not reproduce the
    classified order.
    """
    t = canonical_subset(t)
    order = spherical_order(w, t)
    if order is None:
        raise ContractError(f"subset {t} is not spherical")
    if order > order_cap:
        raise ResourceCapError(
            f"|W_T| = {order} exceeds the order cap {order_cap}"
        )
    k = len(t)
    if k == 0:
        return GroupModel(
            members=t,
            order=1,
            perms=np.zeros((1, 0), dtype=np.int32),
            words=[()],
            index={0: 0},
            gen_elements=(),
            root_place=np.zeros(0, dtype=np.int64),
            key_weights=np.zeros(0, dtype=np.int64),
            sorted_keys=np.zeros(1, dtype=np.int64),
            key_elements=np.zeros(1, dtype=np.int64),
        )

    b = cosine_matrix(w, t)
    reflections = []
    for i in range(k):
        mat = np.eye(k)
        mat[i, :] -= 2.0 * b[i, :]
        reflections.append(mat)
    roots, root_index, orbit = _close_roots(reflections)

    nroots = len(roots)
    gen_perms = np.zeros((k, nroots), dtype=np.int32)
    for i, mat in enumerate(reflections):
        images = roots @ mat.T
        targets = [root_index.get(key) for key in _root_keys(images)]
        if None in targets:
            raise ConsistencyError("root set failed to close")
        if np.max(np.abs(images - roots[targets])) > _MATCH_TOL:
            raise ConsistencyError("root matching exceeded tolerance")
        gen_perms[i] = targets

    # key digits: the place of each root inside its orbit
    root_place = np.zeros(nroots, dtype=np.int64)
    orbit_size = [0] * k
    for r, o in enumerate(orbit):
        root_place[r] = orbit_size[o]
        orbit_size[o] += 1
    weights = [1] * k
    for i in range(1, k):
        weights[i] = weights[i - 1] * orbit_size[orbit[i - 1]]
    key_span = weights[-1] * orbit_size[orbit[k - 1]]
    if key_span > 2**63:
        raise ResourceCapError(
            f"element keys need {(key_span - 1).bit_length()} bits; an int64 holds 63"
        )
    key_weights = np.array(weights, dtype=np.int64)

    # close the elements layer by layer: candidates in (parent, generator)
    # order keep the words shortest and in (length, word) order
    perms = np.empty((order, nroots), dtype=np.int32)
    perms[0] = np.arange(nroots)
    words: list[tuple[int, ...]] = [()]
    index = {int(root_place[:k] @ key_weights): 0}  # in element order
    gen_simple = gen_perms[:, :k]
    start, stop = 0, 1
    while start < stop:
        frontier = perms[start:stop]
        cand_keys = (root_place[frontier[:, gen_simple]] @ key_weights).ravel()
        fresh = []
        for c, key in enumerate(cand_keys.tolist()):
            if key not in index:
                n = len(words)
                if n >= order:
                    raise ConsistencyError(
                        f"closure exceeded the classified order {order}"
                    )
                index[key] = n
                words.append(words[start + c // k] + (c % k,))
                fresh.append(c)
        fresh = np.array(fresh, dtype=np.int64)
        end = stop + len(fresh)
        perms[stop:end] = frontier[(fresh // k)[:, None], gen_perms[fresh % k]]
        start, stop = stop, end
    if len(words) != order:
        raise ConsistencyError(
            f"closure produced {len(words)} elements, classification says {order}"
        )

    key_array = np.fromiter(index, dtype=np.int64, count=order)
    key_elements = np.argsort(key_array)
    gen_keys = (root_place[gen_simple] @ key_weights).tolist()
    return GroupModel(
        members=t,
        order=order,
        perms=perms,
        words=words,
        index=index,
        gen_elements=tuple(index[key] for key in gen_keys),
        root_place=root_place,
        key_weights=key_weights,
        sorted_keys=key_array[key_elements],
        key_elements=key_elements,
    )


@dataclass
class ConjugacyClasses:
    """Conjugacy classes in canonical order.

    Classes are sorted by (word length, word) of their representative,
    the representative being the member with the least such key; the
    identity class is first.  class_of[k] is the class index of element k.
    """

    reps: list[int]
    rep_words: list[tuple[int, ...]]
    sizes: list[int]
    class_of: np.ndarray

    @property
    def count(self) -> int:
        return len(self.reps)


def conjugacy_classes(model: GroupModel) -> ConjugacyClasses:
    """Orbits under conjugation by the (involutive) generators.

    Each generator g gives x -> g x g as an index array, from one batched
    lookup.  Every element is labelled with the least element index seen
    in its orbit so far: labels take the minimum over these maps and then
    jump to their label's label, until nothing changes.  Elements are
    numbered in (length, word) order, so each orbit's label is its
    canonical representative and the classes sort by it.
    """
    n = model.order
    perms = model.perms
    conj = []
    for g in model.gen_elements:
        pg = perms[g]
        conj.append(model.lookup(pg[perms[:, pg[: model.rank]]]))
    labels = np.arange(n)
    while True:
        nxt = labels
        for c in conj:
            nxt = np.minimum(nxt, nxt[c])
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    reps = np.flatnonzero(labels == np.arange(n))
    relabel = np.zeros(n, dtype=np.int32)
    relabel[reps] = np.arange(len(reps), dtype=np.int32)
    class_of = relabel[labels]
    return ConjugacyClasses(
        reps=reps.tolist(),
        rep_words=[model.words[e] for e in reps.tolist()],
        sizes=np.bincount(class_of, minlength=len(reps)).tolist(),
        class_of=class_of,
    )
