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
(radix = orbit size) into an int64.  The closure numbers elements by key
as it meets them and records the Cayley graph: the shortlex tree (parent
and last letter of each element) and the tables of x s, s x and x^-1.
Products, conjugation and words are then exact integer gathers; the
sorted keys serve the few bulk lookups of arbitrary root images.

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
    """Finite parabolic W_T realized on its root system, with its Cayley graph.

    perms[k] is the permutation of the root list given by element k, as an
    int32 row; roots 0..rank-1 are the simple roots.  Generators are
    addressed by position (0..rank-1).  Elements are numbered in (length,
    word) order of their shortlex-least words, so element 0 is the
    identity, and those words form a tree: element x != 0 is
    parent[x] . s_letter[x].  The int32 tables right[x, s] = x . s_s,
    left[x, s] = s_s . x and inv[x] = x^-1 answer products by gathers.

    An element's key packs its simple-root images: root_place[r] is the
    place of root r inside its W-orbit and key_weights[i] the mixed-radix
    weight of simple root i, so the key of row x is
    root_place[x[:rank]] @ key_weights.  sorted_keys and key_elements map
    keys to elements, for lookup.
    """

    members: tuple[int, ...]
    order: int
    perms: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    right: np.ndarray
    left: np.ndarray
    inv: np.ndarray
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

    @property
    def gen_elements(self) -> tuple[int, ...]:
        return tuple(self.right[0].tolist())

    def word(self, e: int) -> tuple[int, ...]:
        """Shortlex-least word of element e, read off the tree."""
        letters = []
        while e:
            letters.append(int(self.letter[e]))
            e = self.parent[e]
        return tuple(reversed(letters))

    def evaluate_word(self, word, start: int = 0) -> int:
        """Element index of start . s_word[0] ... s_word[-1]."""
        cur = start
        for s in word:
            cur = self.right[cur, s]
        return int(cur)

    def mult(self, i: int, j: int) -> int:
        """Index of element i . j (i applied after j)."""
        return self.evaluate_word(self.word(j), i)

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Element indices of rows of root images, by binary search on
        the keys, queried in ascending order.  Only the first rank columns
        (the simple roots) are read, and image i must lie in the orbit of
        simple root i, as it does for any product of elements.
        ConsistencyError when a key belongs to no element."""
        keys = self.root_place[np.asarray(images)[..., : self.rank]] @ self.key_weights
        flat = keys.ravel()
        ascending = np.argsort(flat)
        pos = np.empty_like(ascending)
        pos[ascending] = np.searchsorted(self.sorted_keys, flat[ascending])
        np.minimum(pos, self.order - 1, out=pos)
        if not np.array_equal(self.sorted_keys[pos], flat):
            raise ConsistencyError("root images outside the group")
        return self.key_elements[pos].reshape(keys.shape)


def _close_roots(b: np.ndarray):
    """Close the simple roots under the reflections s_i(v) = v - 2 B(a_i, v)
    a_i, one layer at a time, in simple-root coordinates.

    Returns the generators as permutations of the roots, gen_perms[i, r]
    being the index of s_i(root r), and each root's W-orbit label (the
    least simple root in its orbit): a new root inherits its parent's
    orbit, and an image that is already known joins the two.
    """
    k = len(b)
    eye = np.eye(k)
    # stacked[:, i k : (i + 1) k] is the transpose of s_i's matrix
    stacked = (eye[:, None, :] - 2.0 * eye[None, :, :] * b.T[:, :, None]).reshape(k, k * k)
    frontier = eye
    layers = [frontier]
    all_images = []
    root_index = {key: r for r, key in enumerate(_root_keys(frontier))}
    targets: list[int] = []  # index of s_i(root r) at r * k + i
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
        all_images.append(images)
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
            targets.append(r)
        frontier = images.take(fresh, axis=0)
        frontier_ids = fresh_ids
        layers.append(frontier)
    # new roots are numbered consecutively, so the frontiers' images come
    # in (root, generator) order
    roots = np.vstack(layers)
    targets = np.array(targets, dtype=np.int32)
    if np.max(np.abs(np.vstack(all_images) - roots.take(targets, axis=0))) > _MATCH_TOL:
        raise ConsistencyError("root matching exceeded tolerance")
    return targets.reshape(-1, k).T, [find(o) for o in orbit]


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
        empty = np.zeros((1, 0), dtype=np.int32)
        return GroupModel(
            members=t,
            order=1,
            perms=empty,
            parent=np.zeros(1, dtype=np.int32),
            letter=np.zeros(1, dtype=np.int32),
            right=empty,
            left=empty,
            inv=np.zeros(1, dtype=np.int32),
            root_place=np.zeros(0, dtype=np.int64),
            key_weights=np.zeros(0, dtype=np.int64),
            sorted_keys=np.zeros(1, dtype=np.int64),
            key_elements=np.zeros(1, dtype=np.int64),
        )

    gen_perms, orbit = _close_roots(cosine_matrix(w, t))
    nroots = gen_perms.shape[1]

    # key digits: the place of each root inside its orbit
    places = []
    orbit_size = [0] * k
    for o in orbit:
        places.append(orbit_size[o])
        orbit_size[o] += 1
    root_place = np.array(places, dtype=np.int64)
    weights = [1] * k
    for i in range(1, k):
        weights[i] = weights[i - 1] * orbit_size[orbit[i - 1]]
    key_span = weights[-1] * orbit_size[orbit[k - 1]]
    if key_span > 2**63:
        raise ResourceCapError(
            f"element keys need {(key_span - 1).bit_length()} bits; an int64 holds 63"
        )
    key_weights = np.array(weights, dtype=np.int64)

    # close the elements layer by layer.  Candidates x . s come in
    # (x, s) order and each new key is numbered where it is first seen,
    # so elements come in (length, word) order and an element's first
    # candidate is its tree edge, recorded as the flat index x k + s into
    # right.  Every candidate resolves to an element, which fills right.
    # Gathers go through take, whose fixed cost is far below fancy
    # indexing on the many tiny parabolics.
    perms = np.empty((order, nroots), dtype=np.int32)
    perms[0] = np.arange(nroots)
    right = np.empty((order, k), dtype=np.int32)
    edge = np.zeros(order, dtype=np.int32)
    # key -> element, in element order; the identity's key first
    index = {sum(p * wt for p, wt in zip(places, weights)): 0}
    simple_images = gen_perms[:, :k].ravel()  # s_s(a_i) at s k + i
    layers = [0]
    start, stop = 0, 1
    while start < stop:
        frontier = perms[start:stop]
        cand_images = root_place.take(frontier.take(simple_images, axis=1))
        cand_keys = cand_images.reshape(-1, k).dot(key_weights)
        found = np.array([index.setdefault(key, len(index)) for key in cand_keys.tolist()])
        end = len(index)
        if end > order:
            raise ConsistencyError(f"closure exceeded the classified order {order}")
        right[start:stop] = found.reshape(-1, k)
        # new element n is first seen where the running maximum reaches n
        fresh = np.maximum.accumulate(found).searchsorted(np.arange(stop, end))
        edge[stop:end] = fresh + start * k
        src = fresh // k
        perms[stop:end] = frontier.take(src[:, None] * nroots + gen_perms.take(fresh % k, axis=0))
        layers.append(stop)
        start, stop = stop, end
    if stop != order:
        raise ConsistencyError(
            f"closure produced {stop} elements, classification says {order}"
        )

    # left and inv layer by layer from s (p t) = (s p) t and
    # (p t)^-1 = t p^-1, as flat gathers
    parent, letter = np.divmod(edge, k)
    left = np.empty_like(right)
    inv = np.zeros(order, dtype=np.int32)
    left[0] = right[0]
    right_flat, left_flat = right.ravel(), left.ravel()
    for a, b in zip(layers[1:], layers[2:]):
        par, let = parent[a:b], letter[a:b]
        left[a:b] = right_flat.take(left.take(par, axis=0) * k + let[:, None])
        inv[a:b] = left_flat.take(inv.take(par) * k + let)

    key_array = np.fromiter(index, dtype=np.int64, count=order)
    key_elements = np.argsort(key_array)
    return GroupModel(
        members=t,
        order=order,
        perms=perms,
        parent=parent,
        letter=letter,
        right=right,
        left=left,
        inv=inv,
        root_place=root_place,
        key_weights=key_weights,
        sorted_keys=key_array.take(key_elements),
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

    Conjugation by s is x -> (s x) s, two gathers from the Cayley tables.
    Every element is labelled with the least element index seen in its
    orbit so far: labels take the minimum over these maps and then jump
    to their label's label, until nothing changes.  Elements are numbered
    in (length, word) order, so each orbit's label is its canonical
    representative and the classes sort by it.
    """
    n = model.order
    right_cols, left_cols = model.right.T, model.left.T
    conj = [right_cols[s].take(left_cols[s]) for s in range(model.rank)]
    labels = np.arange(n)
    while True:
        nxt = labels
        for c in conj:
            nxt = np.minimum(nxt, nxt.take(c))
        nxt = nxt.take(nxt)
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    reps = np.flatnonzero(labels == np.arange(n))
    relabel = np.zeros(n, dtype=np.int32)
    relabel[reps] = np.arange(len(reps), dtype=np.int32)
    class_of = relabel[labels]
    return ConjugacyClasses(
        reps=reps.tolist(),
        rep_words=[model.word(e) for e in reps.tolist()],
        sizes=np.bincount(class_of, minlength=len(reps)).tolist(),
        class_of=class_of,
    )
