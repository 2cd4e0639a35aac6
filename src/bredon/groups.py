"""Concrete models of finite standard parabolics as Cayley graphs.

W_T acts on its root system in the reflection representation; each
generator s_i sends v to v - 2 B(a_i, v) a_i.  The full root set is the
closure of the simple roots under the generators, computed layer by layer
in simple-root coordinates with a matching tolerance, and the generators
become exact permutations of the root list; floats only enter while the
root set is being built.

The elements are then closed one length layer at a time.  An element x
is fixed by the images x^-1(a_i) of the k simple roots, and those are
all a layer keeps: (x s)^-1 = s x^-1, so the images for x s are the
generator s's permutation applied to x's, one gather.  w^-1(a_i) lies in
the W-orbit of a_i, so each element gets one integer key: digit i is the
place of w^-1(a_i) inside that orbit, and the digits are packed
mixed-radix (radix = orbit size) into an int64.  The ascents x s of a
layer are numbered with array operations only: one unstable sort of
their keys groups equal keys into runs, the minimum of each run is the
key's first ascent, and new elements are numbered in the order of their
first ascents, which keeps the elements in (length, word) order.  Each
run also lists every descent of its new element, so the next layer's
ascents are the products its runs leave open.  Only the Cayley graph
outlives the closure: the last letter of each element's shortlex-least
word and the int32 tables of x s and s x.  Products, conjugation, words
and powers are exact integer gathers on it.  The generators are
involutions, so an element's word is read backwards through right, and
no inverse table is kept: every element of a finite Coxeter group is
conjugate to its inverse, so no class computation needs x^-1.

A model realizes one induced system W_T and addresses its generators by
*position* 0..|T|-1 only, carrying no labels of T, which makes it
reusable across systems that induce the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterMatrix, cosine_matrix, spherical_order
from .errors import ConsistencyError, ContractError, ResourceCapError

DEFAULT_ORDER_CAP = 14400

_MATCH_TOL = 1.0e-9
_KEY_DECIMALS = 6  # root coordinates of the finite types are >> 1e-6 apart


def _root_keys(vecs: np.ndarray) -> list[tuple]:
    """Hashable keys of root vectors, one per row: the coordinates scaled
    by 10^_KEY_DECIMALS and rounded (-0.0 and 0.0 hash alike)."""
    return list(map(tuple, np.rint(vecs * 10.0**_KEY_DECIMALS).tolist()))


@dataclass
class GroupModel:
    """Finite parabolic W_T as its Cayley graph.

    Generators are positions 0..rank-1 and carry no labels.  Elements are
    numbered in (length, word) order of their shortlex-least words, so
    element 0 is the identity and elements 1..rank are the generators,
    and letter[x] is the last letter of x's word.  The int32 tables
    right[x, s] = x . s_s and left[x, s] = s_s . x answer products by
    gathers; since s_s is an involution, x's word without its last letter
    is the word of right[x, letter[x]].
    """

    order: int
    letter: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def rank(self) -> int:
        return self.right.shape[1]

    def word(self, e: int) -> tuple[int, ...]:
        """Shortlex-least word of element e, read backwards through right."""
        letters = []
        while e:
            s = int(self.letter[e])
            letters.append(s)
            e = self.right[e, s]
        return tuple(reversed(letters))

    def evaluate_word(self, word) -> int:
        """Element index of s_word[0] ... s_word[-1]."""
        cur = 0
        for s in word:
            cur = self.right[cur, s]
        return int(cur)


def _close_roots(b: np.ndarray):
    """Close the simple roots under the reflections s_i(v) = v - 2 B(a_i, v)
    a_i, one layer at a time, in simple-root coordinates.

    Returns the generators as permutations of the roots, gen_perms[i, r]
    being the index of s_i(root r), and each root's W-orbit label (the
    least simple root in its orbit).  Roots 0..k-1 are the simple roots.
    A new root inherits its parent's orbit, and an image that is already
    known joins the two.
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
            elif orbit[r] != src:  # equal labels are joined already
                a, b = find(src), find(orbit[r])
                joined[max(a, b)] = min(a, b)
            targets.append(r)
        frontier = images.take(fresh, axis=0)
        frontier_ids = fresh_ids
        layers.append(frontier)
    # new roots are numbered consecutively, so the frontiers' images come
    # in (root, generator) order
    roots = np.concatenate(layers)
    gen_perms = np.array(targets, dtype=np.intp).reshape(-1, k).T
    if np.abs(np.concatenate(all_images) - roots.take(gen_perms.T.reshape(-1), axis=0)).max() > _MATCH_TOL:
        raise ConsistencyError("root matching exceeded tolerance")
    return gen_perms, [find(o) for o in orbit]


def realize_group(w: CoxeterMatrix, order_cap: int = DEFAULT_ORDER_CAP) -> GroupModel:
    """Build the Cayley graph of a spherical W, positioned as w's
    generators, from the images of the simple roots under the inverses
    of its elements.

    Raises ContractError when W is not spherical, ResourceCapError when
    the classified order exceeds order_cap or the element keys would not
    fit an int64 (only E8 among the finite types), and ConsistencyError
    when the closure does not reproduce the classified order or leaves
    an entry of right unresolved.
    """
    t = w.generators
    order = spherical_order(w, t)
    if order is None:
        raise ContractError(f"subset {t} is not spherical")
    if order > order_cap:
        raise ResourceCapError(
            f"|W_T| = {order} exceeds the order cap {order_cap}"
        )
    k = len(t)
    if k == 0:
        zero = np.zeros(1, dtype=np.int32)
        empty = np.zeros((1, 0), dtype=np.int32)
        return GroupModel(order=1, letter=zero, right=empty, left=empty)

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

    # close the elements layer by layer, holding only the images
    # x^-1(a_i) of the simple roots for each x of one length layer (as
    # intp, since take converts any other index type first).
    # (x . s)^-1(a_i) = s_s(x^-1(a_i)), so an ascent's key is one gather
    # from place_flat, and the new elements' images one gather from the
    # generators' permutations.  Ascents come in (x, s) order.  One sort
    # of their keys groups equal keys into runs; the minimum of each run
    # is the key's first ascent, and new elements are numbered in the
    # order of their first ascents, so elements come in (length, word)
    # order and an element's first ascent is its tree edge.  Each x . s
    # = y is also y . s = x, and every descent of y leads back into x's
    # layer, so y's run lists all of them: both entries go into right at
    # once, and the entries of the new layer left at -1 are its ascents.
    # A layer without ascents ends the closure.  Gathers go through take,
    # whose fixed cost is far below fancy indexing on the many tiny
    # parabolics.
    right = np.full((order, k), -1, dtype=np.int32)
    right_flat = right.reshape(-1)
    gen_flat = gen_perms.reshape(-1)
    place_flat = root_place.take(gen_flat)  # the key digit of s_s(root r)
    inv = np.arange(k)[None, :]  # x^-1(a_i) for the layer's x
    layers = [0, 1]
    letters = [np.zeros(1, dtype=np.int32)]  # last letter of each word, by layer
    start, stop = 0, 1
    while stop < order:
        ascents = (right_flat[start * k : stop * k] < 0).nonzero()[0]
        if not len(ascents):
            break
        x, s = np.divmod(ascents, k)
        at = (s * nroots)[:, None] + inv.take(x, axis=0)  # s_s(x^-1(a_i)) in gen_flat
        keys = place_flat.take(at).dot(key_weights)
        by_key = keys.argsort()
        sorted_keys = keys.take(by_key)
        new_run = np.empty(len(keys), dtype=bool)
        new_run[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
        runs = new_run.nonzero()[0]
        end = stop + len(runs)
        if end > order:
            raise ConsistencyError(f"closure exceeded the classified order {order}")
        first = np.minimum.reduceat(by_key, runs)  # each key's first ascent
        by_first = first.argsort()
        heads = first.take(by_first)  # the first ascents, in (x, s) order
        number = np.empty(len(runs), dtype=np.intp)
        number[by_first] = np.arange(stop, end)  # each run's new element
        run_of = np.empty(len(keys), dtype=np.intp)
        run_of[by_key] = new_run.cumsum() - 1
        y = number.take(run_of)  # x . s for each ascent
        right_flat[start * k : stop * k][ascents] = y
        right_flat[y * k + s] = start + x
        letters.append(s.take(heads))
        inv = gen_flat.take(at.take(heads, axis=0))
        layers.append(end)
        start, stop = stop, end
    if stop != order:
        raise ConsistencyError(
            f"closure produced {stop} elements, classification says {order}"
        )
    if right_flat.min() < 0:
        raise ConsistencyError("closure left a product unresolved")
    letter = np.concatenate(letters, dtype=np.int32)
    parent = right_flat.take(np.arange(0, order * k, k) + letter)  # x . s_letter[x], x != 0

    # left layer by layer from s (p t) = (s p) t, as flat gathers into
    # the table.  The tables are scaled by k while left is built, so that
    # each entry is already the flat offset of its row.  Every index is in
    # range, and mode="clip" lets take write straight into out, which the
    # default mode would buffer.
    right_flat *= k
    left = np.empty_like(right)
    left[0] = right[0]
    letter_col = letter[:, None]
    for a, b in zip(layers[1:], layers[2:]):
        par = parent[a:b]
        right_flat.take(left.take(par, axis=0) + letter_col[a:b], out=left[a:b], mode="clip")
    right //= k
    left //= k

    return GroupModel(order=order, letter=letter, right=right, left=left)


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
