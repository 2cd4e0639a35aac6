"""Closed-form class data against realized models.

The trivial group, A1, I2(m) and the direct products get their classes,
tables and class fusion from formulas, without a group model.  Here each
such type is realized after all and the formulas are checked against
conjugacy_classes of the model: class words, sizes and order, the class
of every element's word, and the fusion of every sub-parabolic's class
words.  The character values are checked against dixon_table, Burnside's
eigenvectors on the same model, column by column.
"""

import itertools
import json
from pathlib import Path

import pytest

from bredon.characters import RepRingCache, dixon_table
from bredon.coxeter import classify_subset, components, enumerate_spherical, parse_matrix
from bredon.groups import conjugacy_classes, realize_group

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pinned.json"


def _from_key(key: str) -> list[list[int]]:
    """Coxeter matrix of a pinned class key "rank:upper triangle", one
    digit per label read row by row, 0 meaning infinity."""
    rank, digits = key.split(":")
    n = int(rank)
    m = [[1] * n for _ in range(n)]
    for (i, j), c in zip(itertools.combinations(range(n), 2), digits):
        m[i][j] = m[j][i] = int(c)
    return m


def _pinned_reducible_types() -> list[list[list[int]]]:
    """Induced matrices of the reducible spherical subsets of the pinned
    rank-3 and rank-4 classes."""
    found = set()
    for key in json.loads(PINNED.read_text())["answers"]:
        if key.split(":")[0] not in ("3", "4"):
            continue
        w = parse_matrix(_from_key(key))
        for t in enumerate_spherical(w).subsets:
            if len(components(w, t)) > 1:
                found.add(tuple(map(tuple, w.submatrix(t).to_raw())))
    return sorted(list(map(list, m)) for m in found)


def _relabelled(types) -> list[list[list[int]]]:
    """Every ordering of the generators of every type: the orderings
    interleave the components' positions in every possible way."""
    found = set()
    for rows in types:
        for perm in itertools.permutations(range(len(rows))):
            found.add(tuple(tuple(rows[i][j] for j in perm) for i in perm))
    return sorted(list(map(list, m)) for m in found)


IRREDUCIBLE = [[[1]]] + [[[1, m], [m, 1]] for m in range(3, 13)]  # A1, I2(m)
PINNED_PRODUCTS = _pinned_reducible_types()  # I2(2) = A1 x A1 among them


def _name(rows) -> str:
    w = parse_matrix(rows)
    return " x ".join(c.name for c in classify_subset(w, w.generators)) + f" {rows}"


def test_pinned_reducible_types_cover_the_rank4_products():
    names = {_name(rows).split(" [")[0] for rows in PINNED_PRODUCTS}
    assert [[1, 2], [2, 1]] in PINNED_PRODUCTS
    assert {"A1 x A1 x A1 x A1", "A1 x H3", "I2(6) x I2(6)", "A1 x A1 x I2(5)"} <= names


def test_trivial_group_matches_its_model():
    w = parse_matrix([[1]])
    table = RepRingCache().table(w, ())
    classes = conjugacy_classes(realize_group(w.submatrix(())))
    assert table.order == 1
    assert (table.class_words, table.class_sizes) == (classes.rep_words, classes.sizes)


def _realized(rows):
    w = parse_matrix(rows)
    model = realize_group(w)
    return w, model, conjugacy_classes(model)


@pytest.mark.parametrize("rows", IRREDUCIBLE + _relabelled(PINNED_PRODUCTS), ids=_name)
def test_closed_form_classes_and_fusion_match_the_model(rows):
    w, model, classes = _realized(rows)
    gens = w.generators
    rings = RepRingCache()
    table = rings.table(w, gens)
    assert table.order == model.order
    assert table.class_words == classes.rep_words
    assert table.class_sizes == classes.sizes

    # every element's word, plus words that are not reduced: the element
    # times its inverse, and a full turn of the first two generators
    words = [model.word(e) for e in range(model.order)]
    assert rings._fuse(w, words) == classes.class_of.tolist()
    extra = [word + word[::-1] for word in words]
    if len(gens) > 1:
        extra.append((0, 1) * model.order)
    assert rings._fuse(w, extra) == [
        int(classes.class_of[model.evaluate_word(word)]) for word in extra
    ]

    # fusion of every sub-parabolic's class words into the whole group
    for size in range(len(gens)):
        for t1 in itertools.combinations(gens, size):
            sub_words = [tuple(t1[p] for p in word) for word in rings.table(w, t1).class_words]
            expected = [int(classes.class_of[model.evaluate_word(word)]) for word in sub_words]
            assert rings.embedding(w, t1, gens) == expected


@pytest.mark.parametrize("rows", IRREDUCIBLE + PINNED_PRODUCTS, ids=_name)
def test_closed_form_values_match_dixon(rows):
    # the classes are the model's (above), so the columns line up
    w, model, classes = _realized(rows)

    def rows_of(tab):
        return sorted(
            (d, [(round(v.real, 6), round(v.imag, 6)) for v in row])
            for d, row in zip(tab.degrees, tab.values)
        )

    assert rows_of(RepRingCache().table(w, w.generators)) == rows_of(dixon_table(model, classes))
