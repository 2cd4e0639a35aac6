"""Workload definitions: the systems each workload sends, their CLI
arguments, and where each expected answer comes from.

Every request is one ``bredon homology <file> --output json ...`` call.
A request's expected answer comes from one of two sources:

* ``independent``: a value known without this program, either from the
  bundled known-answer corpus (copied into ``data/corpus.json`` so the
  workload stays fixed) or a class count of a finite Coxeter group;
* ``regression``: a value the seed commit of this repository computed,
  pinned in ``data/pinned.json`` by ``pin.py``.  These are regression
  values, not independent answers; the rank-5 chain system's answer is
  known only from the chain route.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Label set of the generated sweep; 0 encodes the infinite label.
SWEEP_LABELS = (2, 3, 4, 5, 6, 0)
SWEEP_DRAWS = 360  # half rank 3, half rank 4
# Upper bounds (ms) of the cost tiers that stratify the sweep's draws.
TIER_MS = (6, 7, 8.5, 10.5, 13.5, 17.5, 25, 40, 55, 80, 150)
DUMP_SHARE = 4  # one request in DUMP_SHARE adds --dump-tables --cells
DUMP_FLAGS = ("--dump-tables", "--cells")

WORKLOADS = ("finite-groups", "chain-rank5", "small-sweep")


@dataclass
class Request:
    name: str
    matrix: list[list[int]]
    args: tuple[str, ...]
    expected: dict  # {"homology": ..., "k_theory": ...} in answer_of form
    source: str  # "independent" or "regression"

    def argv(self, path: str) -> list[str]:
        return ["homology", path, "--output", "json", *self.args]


def diagram(n: int, edges) -> list[list[int]]:
    """Coxeter matrix on n generators; edges are (i, j, label), all other
    pairs commute."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, label in edges:
        m[i][j] = m[j][i] = label
    return m


def linear(labels) -> list[list[int]]:
    """Coxeter matrix of a path diagram with the given edge labels."""
    return diagram(len(labels) + 1, [(i, i + 1, label) for i, label in enumerate(labels)])


def from_upper(rank: int, labels) -> list[list[int]]:
    """Coxeter matrix from its upper triangle, read row by row."""
    pairs = itertools.combinations(range(rank), 2)
    return diagram(rank, [(i, j, label) for (i, j), label in zip(pairs, labels)])


def canonical_key(m) -> str:
    """Relabelling-invariant key: rank plus the least upper triangle over
    all orderings of the generators."""
    n = len(m)
    best = min(
        tuple(m[p[i]][p[j]] for i in range(n) for j in range(i + 1, n))
        for p in itertools.permutations(range(n))
    )
    return f"{n}:" + "".join(str(v) for v in best)


def _group(g: dict) -> list[int]:
    return [g["free_rank"], *g["torsion"]]


def answer_of(report: dict) -> dict:
    """The checked part of a JSON report, in compact form.

    A group is [free_rank, *torsion] and trivial degrees are dropped;
    K-theory is [K0, K1] when decided and None otherwise.
    """
    hom = report.get("homology")
    kt = report.get("k_theory")
    if hom is not None:
        hom = {d: _group(g) for d, g in hom.items() if _group(g) != [0]}
    return {
        "homology": hom,
        "k_theory": [_group(kt["K0"]), _group(kt["K1"])] if kt and kt["decided"] else None,
    }


def _load(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def _pinned_answer(pinned: dict, m) -> dict:
    entry = pinned["answers"][canonical_key(m)]
    return {"homology": entry["homology"], "k_theory": entry["k_theory"]}


D6 = diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)])
E6 = diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)])

# name -> (matrix, order of W, class count); the class counts of these
# finite groups are classical (Carter 1972).
FINITE = {
    "H4": (linear([5, 3, 3]), 14400, 34),
    "B6": (linear([4, 3, 3, 3, 3]), 46080, 65),
    "D6": (D6, 23040, 37),
    "E6": (E6, 51840, 25),
}

CHAIN = {
    # affine F~4's diagram 3-3-4-3 with its last label made infinite: a
    # rank-5 dense reduction of 1,041 coordinates that takes 1.5-2 s, so a
    # run holds a dozen passes; F~4 itself (2,088 coordinates, 15-20 s)
    # fitted only one or two, too few to measure steadily
    "rank5-334inf": linear([3, 3, 4, 0]),
    "affine-A3": diagram(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3)]),
    "affine-C3": linear([4, 3, 4]),
    "hyperbolic-535": linear([5, 3, 5]),
    "hyperbolic-435": linear([4, 3, 5]),
    "hyperbolic-353": linear([3, 5, 3]),
}


def _finite_groups() -> list[Request]:
    out = []
    for name, (m, order, count) in FINITE.items():
        if name == "H4":
            args = ("--method", "auto")
        else:
            # realize + conjugacy classes only, independent of the default cap
            args = ("--method", "closed", "--order-cap", str(order))
        h0 = {"0": [count]}
        out.append(
            Request(name, m, args, {"homology": h0, "k_theory": [[count], [0]]}, "independent")
        )
    return out


def _chain_rank5(pinned: dict) -> list[Request]:
    return [
        Request(name, m, ("--method", "auto"), _pinned_answer(pinned, m), "regression")
        for name, m in CHAIN.items()
    ]


def _tier(ms: float) -> int:
    return sum(ms > bound for bound in TIER_MS)


def _relabel(rng: random.Random, m) -> list[list[int]]:
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return [[m[p][q] for q in perm] for p in perm]


def _draws(rng: random.Random, pinned: dict, rank: int, n: int) -> list[list[list[int]]]:
    """n Coxeter matrices of the given rank, stratified by cost tier.

    Each tier gets its share of n in proportion to the labellings it
    holds (largest remainder), and within a tier a labelling is drawn
    uniformly: a class by its orbit size, then a random relabelling of
    its generators.  So every labelling keeps, up to rounding, the chance
    it has under uniform sampling, while two seeds draw the same mix of
    cheap and costly systems.
    """
    tiers: dict[int, list[tuple[str, int]]] = {}
    for key, entry in sorted(pinned["answers"].items()):
        if key.startswith(f"{rank}:") and "orbit" in entry:
            tiers.setdefault(_tier(entry["ms"]), []).append((key, entry["orbit"]))
    total = sum(orbit for members in tiers.values() for _, orbit in members)
    quota = {t: n * sum(orbit for _, orbit in members) / total for t, members in tiers.items()}
    counts = {t: int(q) for t, q in quota.items()}
    for t in sorted(quota, key=lambda t: counts[t] - quota[t])[: n - sum(counts.values())]:
        counts[t] += 1
    out = []
    for t in sorted(tiers):
        keys, orbits = zip(*tiers[t])
        for key in rng.choices(keys, orbits, k=counts[t]):
            labels = [int(c) for c in key.split(":")[1]]
            out.append(_relabel(rng, from_upper(rank, labels)))
    return out


def _small_sweep(pinned: dict, seed: int) -> list[Request]:
    rng = random.Random(seed)
    corpus = []
    for case in _load("corpus.json"):
        exp = case["expected"]
        expected = answer_of(
            {
                "homology": exp["homology"],
                "k_theory": {"decided": True, "K0": exp["k0"], "K1": exp["k1"]},
            }
        )
        corpus.append(Request(case["name"], case["system"]["m"], (), expected, "independent"))
    groups = [corpus]
    for rank in (3, 4):
        groups.append(
            [
                Request(f"rank{rank}-{i}", m, (), _pinned_answer(pinned, m), "regression")
                for i, m in enumerate(_draws(rng, pinned, rank, SWEEP_DRAWS // 2))
            ]
        )
    out = []
    for group in groups:
        # every DUMP_SHARE-th request of each group, which is in tier order
        offset = rng.randrange(DUMP_SHARE)
        for i, req in enumerate(group):
            if (i + offset) % DUMP_SHARE == 0:
                req.args = DUMP_FLAGS
        out.extend(group)
    rng.shuffle(out)
    return out


def build(workload: str, seed: int) -> list[Request]:
    """The requests of one pass, in the order they are sent.

    The seed draws the sweep's systems, their labelling, which requests
    dump tables and cells, and the order.  For the two fixed workloads it
    only sets the order: relabelling their generators moves the cost of
    the dense reduction by up to a third, which would drown the figures.
    """
    pinned = _load("pinned.json")
    if workload == "finite-groups":
        requests = _finite_groups()
    elif workload == "chain-rank5":
        requests = _chain_rank5(pinned)
    elif workload == "small-sweep":
        return _small_sweep(pinned, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(requests)
    return requests


def write_inputs(requests: list[Request], directory: Path) -> list[str]:
    """Write one JSON input file per request; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, req in enumerate(requests):
        path = directory / f"{i:04d}-{req.name}.json"
        path.write_text(json.dumps({"rank": len(req.matrix), "m": req.matrix}))
        paths.append(str(path))
    return paths
