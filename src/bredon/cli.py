"""Command-line interface.

Subcommands: classify (spherical structure), homology (Bredon homology
and K-theory by one or several routes), cells (the cubical cell
structure and boundary blocks), validate (run a corpus of systems
with known answers).  JSON output is schema-stable and byte-deterministic
for a fixed input, which is why wall-clock timings appear only in text
output.  One writer, _json_text, emits every JSON report with the bytes
of json.dumps(report, sort_keys=True, indent=2): sorted keys, two-space
indent, ASCII escapes.  Dumped table values are rounded to 6 decimals,
with -0.0 written as 0.0.

Exit codes: 0 success, 2 validation or cross-method discrepancy,
3 resource cap exceeded, 4 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from .abelian import FgAbGroup, HomologyProfile
from .chains import _layout, assemble_complex, boundary, build_cells
from .characters import RepRingCache
from .coxeter import CoxeterMatrix, SphericalPoset, enumerate_spherical, parse_matrix
from .errors import (
    ConsistencyError,
    ContractError,
    MatrixError,
    ResourceCapError,
)
from .formulas import (
    applicable_closed_forms,
    closed_form_homology,
    diagram_factors,
    k_homology,
    kunneth_product,
)
from .groups import DEFAULT_ORDER_CAP

EXIT_OK = 0
EXIT_DISCREPANCY = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with code 2
        raise _UsageError(message)


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixError(f"{path} is not valid JSON: {exc}") from exc


def load_system(path: str) -> CoxeterMatrix:
    """Read {"rank": N, "m": [[...]]} with 0 standing for infinity."""
    return system_from_json(_read_json(path), origin=path)


def system_from_json(data, origin: str) -> CoxeterMatrix:
    if not isinstance(data, dict) or "m" not in data:
        raise MatrixError(f'{origin} must be an object with an "m" matrix')
    w = parse_matrix(data["m"])
    rank = data.get("rank", w.rank)
    if type(rank) is not int:  # bool is a subclass of int
        raise MatrixError(f'{origin}: "rank" must be an integer, got {rank!r}')
    if rank != w.rank:
        raise MatrixError(f'{origin}: "rank" is {rank} but the matrix has size {w.rank}')
    return w


# ---------------------------------------------------------------------------
# homology pipeline shared by cmd_homology and cmd_validate
# ---------------------------------------------------------------------------


METHODS = ("auto", "chain", "closed", "kunneth")

# why a single-route method has nothing to run on a system
_NO_ROUTE = {
    "closed": (
        "no closed form applies to this system; available routes "
        "are --method chain (exact, any system) or --method auto"
    ),
    "kunneth": (
        "the diagram is connected, so there is no product "
        "decomposition for the Kunneth route"
    ),
}


def _run_route(
    name: str,
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset,
) -> HomologyProfile:
    """Homology of w along one route; raises ResourceCapError above
    rings.order_cap.  The chain route reduces the Morse complex of the
    cubical cells (assemble_complex)."""
    if name == "chain":
        max_parabolic = max(poset.orders.values())
        if max_parabolic > rings.order_cap:
            raise ResourceCapError(
                f"largest spherical parabolic has order {max_parabolic}, "
                f"above the cap {rings.order_cap}"
            )
        return assemble_complex(w, rings, poset).homology()
    if name == "kunneth":
        combined = None
        for factor in diagram_factors(w):
            part = _factor_profile(w, factor, rings)
            combined = part if combined is None else kunneth_product(combined, part)
        return combined
    return closed_form_homology(w, name.split(":", 1)[1], poset, rings)


def _factor_profile(w, factor, rings):
    """Homology of one connected factor by the first route that fits the cap."""
    sub = w.submatrix(factor)
    sub_poset = enumerate_spherical(sub)
    closed = applicable_closed_forms(sub, sub_poset.full_order)
    for name in ["chain", *(f"closed:{n}" for n in closed)]:
        try:
            return _run_route(name, sub, rings, sub_poset)
        except ResourceCapError:
            continue
    raise ResourceCapError(
        f"no route fits factor {factor} under order cap {rings.order_cap}"
    )


def run_analysis(
    w: CoxeterMatrix,
    rings: RepRingCache,
    poset: SphericalPoset | None = None,
    method: str = "auto",
    max_degree: int | None = None,
):
    """Run the requested homology routes and reconcile them.

    The routes are the applicable closed forms, then kunneth when the
    diagram splits, then chain; method "auto" runs them all and any other
    method the ones it names.  The chain route reduces the Morse complex
    of the chamber's cubical cells (one cell per interval [T, U] of
    spherical subsets, which the cell dumps print): one block per
    critical cell, joined by path counts times inductions.  A route above
    rings.order_cap is listed under "skipped", but a plan of one route
    (chain, kunneth, or closed with one form) raises unless the method
    is auto.
    Returns (report dict, timings dict, exit code).  The report is fully
    JSON-serializable and deterministic; timings are text-mode garnish.
    """
    if method not in METHODS:
        raise ContractError(f"unknown method {method!r}")
    if poset is None:
        poset = enumerate_spherical(w)
    if max_degree is None:
        max_degree = w.rank
    full_order = poset.full_order
    routes = [f"closed:{name}" for name in applicable_closed_forms(w, full_order)]
    if len(diagram_factors(w)) >= 2:
        routes.append("kunneth")
    routes.append("chain")
    plan = [name for name in routes if method in ("auto", name.split(":")[0])]
    if not plan:
        raise ContractError(_NO_ROUTE[method])

    profiles: dict[str, HomologyProfile] = {}
    skipped: dict[str, str] = {}
    timings: dict[str, float] = {}
    for name in plan:
        start = time.perf_counter()
        try:
            profiles[name] = _run_route(name, w, rings, poset)
        except ResourceCapError as exc:
            if method != "auto" and len(plan) == 1:
                raise
            skipped[name] = str(exc)
            continue
        timings[name] = time.perf_counter() - start

    discrepancies: list[dict] = []
    names = list(profiles)
    for other in names[1:]:
        a, b = profiles[names[0]], profiles[other]
        for d in sorted(set(a.groups) | set(b.groups)):
            if a.group_at(d) != b.group_at(d):
                discrepancies.append(
                    {
                        "methods": [names[0], other],
                        "degree": d,
                        "values": [str(a.group_at(d)), str(b.group_at(d))],
                    }
                )

    agreed = profiles[names[0]] if profiles and not discrepancies else None
    verdict = k_homology(agreed) if agreed is not None else None

    report = {
        "input": {"rank": w.rank, "m": w.to_raw()},
        "parameters": {
            "method": method,
            "order_cap": rings.order_cap,
            "max_degree": max_degree,
        },
        "classification": {
            "finite": full_order is not None,
            "order": full_order,
            "spherical_counts": poset.counts,
        },
        "methods": {
            name: {"homology": prof.truncated(max_degree).to_json()}
            for name, prof in profiles.items()
        },
        "skipped": skipped,
        "discrepancies": discrepancies,
        "homology": agreed.truncated(max_degree).to_json() if agreed else None,
        "k_theory": verdict.to_json() if verdict else None,
    }

    if discrepancies:
        code = EXIT_DISCREPANCY
    elif not profiles:
        # a plan of one route raises on a cap unless the method is auto,
        # so no profile means every planned route hit the cap
        code = EXIT_RESOURCE
    else:
        code = EXIT_OK
    return report, timings, code


# ---------------------------------------------------------------------------
# table and cell dumps
# ---------------------------------------------------------------------------


def tables_payload(w: CoxeterMatrix, rings: RepRingCache, poset) -> list[dict]:
    out = []
    for t in poset.subsets:
        table = rings.table(w, t)
        v = table.values
        out.append(
            {
                "members": list(t),
                "type": poset.label_name(t),
                "order": table.order,
                "degrees": list(table.degrees),
                "class_sizes": list(table.class_sizes),
                "class_words": [
                    [t[p] for p in word] for word in table.class_words
                ],
                # np.round is what round(x, 6) does to each np.float64,
                # and + 0.0 writes -0.0 as 0.0
                "values": (
                    np.stack([np.round(v.real, 6), np.round(v.imag, 6)], axis=-1) + 0.0
                ).tolist(),
            }
        )
    return out


def cells_payload(w: CoxeterMatrix, rings: RepRingCache, poset) -> dict:
    """The cubical cells of w, their blocks' ranks and offsets, and the
    faces of each cell's boundary with their signs and kinds."""
    all_cells = build_cells(poset)
    block_ranks, offsets, dims = _layout(w, rings, all_cells)
    dimensions = []
    for d, level in enumerate(all_cells):
        cells = []
        for ci, (t, u) in enumerate(level):
            cells.append(
                {
                    "interval": [list(t), list(u)],
                    "stabilizer": poset.label_name(t),
                    "block_rank": block_ranks[d][ci],
                    "offset": offsets[d][ci],
                }
            )
        dimensions.append({"dim": d, "cells": cells})
    blocks = []
    for d in range(1, len(all_cells)):
        level_blocks = []
        index_of = {cell: fi for fi, cell in enumerate(all_cells[d - 1])}
        for ci, cell in enumerate(all_cells[d]):
            for face, sign, kind in boundary(cell):
                level_blocks.append(
                    {"cell": ci, "face": index_of[face], "sign": sign, "kind": kind}
                )
        blocks.append({"degree": d, "blocks": level_blocks})
    return {
        "dims": dims,
        "dimensions": dimensions,
        "differentials": blocks,
    }


# ---------------------------------------------------------------------------
# text renderers
# ---------------------------------------------------------------------------


def _classify_text(report: dict, out) -> None:
    cls = report["classification"]
    print(f"rank {report['input']['rank']} system", file=out)
    if cls["finite"]:
        print(f"finite, order {cls['order']}", file=out)
    else:
        print("infinite", file=out)
    print(
        "components: "
        + ", ".join(
            f"{c['type']} on {c['members']}" for c in report["components"]
        ),
        file=out,
    )
    print(f"spherical subset counts by rank: {cls['spherical_counts']}", file=out)
    for level in report["spherical"]["by_rank"]:
        for entry in level:
            members = "{" + ", ".join(str(g + 1) for g in entry["members"]) + "}"
            print(
                f"  {members or '{}':12s} {entry['type']:14s} order {entry['order']}",
                file=out,
            )


def _homology_text(report: dict, timings: dict, out) -> None:
    cls = report["classification"]
    shape = "finite" if cls["finite"] else "infinite"
    print(
        f"rank {report['input']['rank']} system, {shape}; "
        f"spherical counts {cls['spherical_counts']}",
        file=out,
    )
    for name, data in report["methods"].items():
        suffix = f"  ({timings[name]:.2f}s)" if name in timings else ""
        print(f"{name}: {HomologyProfile.from_json(data['homology'])}{suffix}", file=out)
    for name, reason in report["skipped"].items():
        print(f"{name}: skipped ({reason})", file=out)
    if report["discrepancies"]:
        print("DISCREPANCIES:", file=out)
        for d in report["discrepancies"]:
            print(
                f"  degree {d['degree']}: {d['methods'][0]} gives {d['values'][0]}, "
                f"{d['methods'][1]} gives {d['values'][1]}",
                file=out,
            )
    elif report["homology"] is not None:
        print(f"agreed: {HomologyProfile.from_json(report['homology'])}", file=out)
    kt = report.get("k_theory")
    if kt:
        if kt["decided"]:
            print(
                f"K_0 = {FgAbGroup.from_json(kt['K0'])}, "
                f"K_1 = {FgAbGroup.from_json(kt['K1'])}",
                file=out,
            )
            print(f"  ({kt['note']})", file=out)
        else:
            print(f"K-theory undecided: {kt['note']}", file=out)


def _tables_text(tables: list[dict], out) -> None:
    for tab in tables:
        members = "{" + ", ".join(str(g + 1) for g in tab["members"]) + "}"
        print(
            f"table for {members} ({tab['type']}, order {tab['order']}):",
            file=out,
        )
        print(f"  class sizes {tab['class_sizes']}", file=out)
        for degree, row in zip(tab["degrees"], tab["values"]):
            cells = [f"{value:+.3f}" for value, _ in row]  # the imaginary part is 0.0
            print(f"  deg {degree}: " + "  ".join(cells), file=out)


def _cells_text(payload: dict, out) -> None:
    print(f"coordinates per degree: {payload['dims']}", file=out)
    for level in payload["dimensions"]:
        print(f"dimension {level['dim']}:", file=out)
        for ci, cell in enumerate(level["cells"]):
            interval = ", ".join(
                "{" + ",".join(str(g + 1) for g in t) + "}" for t in cell["interval"]
            )
            print(
                f"  [{ci}] [{interval}]  stabilizer {cell['stabilizer']}"
                f"  rank {cell['block_rank']}  offset {cell['offset']}",
                file=out,
            )
    for level in payload["differentials"]:
        print(f"boundary in degree {level['degree']}:", file=out)
        for b in level["blocks"]:
            sign = "-" if b["sign"] < 0 else "+"
            print(
                f"  cell {b['cell']} -> face {b['face']}: {sign}{b['kind']}",
                file=out,
            )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_json_text(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json_text(o, indent: str = "\n") -> str:
    """``json.dumps(o, sort_keys=True, indent=2)``, byte for byte, raising
    TypeError where it does.  With ``indent`` set, json uses its pure-Python
    encoder, a generator per container and a call chain per scalar; this
    joins each container's items at once."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_json_key(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(args, report: dict, text_renderer) -> None:
    # a reader may close the pipe early (`bredon cells x.json | head`):
    # the rest goes to os.devnull, so the interpreter's final flush is
    # quiet and the command keeps its own exit code
    try:
        if args.output == "json":
            print(_json_text(report))
        else:
            text_renderer(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_classify(args) -> int:
    w = load_system(args.input)
    poset = enumerate_spherical(w)
    from .coxeter import classify_irreducible, components

    comps = [
        {"members": list(c), "type": classify_irreducible(w, c).name}
        for c in components(w, w.generators)
    ]
    order = poset.full_order
    report = {
        "input": {"rank": w.rank, "m": w.to_raw()},
        "classification": {
            "finite": order is not None,
            "order": order,
            "spherical_counts": poset.counts,
        },
        "components": comps,
        "spherical": {
            "by_rank": [
                [
                    {
                        "members": list(t),
                        "type": poset.label_name(t),
                        "order": poset.orders[t],
                    }
                    for t in level
                ]
                for level in poset.by_rank
            ]
        },
    }
    _emit(args, report, lambda out: _classify_text(report, out))
    return EXIT_OK


def cmd_homology(args) -> int:
    w = load_system(args.input)
    rings = RepRingCache(args.order_cap)
    poset = enumerate_spherical(w)
    report, timings, code = run_analysis(
        w, rings, poset, method=args.method, max_degree=args.max_degree
    )
    extra_renderers = []
    if args.dump_tables:
        tables = tables_payload(w, rings, poset)
        report["tables"] = tables
        extra_renderers.append(lambda out: _tables_text(tables, out))
    if args.cells:
        cells = cells_payload(w, rings, poset)
        report["cells"] = cells
        extra_renderers.append(lambda out: _cells_text(cells, out))

    def render(out):
        _homology_text(report, timings, out)
        for renderer in extra_renderers:
            renderer(out)

    _emit(args, report, render)
    return code


def cmd_cells(args) -> int:
    w = load_system(args.input)
    rings = RepRingCache(args.order_cap)
    poset = enumerate_spherical(w)
    payload = cells_payload(w, rings, poset)
    report = {"input": {"rank": w.rank, "m": w.to_raw()}, **payload}
    _emit(args, report, lambda out: _cells_text(payload, out))
    return EXIT_OK


def bundled_corpus_dir() -> Path:
    return Path(resources.files("bredon") / "corpus")


_EXPECTED = {"homology": HomologyProfile, "k0": FgAbGroup, "k1": FgAbGroup}


def _check_case(data: dict, origin: str, rings: RepRingCache) -> list[str]:
    """Run one corpus case; returns its failures, empty when it passed."""
    w = system_from_json(data.get("system"), origin=origin)
    expected = data.get("expected", {})
    try:
        unknown = sorted(set(expected) - set(_EXPECTED))
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        wants = {
            key: kind.from_json(expected[key])
            for key, kind in _EXPECTED.items()
            if expected.get(key) is not None
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MatrixError(f"{origin}: malformed expected value: {exc}") from exc
    report, _, code = run_analysis(w, rings)
    detail = []
    if code != EXIT_OK:
        detail.append(f"analysis exit code {code}")
        for d in report["discrepancies"]:
            detail.append(
                f"degree {d['degree']}: "
                f"{d['methods'][0]} {d['values'][0]} vs "
                f"{d['methods'][1]} {d['values'][1]}"
            )
    got = {}
    if report["homology"] is not None:
        got["homology"] = HomologyProfile.from_json(report["homology"])
    kt = report["k_theory"]
    if kt and kt["decided"]:
        got["k0"], got["k1"] = FgAbGroup.from_json(kt["K0"]), FgAbGroup.from_json(kt["K1"])
    for key, want in wants.items():
        if key not in got:
            detail.append(f"{key}: expected {want}, got undecided")
        elif want != got[key]:
            detail.append(f"{key}: expected {want}, got {got[key]}")
    return detail


def cmd_validate(args) -> int:
    directory = Path(args.corpus) if args.corpus else bundled_corpus_dir()
    if not directory.is_dir():
        raise MatrixError(f"{directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise MatrixError(f"no .json cases in {directory}")
    cases = []
    failures = 0
    rings = RepRingCache(args.order_cap)  # keyed by induced matrix and type, so shared
    for path in paths:
        name = path.stem
        try:
            data = _read_json(path)
            if not isinstance(data, dict):
                raise MatrixError(f"{path} is not a JSON object")
            name = data.get("name", name)
            detail = _check_case(data, str(path), rings)
        except (MatrixError, ContractError, ResourceCapError, ConsistencyError) as exc:
            detail = [str(exc)]
        if detail:
            failures += 1
        cases.append({"name": name, "ok": not detail, "detail": detail})
    report = {
        "corpus": str(directory),
        "cases": cases,
        "failures": failures,
    }

    def render(out):
        for case in cases:
            mark = "ok  " if case["ok"] else "FAIL"
            print(f"{mark} {case['name']}", file=out)
            for line in case["detail"]:
                print(f"      {line}", file=out)
        print(f"{len(cases) - failures}/{len(cases)} cases passed", file=out)

    _emit(args, report, render)
    return EXIT_OK if failures == 0 else EXIT_DISCREPANCY


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bredon",
        description="Bredon homology and K-theory of Coxeter systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--output", choices=("json", "text"), default="text",
            help="report format (default text)",
        )

    p = sub.add_parser("classify", help="spherical subsets and finite types")
    p.add_argument("input", help="JSON file with rank and Coxeter matrix")
    common(p)

    p = sub.add_parser("homology", help="Bredon homology and K-theory")
    p.add_argument("input")
    p.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="computation route (auto runs every applicable one)",
    )
    p.add_argument("--max-degree", type=int, default=None,
                   help="highest degree to report (default: the rank)")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
                   help="largest parabolic order the chain route may realize")
    p.add_argument("--dump-tables", action="store_true",
                   help="include all character tables in the report")
    p.add_argument("--cells", action="store_true",
                   help="include the cubical cell structure in the report")
    common(p)

    p = sub.add_parser("cells", help="cubical cell structure and boundary blocks")
    p.add_argument("input")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    common(p)

    p = sub.add_parser("validate", help="run a corpus of known answers")
    p.add_argument("corpus", nargs="?", default=None,
                   help="directory of case files (default: bundled corpus)")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    common(p)
    return parser


# built once per process: parse_args fills a fresh namespace on every
# call and leaves the parser as it was
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        for option, low in (("order_cap", 1), ("max_degree", 0)):
            value = getattr(args, option, None)
            if value is not None and value < low:
                _PARSER.error(f"--{option.replace('_', '-')} must be at least {low}, got {value}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # the command is looked up when it runs, so the parser holds no
    # function and a wrapper put on cmd_<command> later is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (MatrixError, ContractError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY


if __name__ == "__main__":
    sys.exit(main())
