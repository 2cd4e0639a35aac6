"""Command-line interface.

Subcommands: classify (spherical structure), homology (Bredon homology
and K-theory by one or several routes), cells (the quotient cell
structure and differential blocks), validate (run a corpus of systems
with known answers).  JSON output is schema-stable and byte-deterministic
for a fixed input, which is why wall-clock timings appear only in text
output.

Exit codes: 0 success, 2 validation or cross-method discrepancy,
3 resource cap exceeded, 4 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

from .abelian import HomologyProfile
from .chains import BredonComplex, assemble_complex
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


def load_system(path: str) -> CoxeterMatrix:
    """Read {"rank": N, "m": [[...]]} with 0 standing for infinity."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixError(f"{path} is not valid JSON: {exc}") from exc
    return system_from_json(data, origin=path)


def system_from_json(data, origin: str = "input") -> CoxeterMatrix:
    if not isinstance(data, dict) or "m" not in data:
        raise MatrixError(f'{origin} must be an object with an "m" matrix')
    w = parse_matrix(data["m"])
    if "rank" in data and data["rank"] != w.rank:
        raise MatrixError(
            f'{origin}: "rank" is {data["rank"]} but the matrix has size {w.rank}'
        )
    return w


# ---------------------------------------------------------------------------
# homology pipeline shared by cmd_homology and cmd_validate
# ---------------------------------------------------------------------------


def _factor_profile(w, factor, rings):
    sub = w.submatrix(factor)
    sub_poset = enumerate_spherical(sub)
    if max(sub_poset.orders.values()) <= rings.order_cap:
        return assemble_complex(sub, rings, sub_poset).homology()
    for name in applicable_closed_forms(sub):
        try:
            return closed_form_homology(sub, name, rings)
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

    rings.order_cap bounds the parabolics the routes may realize.
    Returns (report dict, timings dict, exit code, complex), where complex
    is the BredonComplex the chain route assembled, or None when that
    route did not run.  The report is fully JSON-serializable and
    deterministic; timings are text-mode garnish.
    """
    if poset is None:
        poset = enumerate_spherical(w)
    order_cap = rings.order_cap
    if max_degree is None:
        max_degree = w.rank
    max_parabolic = max(poset.orders.values())
    chain_fits = max_parabolic <= order_cap
    factors = diagram_factors(w)

    closed_names = applicable_closed_forms(w)
    plan: list[str] = []
    if method == "auto":
        plan.extend(f"closed:{name}" for name in closed_names)
        if len(factors) >= 2:
            plan.append("kunneth")
        plan.append("chain")
    elif method == "chain":
        plan.append("chain")
    elif method == "closed":
        if not closed_names:
            raise ContractError(
                "no closed form applies to this system; available routes "
                "are --method chain (exact, any system) or --method auto"
            )
        plan.extend(f"closed:{name}" for name in closed_names)
    elif method == "kunneth":
        if len(factors) < 2:
            raise ContractError(
                "the diagram is connected, so there is no product "
                "decomposition for the Kunneth route"
            )
        plan.append("kunneth")
    else:
        raise ContractError(f"unknown method {method!r}")

    profiles: dict[str, HomologyProfile] = {}
    skipped: dict[str, str] = {}
    timings: dict[str, float] = {}
    chain_complex = None
    cap_hit = False
    for name in plan:
        start = time.perf_counter()
        try:
            if name == "chain":
                if not chain_fits:
                    raise ResourceCapError(
                        f"largest spherical parabolic has order {max_parabolic}, "
                        f"above the cap {order_cap}"
                    )
                chain_complex = assemble_complex(w, rings, poset)
                profiles[name] = chain_complex.homology()
            elif name == "kunneth":
                combined = None
                for factor in factors:
                    part = _factor_profile(w, factor, rings)
                    combined = part if combined is None else kunneth_product(combined, part)
                profiles[name] = HomologyProfile(combined.groups, method="kunneth")
            else:
                profiles[name] = closed_form_homology(
                    w, name.split(":", 1)[1], rings
                )
        except ResourceCapError as exc:
            if method != "auto":
                raise
            skipped[name] = str(exc)
            cap_hit = True
            continue
        timings[name] = time.perf_counter() - start

    discrepancies: list[dict] = []
    names = list(profiles)
    for other in names[1:]:
        a, b = profiles[names[0]], profiles[other]
        if a != b:
            degrees = sorted(set(a.groups) | set(b.groups))
            for d in degrees:
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

    full_order = poset.orders.get(tuple(range(w.rank)))
    report = {
        "input": {"rank": w.rank, "m": w.to_raw()},
        "parameters": {
            "method": method,
            "order_cap": order_cap,
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
        code = EXIT_RESOURCE if cap_hit else EXIT_INPUT
    else:
        code = EXIT_OK
    return report, timings, code, chain_complex


# ---------------------------------------------------------------------------
# table and cell dumps
# ---------------------------------------------------------------------------


def _clean(x: float) -> float:
    return round(x, 6) + 0.0


def tables_payload(w: CoxeterMatrix, rings: RepRingCache, poset) -> list[dict]:
    out = []
    for t in poset.subsets:
        table = rings.table(w, t)
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
                "values": [
                    [[_clean(v.real), _clean(v.imag)] for v in row]
                    for row in table.values
                ],
            }
        )
    return out


def cells_payload(cx: BredonComplex, poset) -> dict:
    dimensions = []
    for d, level in enumerate(cx.cells):
        cells = []
        for ci, chain in enumerate(level):
            cells.append(
                {
                    "chain": [list(t) for t in chain],
                    "stabilizer": poset.label_name(chain[0]),
                    "block_rank": cx.block_ranks[d][ci],
                    "offset": cx.offsets[d][ci],
                }
            )
        dimensions.append({"dim": d, "cells": cells})
    blocks = []
    for d in range(1, len(cx.cells)):
        level_blocks = []
        index_of = {chain: fi for fi, chain in enumerate(cx.cells[d - 1])}
        for ci, chain in enumerate(cx.cells[d]):
            for k in range(1, len(chain) + 1):
                face = chain[: k - 1] + chain[k:]
                level_blocks.append(
                    {
                        "cell": ci,
                        "face": index_of[face],
                        "sign": -1 if k % 2 else 1,
                        "kind": "induction" if k == 1 else "identity",
                    }
                )
        blocks.append({"degree": d, "blocks": level_blocks})
    return {
        "dims": cx.dims,
        "dimensions": dimensions,
        "differentials": blocks,
    }


# ---------------------------------------------------------------------------
# text renderers
# ---------------------------------------------------------------------------


def _fmt_group(data) -> str:
    if data is None:
        return "?"
    parts = []
    free = data.get("free_rank", 0)
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in data.get("torsion", []))
    return " + ".join(parts) if parts else "0"


def _fmt_profile(hom: dict) -> str:
    if not hom:
        return "H_* = 0"
    return ", ".join(
        f"H_{d} = {_fmt_group(g)}" for d, g in sorted(hom.items(), key=lambda kv: int(kv[0]))
    )


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
        print(f"{name}: {_fmt_profile(data['homology'])}{suffix}", file=out)
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
        print(f"agreed: {_fmt_profile(report['homology'])}", file=out)
    kt = report.get("k_theory")
    if kt:
        if kt["decided"]:
            print(
                f"K_0 = {_fmt_group(kt['K0'])}, K_1 = {_fmt_group(kt['K1'])}",
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
            cells = []
            for re_part, im_part in row:
                if im_part:
                    cells.append(f"{re_part:+.3f}{im_part:+.3f}i")
                else:
                    cells.append(f"{re_part:+.3f}")
            print(f"  deg {degree}: " + "  ".join(cells), file=out)


def _cells_text(payload: dict, out) -> None:
    print(f"coordinates per degree: {payload['dims']}", file=out)
    for level in payload["dimensions"]:
        print(f"dimension {level['dim']}:", file=out)
        for ci, cell in enumerate(level["cells"]):
            chain = " < ".join(
                "{" + ",".join(str(g + 1) for g in t) + "}" for t in cell["chain"]
            )
            print(
                f"  [{ci}] {chain or 'empty set'}  stabilizer {cell['stabilizer']}"
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


def _emit(args, report: dict, text_renderer) -> None:
    if args.output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        text_renderer(sys.stdout)


def cmd_classify(args) -> int:
    w = load_system(args.input)
    poset = enumerate_spherical(w)
    from .coxeter import classify_irreducible, components, spherical_order

    comps = [
        {"members": list(c), "type": classify_irreducible(w, c).name}
        for c in components(w, w.generators)
    ]
    order = spherical_order(w, w.generators)
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
    report, timings, code, cx = run_analysis(
        w, rings, poset, method=args.method, max_degree=args.max_degree
    )
    extra_renderers = []
    if args.dump_tables:
        tables = tables_payload(w, rings, poset)
        report["tables"] = tables
        extra_renderers.append(lambda out: _tables_text(tables, out))
    if args.cells:
        if cx is None:
            cx = assemble_complex(w, rings, poset)
        cells = cells_payload(cx, poset)
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
    payload = cells_payload(assemble_complex(w, rings, poset), poset)
    report = {"input": {"rank": w.rank, "m": w.to_raw()}, **payload}
    _emit(args, report, lambda out: _cells_text(payload, out))
    return EXIT_OK


def bundled_corpus_dir() -> Path:
    return Path(resources.files("bredon") / "corpus")


def cmd_validate(args) -> int:
    directory = Path(args.corpus) if args.corpus else bundled_corpus_dir()
    if not directory.is_dir():
        raise MatrixError(f"{directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise MatrixError(f"no .json cases in {directory}")
    cases = []
    failures = 0
    rings = RepRingCache(args.order_cap)  # keyed by induced matrix, so shared
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        name = data.get("name", path.stem)
        detail: list[str] = []
        ok = True
        try:
            w = system_from_json(data.get("system"), origin=str(path))
            report, _, code, _ = run_analysis(w, rings)
            if code != EXIT_OK:
                ok = False
                detail.append(f"analysis exit code {code}")
                for d in report["discrepancies"]:
                    detail.append(
                        f"degree {d['degree']}: "
                        f"{d['methods'][0]} {d['values'][0]} vs "
                        f"{d['methods'][1]} {d['values'][1]}"
                    )
            expected = data.get("expected", {})
            got_hom = report["homology"]
            want_hom = expected.get("homology")
            if want_hom is not None and got_hom is not None:
                want = HomologyProfile.from_json(want_hom)
                got = HomologyProfile.from_json(got_hom)
                if want != got:
                    ok = False
                    detail.append(f"homology: expected {want}, got {got}")
            kt = report.get("k_theory")
            for key in ("k0", "k1"):
                if key in expected and kt and kt.get("decided"):
                    want_k = expected[key]
                    got_k = kt["K0" if key == "k0" else "K1"]
                    if want_k != got_k:
                        ok = False
                        detail.append(
                            f"{key}: expected {_fmt_group(want_k)}, "
                            f"got {_fmt_group(got_k)}"
                        )
        except (MatrixError, ContractError, ResourceCapError, ConsistencyError) as exc:
            ok = False
            detail.append(str(exc))
        if not ok:
            failures += 1
        cases.append({"name": name, "ok": ok, "detail": detail})
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
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("homology", help="Bredon homology and K-theory")
    p.add_argument("input")
    p.add_argument(
        "--method",
        choices=("auto", "chain", "closed", "kunneth"),
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
                   help="include the cell structure in the report")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("cells", help="quotient cell structure and blocks")
    p.add_argument("input")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    common(p)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("validate", help="run a corpus of known answers")
    p.add_argument("corpus", nargs="?", default=None,
                   help="directory of case files (default: bundled corpus)")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
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
