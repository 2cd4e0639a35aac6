"""End-to-end command-line behavior: output shapes, determinism, exit codes."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bredon.cli
import bredon.formulas
from bredon.characters import RepRingCache
from bredon.cli import main
from bredon.coxeter import parse_matrix
from bredon.errors import ContractError
from bredon.groups import DEFAULT_ORDER_CAP


@pytest.fixture()
def write_system(tmp_path):
    def _write(rows, name="system.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"rank": len(rows), "m": rows}))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _line(labels):
    """Coxeter matrix of a linear diagram with the given edge labels."""
    n = len(labels) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(labels):
        rows[i][i + 1] = rows[i + 1][i] = m
    return rows


def _cycle(n):
    """Affine A_(n-1): an n-cycle of label-3 edges."""
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = 3
    return rows


def _diagram(n, edges):
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, label in edges:
        m[i][j] = m[j][i] = label
    return m


def test_homology_text_output(write_system, capsys):
    path = write_system([[1, 0], [0, 1]])
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    assert "agreed: H_0 = Z^3" in out
    assert "K_0 = Z^3, K_1 = 0" in out
    assert "Baum-Connes" in out


def test_homology_json_deterministic(write_system, capsys):
    path = write_system([[1, 2, 4], [2, 1, 4], [4, 4, 1]])
    code1, out1, _ = run(capsys, "homology", path, "--output", "json")
    code2, out2, _ = run(capsys, "homology", path, "--output", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["homology"] == {"0": {"free_rank": 9, "torsion": []}}
    assert report["k_theory"]["decided"] is True
    assert report["k_theory"]["K0"] == {"free_rank": 9, "torsion": []}
    assert report["discrepancies"] == []
    # every requested route ran and agreed
    assert set(report["methods"]) == {"closed:even", "closed:low-rank", "chain"}


def test_homology_single_method(write_system, capsys):
    path = write_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    code, out, _ = run(capsys, "homology", path, "--method", "chain",
                       "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert list(report["methods"]) == ["chain"]
    assert report["homology"]["1"] == {"free_rank": 1, "torsion": []}


DINF_X_DINF = [[1, 0, 2, 2], [0, 1, 2, 2], [2, 2, 1, 0], [2, 2, 0, 1]]


def test_homology_kunneth_route(write_system, capsys):
    path = write_system(DINF_X_DINF)
    code, out, _ = run(capsys, "homology", path, "--method", "kunneth",
                       "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["homology"] == {"0": {"free_rank": 9, "torsion": []}}


def test_kunneth_factors_fall_back_to_closed_forms(write_system, capsys):
    # under order cap 1 neither factor fits the chain route, so each one
    # takes its right-angled closed form
    path = write_system(DINF_X_DINF)
    code, out, _ = run(capsys, "homology", path, "--method", "kunneth",
                       "--order-cap", "1", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["homology"] == {"0": {"free_rank": 9, "torsion": []}}


def test_kunneth_names_the_factor_no_route_fits(write_system, capsys):
    # I2(5) x A1: the order-10 factor fits neither the chain route nor a
    # closed form under cap 4
    path = write_system([[1, 5, 2], [5, 1, 2], [2, 2, 1]])
    code, _, err = run(capsys, "homology", path, "--method", "kunneth",
                       "--order-cap", "4")
    assert code == 3
    assert err == "resource cap: no route fits factor (0, 1) under order cap 4\n"


def test_kunneth_rejected_on_connected_diagram(write_system, capsys):
    path = write_system([[1, 3], [3, 1]])
    code, _, err = run(capsys, "homology", path, "--method", "kunneth")
    assert code == 4
    assert "connected" in err


def test_closed_rejected_without_a_closed_form(write_system, capsys):
    # affine A3: connected, neither even nor right-angled, rank 4
    path = write_system([[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]])
    code, _, err = run(capsys, "homology", path, "--method", "closed")
    assert code == 4
    assert "no closed form applies" in err


def test_run_analysis_rejects_unknown_method():
    w = parse_matrix([[1, 3], [3, 1]])
    with pytest.raises(ContractError):
        bredon.cli.run_analysis(w, RepRingCache(), method="bogus")


def test_auto_lists_routes_in_plan_order(write_system, capsys):
    path = write_system(DINF_X_DINF)
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    names = [line.split(": ")[0] for line in out.splitlines()[1:5]]
    assert names == ["closed:right-angled", "closed:even", "kunneth", "chain"]


def test_classify_output(write_system, capsys):
    path = write_system([[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    code, out, _ = run(capsys, "classify", path, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["finite"] is True
    assert report["classification"]["order"] == 48
    assert report["components"][0]["type"] == "B3"
    assert report["classification"]["spherical_counts"] == [1, 3, 3, 1]


def test_cells_output(write_system, capsys):
    path = write_system([[1, 0], [0, 1]])
    code, out, _ = run(capsys, "cells", path, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [5, 2]
    assert [c["interval"] for c in report["dimensions"][1]["cells"]] == [[[], [0]], [[], [1]]]
    blocks = report["differentials"][0]["blocks"]
    kinds = sorted(b["kind"] for b in blocks)
    assert kinds == ["identity", "identity", "induction", "induction"]
    code, out, _ = run(capsys, "cells", path)
    assert "  [1] [{}, {2}]  stabilizer 1  rank 1  offset 1" in out.splitlines()


def test_dump_tables(write_system, capsys):
    path = write_system([[1, 4], [4, 1]])
    code, out, _ = run(capsys, "homology", path, "--dump-tables",
                       "--output", "json")
    assert code == 0
    report = json.loads(out)
    tables = {tuple(t["members"]): t for t in report["tables"]}
    assert tables[(0, 1)]["order"] == 8
    assert sorted(tables[(0, 1)]["degrees"]) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize(
    "rows, dims",
    [
        # the cubical and the Morse dimensions: A3, a Dixon table, finite route
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], ([22, 25, 9, 1], [5, 0, 0, 0])),
        # infinite, dihedral tables
        ([[1, 4, 6], [4, 1, 0], [6, 0, 1]], ([18, 11, 2], [11, 2, 0])),
        # rank5-334inf: 425 coordinates, where the flag complex has 1,041
        (_line([3, 3, 4, 0]), ([127, 177, 96, 23, 2], [30, 5, 0, 0, 0])),
    ],
)
def test_dumps_share_the_analysis_cache(write_system, capsys, monkeypatch, rows, dims):
    cubical, morse = dims
    path = write_system(rows)
    _, plain, _ = run(capsys, "homology", path, "--output", "json")
    built = []
    assemble = bredon.cli.assemble_complex

    def recorded(*args, **kwargs):
        built.append(assemble(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bredon.cli, "assemble_complex", recorded)
    code, dumped, _ = run(capsys, "homology", path, "--dump-tables", "--cells",
                          "--output", "json")
    # the chain route assembles its Morse complex once, and the cells dump
    # prints the cubical cells, which it does not assemble
    assert [cx.dims for cx in built] == [morse]
    _, cells, _ = run(capsys, "cells", path, "--output", "json")
    assert code == 0
    report = json.loads(dumped)
    assert report.pop("tables")
    cells_report = json.loads(cells)
    del cells_report["input"]
    assert cells_report["dims"] == cubical
    assert report.pop("cells") == cells_report
    assert report == json.loads(plain)


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "homology", "/nonexistent/file.json")
    assert code == 4
    assert "cannot read" in err


def test_exit_code_malformed_matrix(write_system, capsys):
    path = write_system([[1, 3], [4, 1]])
    code, _, err = run(capsys, "homology", path)
    assert code == 4
    assert "(1, 2)" in err


def test_exit_code_rank_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 5, "m": [[1, 3], [3, 1]]}))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 4


@pytest.mark.parametrize(
    "rank, m, shown",
    [
        ("2", [[1, 3], [3, 1]], "'2'"),
        (True, [[1]], "True"),
        (2.0, [[1, 3], [3, 1]], "2.0"),
    ],
)
def test_exit_code_rank_not_an_integer(tmp_path, capsys, rank, m, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": rank, "m": m}))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 4
    assert f'"rank" must be an integer, got {shown}' in err


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "homology")
    assert code == 4
    assert "usage error" in err


def test_exit_code_order_cap(write_system, capsys):
    path = write_system([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    code, _, err = run(capsys, "homology", path, "--method", "chain",
                       "--order-cap", "100")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "{path}", "--order-cap", "0"],
        ["homology", "{path}", "--order-cap", "-3"],
        ["homology", "{path}", "--max-degree", "-1"],
        ["cells", "{path}", "--order-cap", "0"],
        ["validate", "--order-cap", "0"],
    ],
)
def test_out_of_range_numbers_are_usage_errors(write_system, capsys, argv):
    path = write_system([[1, 0], [0, 1]])
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 4
    assert out == ""
    assert err.startswith("usage error: ") and "must be at least" in err


def test_auto_degrades_to_resource_exit_when_all_routes_capped(
    write_system, capsys
):
    # H4 is finite but over a tiny cap no route can run
    rows = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
    path = write_system(rows)
    code, out, _ = run(capsys, "homology", path, "--order-cap", "100",
                       "--output", "json")
    assert code == 3
    report = json.loads(out)
    assert report["methods"] == {}
    assert report["skipped"]


def test_auto_skips_chain_but_closed_still_answers(write_system, capsys):
    # right-angled with a huge finite parabolic would need the cap raised
    # for the chain route; the closed forms still answer under auto
    rows = [[1, 0], [0, 1]]
    path = write_system(rows)
    code, out, _ = run(capsys, "homology", path, "--order-cap", "1",
                       "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert "chain" in report["skipped"]
    assert report["homology"] == {"0": {"free_rank": 3, "torsion": []}}


@pytest.mark.parametrize(
    "rows, cap, ran, rank",
    [
        # A1 x A1 x A1: the finite and low-rank forms realize |W| = 8
        ([[1, 2, 2], [2, 1, 2], [2, 2, 1]], 4, {"closed:right-angled", "closed:even"}, 8),
        # B2 x A1: the even form needs no table of order 16
        ([[1, 4, 2], [4, 1, 2], [2, 2, 1]], 8, {"closed:even"}, 10),
    ],
)
def test_closed_skips_a_capped_form_when_another_applies(write_system, capsys, rows, cap, ran, rank):
    path = write_system(rows)
    code, out, err = run(capsys, "homology", path, "--method", "closed",
                         "--order-cap", str(cap), "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert set(report["methods"]) == ran
    assert set(report["skipped"]) == {"closed:finite", "closed:low-rank"}
    assert report["homology"] == {"0": {"free_rank": rank, "torsion": []}}


def test_closed_reports_every_form_capped_with_exit_3(write_system, capsys):
    # A3 has the finite and low-rank forms, and both realize |W| = 24
    path = write_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
    code, out, err = run(capsys, "homology", path, "--method", "closed",
                         "--order-cap", "4", "--output", "json")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["methods"] == {}
    assert set(report["skipped"]) == {"closed:finite", "closed:low-rank"}


def test_closed_with_one_form_raises_its_cap(write_system, capsys):
    # B4 is finite of rank 4, so the finite form is its only closed form
    path = write_system([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]])
    code, out, err = run(capsys, "homology", path, "--method", "closed",
                         "--order-cap", "8")
    assert (code, out) == (3, "")
    assert err == "resource cap: |W_T| = 384 exceeds the order cap 8\n"


def test_max_degree_flag(write_system, capsys):
    path = write_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    code, out, _ = run(capsys, "homology", path, "--max-degree", "0",
                       "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["homology"] == {"0": {"free_rank": 5, "torsion": []}}
    # K-theory still sees the full profile, so H_1 = Z survives into K_1
    assert report["k_theory"]["K1"] == {"free_rank": 1, "torsion": []}


def test_consecutive_calls_share_no_state(write_system, capsys):
    # main parses with one parser for the whole process, so an option or
    # a usage error of one call must not reach the next
    path = write_system([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    code, out, _ = run(capsys, "homology", path, "--max-degree", "1", "--method", "closed",
                       "--order-cap", "100", "--dump-tables", "--output", "json")
    assert code == 0
    first = json.loads(out)
    assert first["parameters"] == {"max_degree": 1, "method": "closed", "order_cap": 100}
    assert "tables" in first
    code, out, err = run(capsys, "homology", path, "--max-degree", "-1")
    assert (code, out) == (4, "")
    assert err.startswith("usage error:")
    code, out, _ = run(capsys, "homology", path, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"] == {
        "max_degree": 3, "method": "auto", "order_cap": DEFAULT_ORDER_CAP
    }
    assert set(report["methods"]) == {"chain", "closed:low-rank"}
    assert "cells" not in report and "tables" not in report


def test_validate_bundled_corpus(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "13/13 cases passed" in out


def test_validate_reports_wrong_expectation(tmp_path, capsys):
    case = {
        "name": "wrong",
        "system": {"rank": 2, "m": [[1, 0], [0, 1]]},
        "expected": {"homology": {"0": {"free_rank": 7, "torsion": []}}},
    }
    (tmp_path / "wrong.json").write_text(json.dumps(case))
    code, out, _ = run(capsys, "validate", str(tmp_path))
    assert code == 2
    assert "FAIL wrong" in out
    assert "expected" in out


GOOD_CASE = {
    "name": "good",
    "system": {"rank": 2, "m": [[1, 0], [0, 1]]},
    # K-groups accept the same shorthand as homology: no torsion key
    "expected": {"homology": {"0": {"free_rank": 3}}, "k0": {"free_rank": 3}},
}


AFFINE_A2_SQUARED = [
    [1, 3, 3, 2, 2, 2],
    [3, 1, 3, 2, 2, 2],
    [3, 3, 1, 2, 2, 2],
    [2, 2, 2, 1, 3, 3],
    [2, 2, 2, 3, 1, 3],
    [2, 2, 2, 3, 3, 1],
]


def test_validate_accepts_shorthand_groups(tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(GOOD_CASE))
    code, out, _ = run(capsys, "validate", str(tmp_path))
    assert code == 0
    assert "1/1 cases passed" in out


@pytest.mark.parametrize(
    "text, reason",
    [
        (b"{not json", "is not valid JSON"),
        (b"\xff\xfe{}", "is not valid JSON"),
        (b"[1, 2]", "is not a JSON object"),
        (
            json.dumps(
                {**GOOD_CASE, "name": "bad", "expected": {"k1": {"free_rank": "x"}}}
            ).encode(),
            "malformed expected value",
        ),
        (
            # D-infinity has H_0 = K_0 = Z^3: a truncated 3.2 or 3.9 would pass
            json.dumps(
                {
                    **GOOD_CASE,
                    "name": "bad",
                    "expected": {
                        "homology": {"0": {"free_rank": 3.2}},
                        "k0": {"free_rank": 3.9},
                    },
                }
            ).encode(),
            "malformed expected value",
        ),
        (
            # an expected key validate does not know would go unchecked
            json.dumps(
                {**GOOD_CASE, "name": "bad", "expected": {"K0": {"free_rank": 7}}}
            ).encode(),
            "malformed expected value",
        ),
        (
            # a misspelt group key would be read as no torsion
            json.dumps(
                {
                    **GOOD_CASE,
                    "name": "bad",
                    "expected": {"homology": {"0": {"free_rank": 3, "torsoin": [2]}}},
                }
            ).encode(),
            "malformed expected value",
        ),
        (
            # A2~ x A2~ has H_2 = Z; every H_p is free, so K_0 = Z^(25 + 1)
            json.dumps(
                {
                    "name": "bad",
                    "system": {"rank": 6, "m": AFFINE_A2_SQUARED},
                    "expected": {"k0": {"free_rank": 999}},
                }
            ).encode(),
            "k0: expected Z^999, got Z^26",
        ),
    ],
)
def test_validate_reports_malformed_case_and_goes_on(tmp_path, capsys, text, reason):
    (tmp_path / "bad.json").write_bytes(text)
    (tmp_path / "good.json").write_text(json.dumps(GOOD_CASE))
    code, out, _ = run(capsys, "validate", str(tmp_path))
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "FAIL bad"
    assert reason in lines[1]
    assert "ok   good" in lines
    assert lines[-1] == "1/2 cases passed"


def test_validate_reports_an_undecided_k_theory(tmp_path, capsys, monkeypatch):
    undecided = bredon.formulas.KTheoryVerdict(decided=False, rational_ranks=(3, 0))
    monkeypatch.setattr(bredon.cli, "k_homology", lambda profile: undecided)
    (tmp_path / "good.json").write_text(json.dumps(GOOD_CASE))
    code, out, _ = run(capsys, "validate", str(tmp_path))
    assert code == 2
    assert "      k0: expected Z^3, got undecided" in out.splitlines()


def test_validate_empty_directory(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path))
    assert code == 4


I2_6_X_A1 = [[1, 6, 2], [6, 1, 0], [2, 0, 1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["cells", "{path}", "--order-cap", "4"],
        ["homology", "{path}", "--method", "closed", "--dump-tables", "--order-cap", "4"],
    ],
)
def test_order_cap_holds_on_paths_without_an_upfront_check(write_system, capsys, argv):
    # neither path checks the largest parabolic before it starts, so the
    # cap must be enforced where the I2(6) parabolic's classes are built
    path = write_system(I2_6_X_A1)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 3
    assert out == ""
    assert err == "resource cap: |W_T| = 12 exceeds the order cap 4\n"


@pytest.mark.parametrize(
    "rows, digest",
    [
        (I2_6_X_A1, "16e2bbf4a48ede8d52085d3ee1d003f7c79493e386fa7edef23b67fd00b86158"),
        (
            [[1, 4, 2, 0], [4, 1, 6, 2], [2, 6, 1, 4], [0, 2, 4, 1]],
            "c3397b4fc78c1132a09f2c20c9f8600233858f9af4e8ba91351e3f4e848defc0",
        ),
        (
            [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]],  # H3 x A1
            "5c5d2581020c7f1993b4a0f0195f4a57c3752b273fe6c1c746499442c91d7a98",
        ),
        # 5-3-5 reads H3 as 5-3 and as 3-5; 4-3-5 has H3 beside B3
        (_line([5, 3, 5]), "c3349ce1bd24bf3afdc8a13be67e8e8d87e7a429ab0ebfc6a809302b88e4bfa3"),
        (_line([4, 3, 5]), "574673c67ffcc2cae6280bf0511861004932bdfde8d290d60898e54d53834cc8"),
        # relabelled orientations of one type: six each of A3, A4 and A5
        (_cycle(6), "13d00030007052ddf4bef784f08a4faa82bba3f8aeb7c620ef147de4d3e13f89"),
        # affine F4: two B3, two A3 and one B4 among others
        (_line([3, 3, 4, 3]), "7859def68dfd02f4963fa34fe67e63eea24a5e75abe09b065005af99224d1880"),
        # affine D4: four D4 orientations, one Dixon build served by the type store
        (
            _diagram(5, [(i, 2, 3) for i in (0, 1, 3, 4)]),
            "c2b8a1e7e56d50f998b0cda33106f1e3ea4245c73d9dac6025d77abd3472b67c",
        ),
    ],
)
def test_report_bytes_are_pinned(write_system, capsys, rows, digest):
    # the table dump spells out the class order, class words and row
    # order of every parabolic, so any change of convention shows here
    path = write_system(rows)
    code, out, err = run(capsys, "homology", path, "--output", "json",
                         "--dump-tables", "--cells")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


H3_X_A1 = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 2], [2, 2, 2, 1]]


def test_text_report_bytes_are_pinned(write_system, capsys):
    # the text renderer formats the dumped table values; route timings
    # are the only bytes that vary between runs
    path = write_system(H3_X_A1)
    code, out, err = run(capsys, "homology", path, "--dump-tables", "--cells")
    assert (code, err) == (0, "")
    out = re.sub(r"  \(\d+\.\d\ds\)$", "", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "821ef902c0e5e94522205b994c67ab873357dd87af8366af0ba2069db4dd7f2b"
    )


@pytest.mark.parametrize("rows", [H3_X_A1, _line([5, 3, 3])], ids=["H3xA1", "H4"])
def test_dumped_values_are_rounded_per_scalar(write_system, capsys, rows):
    path = write_system(rows)
    code, out, err = run(capsys, "homology", path, "--method", "closed", "--output", "json",
                         "--dump-tables", "--order-cap", "14400")
    assert (code, err) == (0, "")
    assert not re.search(r"-0\.0(?![0-9e])", out)
    w = parse_matrix(rows)
    rings = RepRingCache(14400)
    for tab in json.loads(out)["tables"]:
        table = rings.table(w, tuple(tab["members"]))
        assert tab["values"] == [
            [[round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0] for v in row]
            for row in table.values
        ]
        assert all(
            math.copysign(1.0, x) == 1.0
            for row in tab["values"] for pair in row for x in pair if x == 0
        )


def _dumps(o):
    return json.dumps(o, sort_keys=True, indent=2)


class _Count(int):
    """An int subclass with its own repr: json writes int.__repr__."""

    def __repr__(self):
        return "count"


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, [[]]]},
        [[], [{}], {"x": []}],
        {
            "caf\u00e9 \u4e2d": "\U0001f600 \u2028 \ud800",
            'q"uote': "back\\slash",
            "ctl \x00\x1f\n\t\x7f": '"\\\b\f\r',
        },
        [-0.0, 0.0, 1e-07, 1e22, 2**70, -(2**70), 0.1, 1e16, 5e-324],
        [True, False, 1, 0, None, [True, 1, False, 0], _Count(7)],
        [np.float64(0.1), np.float64(-0.0), np.float64(1e22), np.float64("nan")],
        [float("nan"), float("inf"), float("-inf")],
        {10: "a", 2: "b", -1.5: "c", False: "d", 2**70: "e", float("inf"): "f"},
        {True: 1}, {None: [None]}, {np.float64(1.5): 2, 0.25: 3, _Count(1): 4},
        ("tuple", (1, [2.5, ()])),
        "top-level \u00e9", 3, -0.0, float("nan"), None, True, np.float64(2.0),
    ],
)
def test_json_writer_matches_json_dumps(value):
    assert bredon.cli._json_text(value) == _dumps(value)


def _random_text(rng):
    # printable ASCII, control characters, non-ASCII and an astral character
    return "".join(
        chr(rng.choice([rng.randrange(32, 127), rng.randrange(32), rng.randrange(127, 0x3000), 0x1F600]))
        for _ in range(rng.randrange(6))
    )


def _random_json(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(2**80), 2**80) if rng.random() < 0.2 else rng.randint(-9, 999)
    if kind == 2:
        return rng.choice([
            rng.uniform(-1e3, 1e3), rng.random() * 10.0 ** rng.randint(-30, 30), -0.0,
            float("nan"), float("-inf"), np.float64(rng.random()),
        ])
    if kind == 3:
        return _random_text(rng)
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    if rng.random() < 0.7:
        keys = [_random_text(rng) for _ in items]
    else:  # numbers and bools sort among themselves
        keys = [rng.choice([rng.randint(-50, 50), rng.uniform(-5, 5), True, False]) for _ in items]
    return dict(zip(keys, items))


def test_json_writer_matches_json_dumps_on_random_objects():
    rng = random.Random(1)
    for _ in range(200):
        value = _random_json(rng)
        assert bredon.cli._json_text(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), [np.int64(1)], {"a": {1, 2}}, {1, 2}, {"a": [1, object()]},
     {(1, 2): 0}, {"a": 1, 2: 3}, {None: 1, "b": 2}],
)
def test_json_writer_raises_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        bredon.cli._json_text(value)


E6_ROWS = [[1, 2, 3, 2, 2, 2], [2, 1, 2, 3, 2, 2], [3, 2, 1, 3, 2, 2],
           [2, 3, 3, 1, 3, 2], [2, 2, 2, 3, 1, 3], [2, 2, 2, 2, 3, 1]]


@pytest.mark.parametrize(
    "rows, digest",
    [
        (_line([3, 4, 3]), "5bfb22a9c814737f8be265395fc99dec3820227ddb3e39042bc956c25ef3b6a5"),
        (_line([5, 3, 3]), "4b71b8f7ed2f9ded9b1cbea57b2c820789c0e293f954ce729fcb138139f8666b"),
        (_line([4, 3, 3, 3]), "94d547f01fc2c987cf5683bf4afe450fef931c9336dfde5378be604a0ac86452"),
        (E6_ROWS, "eba9981d997372080045d7e123989a64717a8ef661bf1cb149fd585fa4d5914e"),
        (_line([4, 3, 3, 3, 3]), "6c386b279383a3aa0cd1d2c07f55474281b9c485fc916bcff4db546447f9a71f"),
        (
            _diagram(4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)]),
            "f5a8a276153daa74d41cfc8bb6728dd7e40f7be1b2a4f10abf4bdceeabb99925",
        ),
        (
            _diagram(5, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3)]),
            "7eae896f2e518d3cb8b5f5d87021785a9fb18d79556b79672079d228515aa326",
        ),
        (
            _diagram(6, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)]),
            "4af606a04435c18c66168200a4cfd58aa32742ddd57ca06f4f36f728d3a2bb9a",
        ),
    ],
    ids=["F4", "H4", "B5", "E6", "B6", "D4", "D5", "D6"],
)
def test_dixon_table_dumps_are_pinned(write_system, capsys, rows, digest):
    # every D, E, F4, H3 and H4 parabolic goes through dixon_table, and B
    # through Murnaghan-Nakayama, so their values, degrees and row order
    # all show here
    path = write_system(rows)
    code, out, err = run(capsys, "homology", path, "--method", "closed",
                         "--output", "json", "--dump-tables", "--order-cap", "60000")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _groups(*ranks):
    return {str(d): {"free_rank": r, "torsion": []} for d, r in enumerate(ranks) if r}


@pytest.mark.parametrize(
    "rows, homology, k0, k1",
    [
        # affine A5: H_2 = Z is free, so K_0 = H_0 + H_2
        (_diagram(6, [(i, (i + 1) % 6, 3) for i in range(6)]), (20, 9, 1), 21, 9),
        # affine D5
        (_diagram(6, [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]), (40, 4), 40, 4),
        # a 7-cycle of label-3 edges with a label-4 chord between nodes 0 and 3
        (_diagram(7, [(i, (i + 1) % 7, 3) for i in range(7)] + [(0, 3, 4)]), (78, 4), 78, 4),
        # affine A6: K_0 = H_0 + H_2
        (_diagram(7, [(i, (i + 1) % 7, 3) for i in range(7)]), (21, 15, 2), 23, 15),
    ],
    ids=["affine-A5", "affine-D5", "hept-chord", "affine-A6"],
)
def test_rank6_and_rank7_chain_answers(write_system, capsys, rows, homology, k0, k1):
    # regression values of the chain route, the only route that reaches
    # these systems; the affine systems' ranks match their torus ranks
    path = write_system(rows)
    code, out, err = run(capsys, "homology", path, "--method", "chain", "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["homology"] == _groups(*homology)
    kt = report["k_theory"]
    assert kt["decided"] is True
    assert (kt["K0"], kt["K1"]) == (
        {"free_rank": k0, "torsion": []},
        {"free_rank": k1, "torsion": []},
    )


def test_a_reader_closing_the_pipe_early_is_not_an_error(write_system):
    # `bredon cells x.json | head`: affine A5's cells print 126 KB, more
    # than a pipe buffer, so the command is still writing when the pipe
    # closes
    path = write_system(_cycle(6))
    env = {**os.environ, "PYTHONPATH": str(Path(bredon.cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bredon.cli", "cells", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert (len(head), err) == (100, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_a_broken_pipe_leaves_no_descriptor_open(monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            bredon.cli._emit(SimpleNamespace(output="json"), {"a": [1, 2]}, None)
            monkeypatch.undo()
    assert open_fds() == before
