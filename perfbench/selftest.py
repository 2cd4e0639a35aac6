"""Self-test of the benchmark's gates.

Checks that a corrupted expected answer fails the run, that a report
which changes between passes fails its request, that a wrapped name
that no longer exists leaves its metrics out instead of crashing, and
that the benchmark refuses to run without the program's sources.  Each
end-to-end case runs run.py in a scratch copy of the checkout under
.perfbench_work/.

Usage, from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def scratch_checkout(name: str, with_src: bool) -> Path:
    target = ROOT / ".perfbench_work" / f"selftest-{name}-{os.getpid()}"
    shutil.rmtree(target, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, target / HERE.name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)
    return target


def run_benchmark(checkout: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-sweep",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )


class Gates(unittest.TestCase):
    def tearDown(self):
        for path in (ROOT / ".perfbench_work").glob(f"selftest-*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)

    def test_corrupted_expected_answers_fail_the_run(self):
        checkout = scratch_checkout("corrupt", with_src=True)
        data = checkout / HERE.name / "data"
        # one independent answer (corpus) and one regression value (pinned)
        corpus = json.loads((data / "corpus.json").read_text())
        h3 = next(case for case in corpus if case["name"] == "h3")
        h3["expected"]["homology"]["0"]["free_rank"] += 1
        (data / "corpus.json").write_text(json.dumps(corpus))
        requests = workloads.build("small-sweep", SEED)
        drawn = next(r for r in requests if r.source == "regression")
        key = workloads.canonical_key(drawn.matrix)
        pinned = json.loads((data / "pinned.json").read_text())
        pinned["answers"][key]["homology"]["0"][0] += 1
        (data / "pinned.json").write_text(json.dumps(pinned))
        corrupted = 1 + sum(
            1 for r in requests
            if r.source == "regression" and workloads.canonical_key(r.matrix) == key
        )

        proc = run_benchmark(checkout)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], corrupted * (result["attempted"] // len(requests)))
        self.assertIn("FAIL h3", proc.stderr)

    def test_changed_report_fails_its_request(self):
        requests = workloads.build("finite-groups", SEED)
        checker = run.Checker(requests)
        count = requests[0].expected["homology"]["0"][0]
        report = {"homology": {"0": {"free_rank": count, "torsion": []}},
                  "k_theory": {"decided": True,
                               "K0": {"free_rank": count, "torsion": []},
                               "K1": {"free_rank": 0, "torsion": []}}}
        out = json.dumps(report)
        checker.check(0, (0, out, ""))
        checker.check(0, (0, out, ""))
        self.assertEqual(checker.failed, 0)
        checker.check(0, (0, out + "\n", ""))
        self.assertEqual((checker.attempted, checker.failed), (3, 1))

    def test_missing_wrap_point_leaves_its_metrics_out(self):
        sys.path.insert(0, str(ROOT / "src"))
        tracer = spans.Tracer(
            (spans.WrapPoint("bredon.cli", "no_such_function", "cli.analysis"),)
        )
        tracer.install()
        tracer.uninstall()
        values = spans.layer_values(tracer)
        self.assertIsNone(values["cli.analysis_s"])
        self.assertIsNone(values["cli.routes_run"])
        self.assertEqual(values["groups.realize_calls"], 0)

    def test_refuses_to_run_without_sources(self):
        proc = run_benchmark(scratch_checkout("nosrc", with_src=False))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
