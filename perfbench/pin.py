"""Regenerate data/pinned.json: the regression answers of the benchmark.

Runs ``bredon homology --output json`` on one representative of every
rank-3 and rank-4 Coxeter system whose labels lie in the sweep's label
set (up to relabelling the generators), and on the fixed chain-rank5
systems, and stores each report's homology and K-theory.  The values
are what the program computed when they were pinned; they catch
regressions and are not independent answers.

Each sweep class also records how many labellings it stands for
("orbit") and its median latency over three runs when pinned ("ms"),
which the sweep uses to stratify its draws by cost.  Timings differ
from run to run, so re-pinning can move a class to another tier and
change the sweep's draws: re-pin only together with a new baseline.

Usage, from the root of a checkout:  python3 perfbench/pin.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bredon.cli import main  # noqa: E402

from workloads import CHAIN, DATA, SWEEP_LABELS, answer_of, canonical_key, from_upper  # noqa: E402


TIMING_REPEATS = 3


def representatives() -> tuple[dict[str, list[list[int]]], Counter]:
    """One matrix per class, and the number of labellings in each class."""
    reps = {}
    orbits = Counter()
    for rank in (3, 4):
        for labels in itertools.product(SWEEP_LABELS, repeat=rank * (rank - 1) // 2):
            m = from_upper(rank, labels)
            key = canonical_key(m)
            reps.setdefault(key, m)
            orbits[key] += 1
    for m in CHAIN.values():
        reps.setdefault(canonical_key(m), m)
    return reps, orbits


def main_pin() -> int:
    answers = {}
    failures = []
    reps, orbits = representatives()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path = Path(tmp) / "system.json"
        for key, m in sorted(reps.items()):
            path.write_text(json.dumps({"rank": len(m), "m": m}))
            elapsed = []
            for _ in range(TIMING_REPEATS):
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = main(["homology", str(path), "--output", "json"])
                elapsed.append(time.perf_counter() - start)
            if code != 0:
                failures.append(key)
                continue
            answers[key] = answer_of(json.loads(out.getvalue()))
            if key in orbits:
                ms = round(1000 * statistics.median(elapsed), 1)
                answers[key].update(orbit=orbits[key], ms=ms)
    if failures:
        print(f"non-zero exit on {failures}", file=sys.stderr)
        return 1
    # one answer per line, so a changed value shows as a one-line diff
    lines = [
        f"  {json.dumps(key)}: {json.dumps(answers[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(answers)
    ]
    kind = "regression values computed by bredon itself, not independent answers"
    with open(DATA / "pinned.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"kind": {json.dumps(kind)},\n"answers": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_pin())
