"""The bredon benchmark: one workload, measured through the CLI entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each request is ``bredon.cli.main(["homology", <file>, "--output", "json",
...])`` called in this process, one at a time on a single thread.  A
pass sends every request of the workload once; passes repeat while the
next one should end within --seconds, and at least once.  Every report
is checked against its expected answer and against the same request's
report in earlier passes.  Between untraced requests the run times
reference.py's fixed work, and scales each end-to-end time by the
reference work timed nearest to it, to seconds on a machine of the
reference speed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of spans.py plus
trace.overhead_s.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A wrong answer, a non-zero
exit code, an exception or a report that changes between passes fails
the request and makes this script exit with status 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: numpy's BLAS must not start a pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
GAUGE_SHARE = 0.08  # reference work, as a share of the time spent in requests
SETUP_GAUGE_SAMPLES = 3  # reference work timed after each set-up probe
GAUGE_WINDOW = 9  # a latency is scaled by this many samples of reference work
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "wall_s": "s",
    "system_p50_s": "s",
    "system_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, work: Path, gauge: "Gauge") -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the moment it has
    imported bredon and written the workload's inputs, in reference
    seconds, and the scale applied: the gauge times reference work after
    each probe."""
    gauged = []
    samples = []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed),
             str(work / f"probe-{k}")],
            check=True,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        samples.append(float(proc.stdout) - start)
        gauged.extend(gauge.sample() for _ in range(SETUP_GAUGE_SAMPLES))
    scale = reference.REFERENCE_S / statistics.median(gauged)
    return statistics.median(samples) * scale, scale


def import_cli():
    """bredon.cli from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import bredon.cli

    if Path(bredon.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"bredon was imported from {bredon.cli.__file__}, not {SRC}")
    return bredon.cli


class Checker:
    """Checks each report against its expected answer and its earlier
    passes; counts attempts and failures."""

    def __init__(self, requests):
        self.requests = requests
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, i: int, outcome) -> None:
        req = self.requests[i]
        code, out, err = outcome
        self.attempted += 1
        problem = None
        if isinstance(code, BaseException):
            problem = f"raised {code!r}"
        elif code != 0:
            problem = f"exit code {code}: {err.strip()[:200]}"
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()
            try:
                got = workloads.answer_of(json.loads(out))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                got = f"unreadable report ({exc!r})"
            if got != req.expected:
                problem = f"answer {got} != {req.source} value {req.expected}"
            elif self.digests.setdefault(i, digest) != digest:
                problem = "report bytes differ from an earlier pass"
        if problem is not None:
            self.failed += 1
            print(f"FAIL {req.name} {' '.join(req.args)}: {problem}", file=sys.stderr)


class Gauge:
    """Times reference.py's work between requests, so that it takes
    GAUGE_SHARE of the time spent in requests, and at least once; turns
    the time of a stretch of the run into reference seconds."""

    def __init__(self):
        self.middles: list[float] = []  # perf_counter() halfway through each sample
        self.samples: list[float] = []
        self.spent = 0.0
        self.measured = 0.0

    def top_up(self) -> None:
        """Time reference work until it has its share."""
        while not self.samples or self.spent < GAUGE_SHARE * self.measured:
            self.spent += self.sample()

    def sample(self) -> float:
        """Time the reference work once; returns its time."""
        start = time.perf_counter()
        reference.reference_work()
        end = time.perf_counter()
        self.middles.append((start + end) / 2)
        self.samples.append(end - start)
        return self.samples[-1]

    def scale_at(self, start: float, end: float) -> float:
        """Factor that turns this machine's seconds between start and end
        into reference seconds, from the GAUGE_WINDOW samples nearest to
        the middle of that stretch."""
        middle = (start + end) / 2
        i = bisect.bisect(self.middles, middle)
        near = range(max(0, i - GAUGE_WINDOW), min(len(self.middles), i + GAUGE_WINDOW))
        nearest = sorted(near, key=lambda k: abs(self.middles[k] - middle))[:GAUGE_WINDOW]
        return reference.REFERENCE_S / statistics.median(self.samples[k] for k in nearest)


def run_pass(main, requests, paths, gauge: Gauge | None = None):
    """Send every request once; returns the (start, end) of each request
    and the outcomes.  Checking happens after the timed pass."""
    times = []
    outcomes = []
    for req, path in zip(requests, paths):
        if gauge is not None:
            gauge.top_up()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(req.argv(path))
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = exc
        times.append((t0, time.perf_counter()))
        outcomes.append((code, out.getvalue(), err.getvalue()))
        if gauge is not None:
            gauge.measured += times[-1][1] - t0
    return times, outcomes


def measure(cli, requests, paths, seconds: float, traced: bool, checker: Checker, gauge=None):
    """Repeat passes while the next one should end within `seconds`, and
    at least once; with traced, alternate untraced and traced passes, at
    least one of each.  A pass's wall time is the sum of its request
    latencies.  A gauge, if given, times reference work between the
    requests of untraced passes, and each latency is scaled by the
    reference work timed nearest to it.  Returns the pass wall times
    (untraced and traced), the untraced latencies, each untraced pass's
    scaled / raw wall time and the per-layer values of the traced passes."""
    tracer = spans.Tracer() if traced else None
    walls = {False: [], True: []}
    untraced: list[list[tuple[float, float]]] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    with_trace = False
    while True:
        pass_start = time.perf_counter()
        if with_trace:
            tracer.reset()
            tracer.install()
            try:
                times, outcomes = run_pass(cli.main, requests, paths)
            finally:
                tracer.uninstall()
            layers.append(spans.layer_values(tracer))
            walls[True].append(sum(t1 - t0 for t0, t1 in times))
        else:
            times, outcomes = run_pass(cli.main, requests, paths, gauge)
            untraced.append(times)
        for i, outcome in enumerate(outcomes):
            checker.check(i, outcome)
        if traced:
            with_trace = not with_trace
        complete = not traced or (walls[True] and untraced)
        # the next pass would end after the deadline if it took as long
        now = time.perf_counter()
        if complete and 2 * now - pass_start > deadline:
            break
    latencies: list[float] = []
    scales: list[float] = []
    if gauge is not None:
        gauge.top_up()  # samples after the last request
    for times in untraced:
        raw = [t1 - t0 for t0, t1 in times]
        if gauge is not None:
            lat = [x * gauge.scale_at(t0, t1) for x, (t0, t1) in zip(raw, times)]
        else:
            lat = raw
        walls[False].append(sum(lat))
        scales.append(sum(lat) / sum(raw))
        latencies.extend(lat)
    return walls, latencies, scales, layers


def end_to_end(walls, latencies, setup_s) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "system_p50_s": statistics.median(latencies),
        # nearest rank: never interpolates between two systems' latencies
        "system_p90_s": sorted(latencies)[math.ceil(0.9 * len(latencies)) - 1],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(walls, layers) -> tuple[dict, dict]:
    values = {}
    for name in spans.LAYER_METRICS:
        got = [v[name] for v in layers]
        # median_low keeps counts whole: it picks one of the passes
        values[name] = None if None in got else statistics.median_low(got)
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return values, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bredon" / "cli.py").is_file():
        print(f"no bredon sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gauge = None if args.trace else Gauge()
        if gauge is not None:
            setup_s, setup_scale = measure_setup(args.workload, args.seed, work, gauge)
        cli = import_cli()
        requests = workloads.build(args.workload, args.seed)
        paths = workloads.write_inputs(requests, work / "inputs")
        checker = Checker(requests)
        walls, latencies, scales, layers = measure(
            cli, requests, paths, args.seconds, bool(args.trace), checker, gauge
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = per_layer(walls, layers)
    else:
        values = end_to_end(walls[False], latencies, setup_s)
        units = END_TO_END_UNITS
    missing = sorted(name for name, v in values.items() if v is None)
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)

    correct = checker.failed == 0
    passes = len(walls[False]) + len(walls[True])
    print(
        f"{args.workload} seed {args.seed}: {len(requests)} requests x {passes} passes, "
        f"{checker.failed}/{checker.attempted} failed "
        f"(failed_frac {checker.failed / checker.attempted:.4f})"
    )
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            unit = "s" if traced else "reference s"
            print(f"  {label} passes ({unit}): " + " ".join(f"{w:.3f}" for w in walls[traced]))
    if gauge is not None:
        print(
            f"  reference work: {len(gauge.samples)} samples, median "
            f"{statistics.median(gauge.samples) * 1000:.3f} ms; times are in reference "
            f"seconds: passes are raw x " + " ".join(f"{s:.4f}" for s in scales)
            + f", setup_s is raw x {setup_scale:.4f}"
        )
    for name, value in values.items():
        if value is not None:
            print(f"  {name:28s} {value:.6g} {units[name]}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if value is not None
    }
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
