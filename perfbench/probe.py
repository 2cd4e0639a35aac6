"""One set-up sample: what a fresh interpreter does before the first
request is ready.  Imports bredon (numpy included), generates the
workload's inputs and writes them, then prints time.perf_counter().
On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
run.py subtracts the moment it started this process.

Usage: python3 perfbench/probe.py <src dir> <workload> <seed> <out dir>
"""

import sys
import time
from pathlib import Path

src, workload, seed, out = sys.argv[1:5]
sys.path.insert(0, src)

import bredon.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.write_inputs(workloads.build(workload, int(seed)), Path(out))
print(repr(time.perf_counter()))
