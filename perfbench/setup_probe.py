"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]

Set-up is importing ``oblishuffle`` plus building the workload's first
simulator (and engine, where it has one).  numpy is imported first and
not timed.  Its import is about 160 ms of the 210 ms total and mostly
loads shared libraries; the whole set-up swung between 155 and 230 ms
from run to run while the reference kernel held steady.  Prints one
line: the seconds and the reference kernel's ms, timed before and after
and averaged.  ``run.py`` starts this several
times, because one import per process cannot be repeated in place.
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401
from refkernel import reference_ms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

ref_before = reference_ms()
t0 = time.perf_counter()
import oblishuffle  # noqa: E402,F401

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](
    int(sys.argv[2]), "--tiny" in sys.argv[3:], Path(__file__).resolve().parent / "out"
)
t2 = time.perf_counter()
workload.construct()
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2), (ref_before + reference_ms()) / 2)
