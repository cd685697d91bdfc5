"""The reference kernel that benchmark times are measured against.

On a shared host the speed at which Python runs drifts by tens of
percent over minutes, and the CPU time of a busy process drifts with it.
The benchmark therefore times this fixed kernel next to everything it
times and reports the ratio, which the drift cancels out of while a
slower package still reads as slower.  The kernel is dict updates over a
4096-entry table: the kind of interpreter work the simulator is made of.
"""

import time

ITERATIONS = 100_000

# The kernel's usual time on a shared 2-vCPU x86_64 VM (2.1 GHz nominal)
# under Python 3.11.  It converts relative set-up time back to seconds.
NOMINAL_MS = 15.0


def reference_ms() -> float:
    """Wall time of one run of the kernel, in ms."""
    table: dict[int, int] = {}
    t0 = time.perf_counter_ns()
    for i in range(ITERATIONS):
        k = i & 4095
        table[k] = table.get(k, 0) + i
    return (time.perf_counter_ns() - t0) / 1e6
