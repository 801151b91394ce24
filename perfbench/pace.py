"""The machine's pace, read from a fixed reference loop.

The benchmark shares a virtual machine whose speed moves by half from one
second to the next and by a third from one minute to the next.  So every
timing of Python work is taken together with the reference loop's time just
before and just after it, and reported in reference seconds: the time
divided by the loop's local time, times `REFERENCE_LOOP_S`.  (Importing jck,
which reads files, does not follow the loop and stays in seconds.)  The loop touches nothing of
jck and allocates nothing the garbage collector tracks, so no change to jck
can move it, except one that keeps the processor busy between items (a
thread left running); the raw figures printed beside the metrics show that.
"""

from __future__ import annotations

import statistics
import time

# The loop's time that one reference second stands for: a round figure near
# its best time on a 2-vCPU Xeon with Python 3.11.7 (1.0 ms; 1.7 ms median
# when the machine's neighbours were busy).
REFERENCE_LOOP_S = 1.0e-3
EDGE_SAMPLES = 15  # loop runs before the first and after the last unit of a pass
# An item's local loop time is the median of its own and its neighbours' on
# each side: one loop run caught by an interrupt then cannot make an item
# look fast, which the best of several passes would pick.
WINDOW = 3


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    clock = time.perf_counter
    t0 = clock()
    d = {}
    n = 0
    for i in range(5000):
        d[i & 255] = i ^ (i >> 3)
        n += len(str(i))
    return clock() - t0


def local(loop_s: list[float]) -> list[float]:
    """Each item's local loop time, from the loop times around the items
    of a pass in order."""
    return [statistics.median(loop_s[max(k - WINDOW, 0):k + WINDOW + 1])
            for k in range(len(loop_s))]


def scale(loop_s: float) -> float:
    """Factor that turns a time taken at a loop time of `loop_s` into
    reference seconds."""
    return REFERENCE_LOOP_S / loop_s
