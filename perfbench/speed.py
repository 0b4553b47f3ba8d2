"""The machine's speed, measured alongside the operations.

The 2-vCPU virtual machine this benchmark was built on runs the same
operation at speeds that drift by up to 1.8x over tens of seconds (other
tenants, host clock changes), far more than any bound a code change could
be judged by.  So every run times a fixed reference workload between
operations, about four times a second, and scales each operation's time by

    REF_NOMINAL_MS / (median reference time within WINDOW_S of the operation)

which reports times as they would read on a machine where the reference
takes REF_NOMINAL_MS.  The reference is pure Python, like the package:
modular big-integer arithmetic and small-object allocation.  Over a 240 s
probe the raw time of one `invert_unit` call spread 16 % (quartile
distance over median of 10 s windows); the scaled time spread 1.4 %.

Never change `reference()` or REF_NOMINAL_MS: figures from runs with
different references are not comparable.
"""

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_NOMINAL_MS = 5.0
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.0


class _Cell:
    __slots__ = ("v", "u")

    def __init__(self, v, u):
        self.v = v
        self.u = u


def reference():
    """Fixed work: about 5 ms on the machine described above."""
    mod = 3**40
    x = 12345
    out = []
    for i in range(4000):
        x = (x * 6364136223846793005 + i) % mod
        c = _Cell(i, x)
        out.append(c if x & 1 else _Cell(c.v + 1, c.u))
    return len(out)


class Speed:
    """Reference samples over one run, and the scale they imply."""

    def __init__(self):
        self.times = []
        self.ms = []
        self.last = float("-inf")

    def sample(self):
        # the reference allocates thousands of tracked objects; with the
        # collector on, some samples would pay for a full collection of
        # the program's heap and read several times slower
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.times.append((start + end) / 2)
        self.ms.append((end - start) * 1000)
        self.last = end

    def maybe_sample(self):
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Factor turning a time measured over [start, end] into nominal time."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        return REF_NOMINAL_MS / statistics.median(self.ms[lo:hi])

    def overall(self):
        """Factor from the median of every sample of the run."""
        return REF_NOMINAL_MS / statistics.median(self.ms)
