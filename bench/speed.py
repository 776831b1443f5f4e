"""Times scaled to a reference machine speed.

The machines this benchmark runs on are shared: the same call can take 1.5x
longer for tens of seconds at a time when neighbours are busy, and CPU time
tracks wall time, so repeating work inside a run does not average it out.
A fixed reference kernel (small numpy array operations and scalar Python
arithmetic, like the package's own inner loops, and independent of it) is
therefore timed between calls, and every call's wall time is multiplied by
REFERENCE_S / (kernel time around the call).  A reported time is what the
call would have taken while the kernel ran at its reference speed; the raw
wall times and kernel times stay in the run's detail line.

The clock also reads the process's resident memory after every call, so
that a run can report the peak over its timed calls apart from set-up.
Memory a call frees before it returns is not seen.
"""

import bisect
import math
import os
import resource
import statistics
import time

import numpy as np

REFERENCE_S = 0.4e-3  # the kernel's time on the baseline machine when lightly loaded
SAMPLE_EVERY_S = 0.05
_X = np.linspace(0.0, 1.0, 256)
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def rss_mb():
    """Resident memory of this process now, in MB (from /proc/self/statm;
    where that is missing, the peak so far)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel():
    """Seconds for one run of the reference work (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for k in range(25):
            y = np.cos(k * _X) * np.sqrt(_X + 1.0)
            s += float(np.sum(y))
            z = complex(s, k)
            for j in range(16):
                z = z * 0.5 + complex(math.sqrt(j + k), 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def factor_now(samples=5):
    """Scale factor from a few kernel runs taken now."""
    return REFERENCE_S / statistics.median(kernel() for _ in range(samples))


class Clock:
    """Times calls, samples the kernel at most every SAMPLE_EVERY_S and
    keeps the highest resident memory read after a call."""

    def __init__(self):
        self.times = []    # sample instants
        self.kernels = []  # kernel seconds at those instants
        self.rss_peak_mb = 0.0

    def tick(self):
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= SAMPLE_EVERY_S:
            self.kernels.append(kernel())
            self.times.append(time.perf_counter())

    def call(self, fn, *args, errors=()):
        """(start, seconds, result, error) of fn(*args); `errors` are caught
        and returned without their traceback, which would pin every array
        the failed call allocated."""
        self.tick()
        t0 = time.perf_counter()
        try:
            out, exc = fn(*args), None
        except errors as e:
            out, exc = None, e.with_traceback(None)
        seconds = time.perf_counter() - t0
        self.rss_peak_mb = max(self.rss_peak_mb, rss_mb())
        self.tick()
        return t0, seconds, out, exc

    def factor(self, start, seconds):
        """REFERENCE_S over the mean kernel time of the samples just before
        and just after the interval [start, start + seconds]."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, start + seconds), len(self.times) - 1)
        return 2.0 * REFERENCE_S / (self.kernels[before] + self.kernels[after])
