"""Machine-speed probe, so that timings mean the same thing from run to run.

The benchmark's host is shared: neighbours on the same physical cores
slow this process by up to 2x, in stretches that last seconds to
minutes, and the CPU time it is charged slows with it.  Raw wall
seconds of ten runs of the same code therefore spread by 20-30%.

While a call is measured, a SIGALRM handler times a fixed pure-Python
kernel every PERIOD_S.  The kernel does the kinds of work ckskit does
(integer row reduction with gcds, Fraction elimination, tuple-keyed dict
updates) but none of ckskit's code, so a change to the program cannot
move it.  A sample is the kernel's CPU time, so that stretches in which
the host takes the core away (steal) do not count in it: they show in
wall time only, not in CPU time, and are not the program's.  REF_S /
kernel seconds is the machine's speed at that instant,
relative to the reference; the samples are uniform in time, so their
mean weights each stretch by its length, and a call's wall seconds times
that mean is its time at the reference speed.  The time the samples
take is subtracted from the call's before it is scaled.

The probe measures the core the calling process runs on: work handed to
other processes (`--jobs` > 1) is scaled by that core's speed, not its own.
"""

import gc
import math
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1

# Chosen so that, on the machine BASELINE.md describes, the median of a
# call's time at the reference speed matches the median of its raw time.
REF_S = 0.0030

_N = 12
_rng = random.Random(12345)
_MATRIX = [[_rng.choice((-1, 0, 0, 1)) for _ in range(_N)] for _ in range(_N)]


def kernel():
    """A fixed amount of interpreter work of about 3 ms."""
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        p = next((i for i in range(k, _N) if m[i][k]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, _N):
            f = m[i][k]
            if f:
                pk = m[k][k]
                m[i] = [pk * x - f * y for x, y in zip(m[i], m[k])]
                g = 0
                for x in m[i]:
                    g = math.gcd(g, x)
                if g > 1:
                    m[i] = [x // g for x in m[i]]
    q = [[Fraction(x) for x in row] for row in _MATRIX[:8]]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, len(q)) if q[i][c] != 0), None)
        if p is None:
            continue
        q[r], q[p] = q[p], q[r]
        for i in range(len(q)):
            if i != r and q[i][c] != 0:
                f = q[i][c] / q[r][c]
                q[i] = [x - f * y for x, y in zip(q[i], q[r])]
        r += 1
    counts = {}
    for i in range(1500):
        key = tuple(sorted((i % 7, i % 11, i % 13)))
        counts[key] = counts.get(key, 0) + 1
    return r, len(counts)


class Probe:
    """Samples the kernel's time every PERIOD_S between start and stop.

    Installs a SIGALRM handler, so only one Probe may be in use per
    process, from the main thread."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        # with the collector off, the time does not depend on the caller's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - t0)
        if enabled:
            gc.enable()

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling.  Returns the seconds the samples took and the
        mean speed relative to REF_S; one more sample is taken after
        stopping, so that a call shorter than PERIOD_S has one too."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = sum(self.samples)
        self._sample()
        return spent, statistics.fmean(REF_S / s for s in self.samples)
