"""A probe that gauges how fast the shared host is while a pass runs.

On the host this benchmark was defined on, the same pass takes up to 25%
more or less time from one second to the next.  Other tenants take cache,
memory bandwidth and clock from every kind of code alike.  So every 50 ms of
wall time, a timer signal runs a fixed probe of about 0.6 ms in the
benchmark's own thread.  The probe is 64-bit integer arithmetic in pure
Python, as in Rng.doubles, and small NumPy calls, as in numerics.matmul.
Its time is subtracted from the program call it interrupted.  Every timing,
setup_s included, is then reported at reference speed:

    reported = measured * REFERENCE_S / median(probe times during the pass)

Measured on the defining host, the pass-to-pass spread of recovery-64 fell
from 14% (measured) to 6% (reported).  The probe shares no code with spp,
but it runs between the program's own steps, in whatever cache state they
leave, so a program change can move it a little.  The run therefore prints
the measured figures beside the reported ones, and a claimed gain can be
checked on both.  REFERENCE_S is a round value near the probe's median on a
2-core Intel Xeon VM with Python 3.11.7 and NumPy 2.4.6.  Only ratios
between runs matter.

The signal creates no thread: Python runs the handler in the main thread,
between bytecodes.  A long NumPy call therefore delays the probe, and no
probe runs inside one.  While the main thread waits for a child process,
the probe keeps running beside it.
"""

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0006
INTERVAL_S = 0.05

_MASK = (1 << 64) - 1
_A = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
_B = np.linspace(1.0, -1.0, 64 * 64).reshape(64, 64)


def _kernel():
    s0, s1, s2, s3 = 1, 2, 3, 4
    for _ in range(300):
        x = (s1 * 5) & _MASK
        s0 ^= ((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    out = np.zeros((32, 64))
    buf = np.empty((32, 64))
    for k in range(48):
        np.multiply(_A[:, k, None], _B[None, :, k], out=buf)
        out += buf


class SpeedProbe:
    """Runs the probe on a wall-clock timer while ``running()`` is active."""

    def __init__(self):
        self.samples = []  # seconds of each probe run
        self.total = 0.0  # their sum, to subtract from interrupted calls

    def _tick(self, _signum, _frame):
        start = perf_counter()
        _kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.total += took

    @staticmethod
    def scale(times):
        """Factor from measured to reference speed, given probe times."""
        return REFERENCE_S / statistics.median(times)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
