"""Machine-speed samples that let a run rescale its timings.

On a shared host the speed of one core drifts by up to 2x, over seconds and
over minutes, and every timing of a run drifts with it. A child therefore
times a small fixed pure-Python loop (``tick``) right after the import and,
through an interval timer, every ``INTERVAL_S`` seconds during the workload
call. The run reports each timing rescaled to the speed at which a tick
takes ``NOMINAL_S``: measured time * NOMINAL_S / harmonic mean of the tick
times. Ticks taken at even intervals each stand for an equal slice of the
call, and the work a slice does is in proportion to 1 / tick time, so
1 / harmonic mean is in proportion to the mean speed over the call. The
ticks right before and right after the call are taken in short bursts; each
burst counts as one sample (``burst``), the weight of one interval.

A tick does the two kinds of work the program does, a sparse convolution of
term dicts keyed by exponent pairs and arithmetic on integers of a few
hundred digits, but never imports iqsl2, so no change to the program moves
it. Contention slows the two kinds by different amounts, so a tick of only
one kind tracks the workloads worse. The time the timer's ticks take
is subtracted from the call's wall time. A tick runs with the garbage
collector off, so that a collection over the program's heap, which would
land in whichever tick allocates at the wrong moment, never enters it.
"""

import gc
import math
import statistics
import signal
import time

# About the median tick while the core is not shared, on the machine the
# baseline was taken on (2 vCPU Intel Xeon, CPython 3.11.7). It fixes the
# unit of the rescaled timings; it is not a threshold.
NOMINAL_S = 0.0023
INTERVAL_S = 0.2
EDGE_TICKS = 9

_A = {(i, j): (i * 31 + j * 17) % 97 - 48 for i in range(-6, 6) for j in range(3)}
_X = 7 ** 400 + 12345
_Y = 11 ** 350 + 999


def _convolve(a, b):
    out = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            v = get(k, 0) + c1 * c2
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def tick():
    """Seconds the fixed reference work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _convolve(_A, _A)
        for _ in range(60):
            p = _X * _Y
            divmod(p, _X + 3)
            math.gcd(p, _Y + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst(n=EDGE_TICKS):
    """Harmonic mean of ``n`` ticks in a row: one sample."""
    return statistics.harmonic_mean([tick() for _ in range(n)])


class Sampler:
    """Ticks every INTERVAL_S seconds while the ``with`` block runs.

    ``samples`` holds the tick times and ``spent`` their total, which the
    caller subtracts from the block's wall time.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(tick())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
