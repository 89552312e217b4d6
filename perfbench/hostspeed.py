"""How fast the host runs Python at each moment of a run.

The benchmark shares its cores with other machines' work, and that work
slows ours by up to 2x from one stretch of seconds to the next.  To keep
the end-to-end figures comparable across runs made at different times,
the benchmark times a fixed reference kernel while each op runs (from a
timer signal, every TICK_S) and scales the op's latency by

    REFERENCE_KERNEL_S / mean kernel time during the op

so that a figure reads what the op would take on a host that runs the
kernel in REFERENCE_KERNEL_S.  Set-up probes run in a child process, so for them the
kernel runs in short windows right before and after the probe instead.
The kernel uses only the standard library and no pftrim code, so a change
to pftrim moves the op latencies but never the factor.  It does the kind
of work pftrim does most (products of dict-of-exponent-tuple polynomials
with coefficients mod p), so contention slows both alike.  The time the
kernel takes inside an op is taken off that op's latency.
"""

import contextlib
import random
import signal
import statistics
import time

#: Interval of the timer signal that samples host speed inside an op, and
#: kernel calls per sample (about 0.25 ms each on a 2-core Xeon box).
TICK_S = 0.02
KERNELS_PER_TICK = 4

#: Kernel time of the reference box (2 cores of a shared Xeon host, Python
#: 3.11) at its uncontended speed: the fastest call over many runs.  A
#: fixed figure rather than each run's own fastest call, because in some
#: runs the host never reaches that speed, and a run's own fastest call
#: then moves all of its figures together.
REFERENCE_KERNEL_S = 230e-6

_rng = random.Random("hostspeed")
_A = [((_rng.randint(0, 4), _rng.randint(0, 4), _rng.randint(0, 4)), _rng.randint(1, 2))
      for _ in range(24)]
_B = [((_rng.randint(0, 4), _rng.randint(0, 4), _rng.randint(0, 4)), _rng.randint(1, 2))
      for _ in range(24)]


def _kernel():
    acc = {}
    for _ in range(2):
        for (a1, a2, a3), ca in _A:
            for (b1, b2, b3), cb in _B:
                e = (a1 + b1, a2 + b2, a3 + b3)
                c = (acc.get(e, 0) + ca * cb) % 3
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
    return acc


class Sampling:
    """Kernel samples taken while one op runs, and the time they took."""

    def __init__(self):
        self.means = []
        self.paused = 0.0


class HostSpeed:
    """Kernel timings of one run.  ``window`` times the kernel between ops;
    ``sampling`` times it inside an op, from a timer signal every TICK_S, so
    the samples see the contention the op itself meets.  ``factor`` turns
    an op's samples into its scale factor."""

    def __init__(self):
        self.samples = []

    def _time_kernel(self, times):
        now = time.perf_counter()
        for _ in range(KERNELS_PER_TICK):
            _kernel()
            later = time.perf_counter()
            times.append(later - now)
            now = later

    def window(self, seconds):
        """Time the kernel back to back for ``seconds``; returns the mean
        kernel time of the window."""
        times = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            self._time_kernel(times)
        self.samples.extend(times)
        return statistics.fmean(times)

    @contextlib.contextmanager
    def sampling(self):
        """Within the block, every TICK_S interrupt the main thread and time
        the kernel.  Yields the Sampling, whose ``paused`` is the time the
        interruptions took; the caller takes it off the op's latency."""
        taken = Sampling()

        def tick(_signum, _frame):
            start = time.perf_counter()
            times = []
            self._time_kernel(times)
            self.samples.extend(times)
            taken.means.append(statistics.fmean(times))
            taken.paused += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, means):
        """Scale factor for an op (or probe) whose kernel samples had
        these mean times."""
        return REFERENCE_KERNEL_S / statistics.fmean(means)
