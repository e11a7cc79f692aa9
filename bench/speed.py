"""Machine-speed control for a shared host whose speed drifts.

On a shared machine the same work can take twice as long from one minute to
the next, because other tenants load the same cores and caches.  To keep
times comparable between runs, a fixed calibration kernel that does not use
bellgame is timed every ``PERIOD_S`` on a timer signal while the measured
code runs.  The speed factor of an interval is the mean, over the kernel
samples taken in it, of ``KERNEL_REFERENCE_S / sample``; callers take one
explicit sample on each side of an interval (``sample()``), so that even an
interval shorter than ``PERIOD_S`` has samples.  An interval's time
at reference speed is its measured time, less the time spent in the kernel,
times that factor.  The raw times are reported next to the scaled ones.

The module imports nothing but ``gc``, ``math``, ``signal`` and ``time``, so
that it can also sample a fresh interpreter's imports without doing their
work in advance (``math`` loads in well under a millisecond).
"""

from __future__ import annotations

import gc
import math
import signal
import time

#: Sampling period of the calibration kernel.
PERIOD_S = 0.05
#: Warm kernel time on the 2-vCPU x86-64 host the benchmark was tuned on
#: (CPython 3.11).  It only sets the scale of the reported times.
KERNEL_REFERENCE_S = 3.1e-4

_TABLE = list(range(64))


def kernel() -> float:
    """Interpreter-bound work in two halves of about equal time.

    The first is a tight arithmetic loop on a small table, the second the
    dict, string and float-call work bellgame does.  Against fixed bellgame
    operations on the tuning host, neither half alone tracked the slow-downs
    of every operation; together they left the least spread of the scaled
    times (a coefficient of variation of 0.03 to 0.05, against up to 0.08
    for either half alone).
    """
    s = 0
    for i in range(2600):
        s += i * _TABLE[i & 63]
    d: dict[str, float] = {}
    for i in range(300):
        d[f"k{i & 31}"] = d.get(f"k{i & 31}", 0.0) + math.sin(i) * 0.5
    return s + min(d.values())


def speed_factor(samples: list[float]) -> float:
    return sum(KERNEL_REFERENCE_S / s for s in samples) / len(samples)


class SpeedSampler:
    """Times the kernel every PERIOD_S while entered.

    ``samples`` holds the kernel times and ``kernel_s`` the total time spent
    sampling, so that callers can slice both by interval with ``mark()``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.kernel_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        # the program's garbage must not be collected inside the kernel's timing
        enabled = gc.isenabled()
        gc.disable()
        # a first, untimed call refills the caches the program has evicted, so
        # the sample measures the machine, not the program's memory footprint
        kernel()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        self.kernel_s += time.perf_counter() - start

    def sample(self) -> None:
        """One sample now, outside any timed interval; the timer cannot interrupt it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.kernel_s
