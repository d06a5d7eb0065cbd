"""Host speed, sampled while the workload runs, and timings rescaled by it.

On a small shared host the same code runs up to twice as fast or as slow
from one second to the next, and its average speed moves by 15-30% from
one minute to the next, while CPU time tracks wall time.  Two runs of
the same code minutes apart then differ by more than any bound a
regression check could use.  So every timing of an untraced run is
rescaled to a fixed host speed:

- a probe, ``kernel()``, a fixed computation of about 1 ms in interpreted
  code and built-ins only (so no change to the package can move it), runs
  in the measured process every ``INTERVAL`` seconds, from SIGALRM;
- its own time is taken out of the call it interrupted;
- a call's remaining time is multiplied by ``REFERENCE`` over the
  harmonic mean time of the probes inside the call, and, when fewer than
  ``MIN_SAMPLES`` fell inside, of the nearest ones before and after it
  up to that number.

Probes are spread evenly in time, so the mean of their speeds, 1 / time,
is the host's mean speed over the call, and the work the call did is its
time multiplied by that speed: hence the harmonic mean.  It also keeps a
probe that a brief stall made several times slower from weighing on the
estimate more than the stall weighed on the call.  Over 30 corpus passes
the pass time varied by 14% (coefficient of variation), rescaled by 3%.

A rescaled time is the time the call would take on a host that runs the
probe in ``REFERENCE`` seconds.  That constant is within the range of the
probe's time on a 2-core 2.1 GHz x86-64 cloud host under Python 3.11
(0.7-1.3 ms as the host's speed moved), so rescaled seconds there read
close to wall seconds.  Work a call hands to other processes would run
beside the probe, and the probe's time, 2-3% of the call's, would still
be taken out of it; the package uses threads only, which wait for the
probe under the interpreter lock.
"""

from __future__ import annotations

import bisect
import gc
import inspect
import signal
import statistics
import time

INTERVAL = 0.05
MIN_SAMPLES = 8
REFERENCE = 0.0012


def kernel():
    """Exact product of two sparse polynomials with rational coefficients
    held as (numerator, denominator) pairs: dict lookups, tuple keys,
    small-integer arithmetic and function calls in interpreted code, as in
    the package, and no imports."""

    def gcd(a, b):
        while b:
            a, b = b, a % b
        return a

    terms = [((i, j), (i - 2, j + 1)) for i in range(6) for j in range(6)]
    out = {}
    for (a, b), (p, q) in terms:
        for (c, d), (r, s) in terms:
            key = (a + c, b + d)
            n, m = out.get(key, (0, 1))
            n, m = n * q * s + p * r * m, m * q * s
            g = gcd(n, m)
            out[key] = (n // g, m // g)
    return out


class Probe:
    """Runs ``kernel`` every INTERVAL seconds while entered, and rescales
    the timings of the calls it interrupted."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()   # a collection of the package's garbage is not host speed
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def __enter__(self):
        self.sample()   # so that even a call shorter than INTERVAL has one
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def rescale(self, start: float, end: float) -> float:
        """The call that ran from ``start`` to ``end`` (perf_counter), in
        rescaled seconds."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        widen = max(0, -(-(MIN_SAMPLES - (hi - lo)) // 2))
        near = self.durations[max(0, lo - widen):hi + widen]
        return (end - start - inside) * REFERENCE / statistics.harmonic_mean(near)


# A fresh interpreter that times its own import of walkerspin.cli and
# probes the host before and after, using nothing it would not load anyway.
# It prints: first-statement time, import start, import end, mean probe time.
SETUP_CODE = """\
import time
t1 = time.perf_counter()
KERNEL
def probe(n):
    out = []
    for _ in range(n):
        s = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - s)
    return out
before = probe(COUNT)
t2 = time.perf_counter()
import walkerspin.cli
t3 = time.perf_counter()
after = probe(COUNT)
both = before + after
print(t1, t2, t3, len(both) / sum(1 / t for t in both))
"""


def setup_code(count: int = 20) -> str:
    return (SETUP_CODE.replace("KERNEL", inspect.getsource(kernel))
            .replace("COUNT", str(count)))


def rescale_setup(spawned: float, printed: str) -> float:
    """Set-up time of a fresh interpreter started at ``spawned``
    (perf_counter, which is the system-wide monotonic clock) that ran
    SETUP_CODE: start-up to its first statement plus the import, rescaled
    by the probes it ran just before and after the import."""
    t1, t2, t3, probe = map(float, printed.split())
    return ((t1 - spawned) + (t3 - t2)) * REFERENCE / probe
