"""Machine-speed probe that takes speed drift out of job times.

On the shared 2-core machine this benchmark was written on, the speed of
the same single-threaded code switches between levels up to 2.7x apart,
often several times a minute, and each core drifts on its own.  CPU time
tracks wall time and there is no steal time, so neither the scheduler nor
the clock accounts for it.

While a probe is active, the measured process is pinned to one CPU and a
sibling process, pinned to the same CPU, wakes every 10 ms and times a
fixed snippet of the same kind of work the package does: small int64 numpy
products and frozenset operations in interpreted Python.  A job that ran
from ``start`` to ``end`` is scaled by the CPU's mean speed over that span,
measured as ``REFERENCE_S`` over the snippet times around it and raised to
``ELASTICITY``, so it reads as its time at the reference speed.

The snippet runs in its own process so that the measured program's heap
and garbage collector cannot touch the reading.  On that machine, next to a
busy loop with a tiny heap, this probe read 4% slower during a7 lattice
builds (158 MiB heap) than during a5 catalog builds; the same snippet timed
in a SIGPROF handler inside the measured process read 21% slower.  A
sibling on the other core did not track the measured core at all: scaled
times spread as much as raw ones.  The probe costs the measured process
about 1% of its CPU.

Run as a script with a CPU number, this file is the sibling: it samples
until its standard input closes, then prints one ``start duration`` line
per sample.
"""

import bisect
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.01
# samples this far around a job also count, so a short job still gets some
PAD_S = 0.1
GROUP = 5
# the sibling's median snippet time on that machine
REFERENCE_S = 130e-6
# job times move by this power of the snippet's speed: fitted on that
# machine over 12-28 runs of each catalog and lattice job of the benchmark
# (0.79-0.91 per job, correlation -0.95); part of a job's time, such as
# waiting on memory, does not follow the core's speed
ELASTICITY = 0.85
READY = "ready"

_A = np.arange(16, dtype=np.int64).reshape(4, 4)
_B = frozenset(range(5, 15))


def snippet():
    s = 0
    for i in range(20):
        s += int(((_A @ _A) % 7)[0, 0]) + len(frozenset(range(i)) & _B)
    return s


def sample_until_eof(cpu):
    """The sibling's loop: one sample every PERIOD_S until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    print(READY, flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.perf_counter()
        snippet()
        samples.append((start, time.perf_counter() - start))
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))


class SpeedProbe:
    """Pins this process and runs the sibling for a ``with`` block.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so
    the sibling's sample times compare directly with the caller's.
    """

    def __init__(self):
        self.times = []
        self.durations = []

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != READY:
            self._stop()
            raise RuntimeError("speed probe did not start")
        return self

    def _stop(self):
        self._proc.stdin.close()
        with self._proc.stdout:
            out = self._proc.stdout.read()
        self._proc.wait()
        os.sched_setaffinity(0, self._affinity)
        return out

    def __exit__(self, *exc):
        for line in self._stop().splitlines():
            t, d = line.split()
            self.times.append(float(t))
            self.durations.append(float(d))

    def scale(self, start, end):
        """Factor that turns a time measured from start to end into reference time.

        One snippet time is noisy (an interrupt or a page fault can land in
        it), so samples are taken in runs of GROUP, each reduced to its
        median.  Samples are evenly spaced in time, so the mean of the
        groups' speeds is the mean speed over the span.  The factor is that
        speed to the power ELASTICITY.
        """
        i = bisect.bisect_left(self.times, start - PAD_S)
        j = bisect.bisect_right(self.times, end + PAD_S)
        window = self.durations[i:j] or self.durations[-GROUP:]
        if not window:
            return 1.0
        groups = [window[k:k + GROUP] for k in range(0, len(window), GROUP)]
        speed = statistics.fmean(REFERENCE_S / statistics.median(g) for g in groups)
        return speed ** ELASTICITY


if __name__ == "__main__":
    sample_until_eof(int(sys.argv[1]))
