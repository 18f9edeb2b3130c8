"""Machine-speed probes: job times in reference seconds.

The benchmark runs on a shared host whose speed drifts by up to two times
within seconds (measured on a 2-vCPU VM: the same fixed kernel took 58 to
131 ms over 90 s, with CPU time equal to wall time and no hardware
counters to read). Raw seconds then measure the neighbours as much as
bchbound. So a ``Meter`` times a fixed pure-Python probe right before and
right after each job and, from a SIGALRM timer, every ``PERIOD`` seconds
while the job runs. Each stretch of the job between two probes counts as
its length times ``REF_S`` over the median time of the probes around it:
seconds at the speed at which the probe takes ``REF_S``. The time the
probes take is left out of the job's time.

The probe shares nothing with bchbound, so a change to the program moves
the scaled times just as it moves the raw ones, while a change of machine
speed cancels out. Measured on the job mix of the ``spectra`` workload,
the spread of one job's time over repeats fell from about 0.2 of its
median raw to about 0.04 scaled (probing every 100 ms); probing only
before and after each job left 0.15 for jobs of one second or more.

The probe mixes the work bchbound does in pure Python: small-int loops,
list indexing, and method calls doing a carry-less multiply like
``FieldSpec.mul``. It takes about 2 ms, so probing every 50 ms adds
about 4% to a job's wall time; that time is not counted. Stdlib only.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.0015    # probe time that defines one reference second
PERIOD = 0.05     # seconds between probes while a job runs
WARMUP = 20       # untimed probe calls, so the timed ones run specialized


class _Acc:
    __slots__ = ("v",)

    def __init__(self):
        self.v = 0

    def step(self, a, b):
        r = 0
        while a:
            if a & 1:
                r ^= b
            a >>= 1
            b <<= 1
        self.v = (self.v + (r & 0xFFFF)) % 65521
        return r


def _kernel():
    t, table = 0, list(range(256))
    for i in range(3000):
        j = (i * 2654435761) & 255
        t ^= table[j] * 3 + (t >> 3)
    acc, words = _Acc(), [(i * 40503) & 0x3FF for i in range(64)]
    for i in range(428):
        t += acc.step(words[i & 63] | 1, words[(i * 7) & 63])
    return t


def warm_up():
    for _ in range(WARMUP):
        _kernel()


def probe():
    """(start, end) of one probe call."""
    t0 = time.perf_counter()
    _kernel()
    return t0, time.perf_counter()


def scaled(marks):
    """Reference seconds between the first and last probe of marks.

    marks are the (start, end) pairs of consecutive probes. The gap between
    probes i and i+1 is weighted by REF_S over the median duration of
    probes i-1 to i+2: a probe stalled by a short hiccup of the host would
    otherwise discount the stretches on both sides of it, while a change
    of speed lasting seconds still shows in its neighbours.
    """
    durations = [e - s for s, e in marks]
    total = 0.0
    for i in range(len(marks) - 1):
        near = durations[max(0, i - 1):i + 3]
        gap = marks[i + 1][0] - marks[i][1]
        total += gap * REF_S / statistics.median(near)
    return total


class Meter:
    """Times calls in plain and in reference seconds.

    With sample=False only the probes before and after a call are taken
    (used for traced runs, where a probe inside a call would be counted
    in the self time of whatever span it interrupted).
    """

    def __init__(self, sample=True):
        self.sample = sample
        self.marks = None
        warm_up()
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.marks is not None:
            self.marks.append(probe())

    def measure(self, fn, *args):
        """(fn(*args), plain seconds, reference seconds)."""
        self.marks = marks = [probe()]
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn(*args)
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.marks = None
        marks.append(probe())
        probing = sum(e - s for s, e in marks[1:-1])
        return result, marks[-1][0] - marks[0][1] - probing, scaled(marks)
