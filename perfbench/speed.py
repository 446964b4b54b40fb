"""Host-speed clock: elapsed time converted to reference seconds.

On a shared machine the same evaluation can take 0.19 s or 0.35 s
depending on what other tenants do, in spells lasting seconds to
minutes, and CPU time moves with wall time.  A median over a 40 s run
then follows the host more than the program.  So the measured process
times a fixed mpmath loop (``calibrate``: 288-bit products, quotients,
exp and log, sharing no code with mtzeta) at the start and every
PERIOD_S on SIGALRM, and a stretch of the pass lasting dt while a
calibration took c counts as dt * REF_S / c: seconds on a host where the
loop takes REF_S.  The calibration pauses themselves are left out.

Set-up time is scaled the same way, by one calibration taken right
after set-up ends.  Only one thread of one process is measured this way; the clock must not
run while spans are recorded, since the pauses would land inside spans.
"""

import signal
import time

from mpmath import mp, mpf

REF_S = 0.005
PERIOD_S = 0.25


def calibrate():
    with mp.workprec(288):
        a = mpf(1) / 3
        b = mpf(2) / 7
        s = mpf(0)
        for i in range(400):
            s += a * b
            a = a + b / (i + 1)
            if i % 8 == 0:
                s += mp.exp(-a) * mp.log(a)
    return s


def calibration_s():
    """Seconds the loop takes now, its one-time constants computed first."""
    calibrate()
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self.marks = []  # (start, end) perf_counter of each calibration

    def _tick(self, *_):
        t0 = time.perf_counter()
        calibrate()
        self.marks.append((t0, time.perf_counter()))

    def __enter__(self):
        calibrate()  # mpmath's constants at this precision, computed once
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def reference_seconds(self, a, b):
        """Reference seconds in [a, b] outside calibrations.  The stretch
        between two calibrations runs at the mean of their two speeds."""
        marks = self.marks
        total = 0.0
        for k, (start, end) in enumerate(marks):
            speed = REF_S / (end - start)
            if k + 1 < len(marks):
                nxt_start, nxt_end = marks[k + 1]
                speed = (speed + REF_S / (nxt_end - nxt_start)) / 2
                seg_end = nxt_start
            else:
                seg_end = float("inf")
            lo, hi = max(a, end), min(b, seg_end)
            if hi > lo:
                total += (hi - lo) * speed
        return total
