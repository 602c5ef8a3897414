"""Job times scaled to a fixed reference speed of the processor.

On a shared host the speed of a core changes by a third within a second and
stays changed for seconds to minutes, with CPU time equal to wall time, so a
raw wall time mostly measures the host.  `SpeedProbe` measures that speed
while the jobs run: a timer signal every `INTERVAL_S` runs a fixed
calibration (a sum of products of 128-bit binary floating-point numbers held
as Python integer mantissa and exponent, the arithmetic that `webrank`'s
float and exact layers spend their time in) and records how long it took.
`scaled(start, end)` then converts a stretch of work into the time it would
have taken at the reference speed, at which the calibration takes
`REFERENCE_S`:

    scaled = sum over the pieces of work between calibrations of
             piece seconds * REFERENCE_S / (median calibration within WINDOW_S)

The calibration is the benchmark's own code, never `webrank`'s, so a change
to `webrank` moves the scaled time as it moves the wall time, while a slower
host moves both the work and the calibration and leaves the scaled time
where it was.  The time the calibrations themselves take is left out.

Python runs the signal handler between bytecodes of the main thread, so a
long call into native code delays the next calibration; the pieces then
grow longer and are scaled by the calibrations nearest to them.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.02
WINDOW_S = 0.03
# Median calibration time on the machine the bounds were measured on
# (2 cores of an Intel Xeon, Python 3.11, pure-Python big integers).
REFERENCE_S = 0.00065

PRECISION = 128
_rng = random.Random(7)
_VALUES = [
    (_rng.randrange(2 ** (PRECISION - 1), 2**PRECISION), _rng.randrange(-64, 64))
    for _ in range(64)
]


def _normalize(mantissa: int, exponent: int) -> tuple[int, int]:
    excess = mantissa.bit_length() - PRECISION
    if excess > 0:
        return mantissa >> excess, exponent + excess
    return mantissa, exponent


def _mul(a, b):
    return _normalize(a[0] * b[0], a[1] + b[1])


def _add(a, b):
    if a[1] < b[1]:
        a, b = b, a
    shift = a[1] - b[1]
    if shift > 2 * PRECISION:
        return a
    return _normalize((a[0] << shift) + b[0], b[1])


def calibration() -> tuple[int, int]:
    """A fixed sum of 504 products of 128-bit floats; returns the sum."""
    total = (0, 0)
    for a in _VALUES[:-1]:
        for b in _VALUES[::8]:
            total = _add(total, _mul(a, b))
    return total


class SpeedProbe:
    """Calibrations on a timer signal between start() and stop(), and scaled times."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def _calibrate(self, signum, frame) -> None:
        if self._busy:  # the timer fired again inside a calibration
            return
        self._busy = True
        start = time.perf_counter()
        calibration()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def start(self) -> None:
        calibration()  # warm, before the first sample counts
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _factor(self, t: float) -> float:
        """REFERENCE_S over the median calibration within WINDOW_S of t."""
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        if lo == hi:  # none that close: take the nearest one
            i = min(
                range(max(lo - 1, 0), min(lo + 1, len(self.starts))),
                key=lambda j: abs(self.starts[j] - t),
            )
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def calibrated_s(self, start: float, end: float) -> float:
        """Seconds spent calibrating between start and end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.seconds[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The work done between start and end, in seconds at reference speed."""
        if not self.starts:
            raise RuntimeError("no calibration ran; is the probe started?")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        total = 0.0
        piece_start = start
        for i in range(lo, hi):
            piece_end = self.starts[i]
            total += (piece_end - piece_start) * self._factor(
                (piece_start + piece_end) / 2
            )
            piece_start = piece_end + self.seconds[i]
        return total + (end - piece_start) * self._factor((piece_start + end) / 2)
