"""Host-speed ticks sampled through every timed call, and the reference
seconds they convert raw timings to.

The benchmark runs on a shared VM whose speed drifts by up to 2x, on
both vCPUs alike, in phases that change within a second and last
minutes; steal time stays at zero, so process time drifts with wall
time.  Raw medians of 40-second runs therefore spread by 20-30% between
runs of the same code.  A probe timed *between* driver calls tracks that
drift only loosely (log-log slope 0.3-0.6 against the calls), because
the phase changes during a call.

:class:`HostClock` samples the host's speed *during* the calls instead:
a ``SIGALRM`` every :data:`INTERVAL_S` runs one :func:`tick`, a fixed
piece of pure-Python work that imports nothing from ``src/``, so no
change to the simulator changes its cost.  A timed interval's mean tick
tracks its duration closely (log-log correlation 0.90-0.98), but with a
slope that itself drifts with the host's phase: 0.95-1.0 in one hour,
0.5-0.65 in the next.  :func:`at_ref` therefore fits the slope to the
run's own intervals and converts each interval's raw seconds, less the
time spent in ticks, to *reference seconds*: the seconds it would have
taken at a mean tick of :data:`REF_TICK_S`.  Over 40-second windows of
back-to-back calls that cut the spread of window medians from 0.07-0.34
(raw) to 0.006-0.04.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Seconds between ticks.  A tick costs about 2% of the host's time.
INTERVAL_S = 0.005
#: The mean tick reference seconds are quoted at: the middle of the
#: ticks seen inside calls on a shared 2-vCPU Xeon VM (65-130 us), so the
#: fitted slope is extrapolated as little as possible.
REF_TICK_S = 80e-6
#: The range the fitted slope is held to: the slopes fitted to 40-second
#: windows of back-to-back calls ranged from 0.4 to 1.1.
SLOPE_RANGE = (0.4, 1.1)

_TICK_KEYS = 211
_tick_table = dict.fromkeys(range(_TICK_KEYS), 0)


def tick() -> int:
    """The fixed work one sample times.  It allocates no container, so
    it does not move the garbage collector's schedule in the program."""
    table = _tick_table
    total = 0
    for i in range(400):
        key = i * 7919 % _TICK_KEYS
        table[key] = (table[key] + i) & 0xFFFF
        total += key
    return total


@dataclass(frozen=True)
class Reading:
    """Wall time, tick count and total tick seconds at one instant."""

    wall: float
    ticks: int
    tick_s: float

    def net_s(self, end: Reading) -> float:
        """Seconds from this reading to ``end``, less the ticks' time."""
        return (end.wall - self.wall) - (end.tick_s - self.tick_s)

    def mean_tick_s(self, end: Reading) -> float:
        """The mean tick from this reading to ``end``."""
        ticks = end.ticks - self.ticks
        if ticks <= 0:
            raise ValueError("no host-speed tick in the interval")
        return (end.tick_s - self.tick_s) / ticks


def fitted_slope(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log seconds on log mean tick over
    ``(net seconds, mean tick)`` samples, held to :data:`SLOPE_RANGE`."""
    xs = [math.log(tick_s) for _, tick_s in samples]
    ys = [math.log(net_s) for net_s, _ in samples]
    mean_x = statistics.fmean(xs)
    spread = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * y for x, y in zip(xs, ys)) / spread if spread else 1.0
    return min(max(slope, SLOPE_RANGE[0]), SLOPE_RANGE[1])


def at_ref(samples: list[tuple[float, float]]) -> float:
    """Median reference seconds of ``(net seconds, mean tick)`` samples,
    each moved along :func:`fitted_slope` to a tick of :data:`REF_TICK_S`.

    A program change that makes every interval k times longer makes the
    result k times larger.
    """
    slope = fitted_slope(samples)
    return statistics.median(
        net_s * (REF_TICK_S / tick_s) ** slope for net_s, tick_s in samples
    )


class HostClock:
    """Ticks on ``SIGALRM`` while installed; see the module docstring."""

    def __init__(self) -> None:
        self.ticks = 0
        self.tick_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        tick()
        self.tick_s += time.perf_counter() - start
        self.ticks += 1

    def read(self) -> Reading:
        # A tick landing between these reads moves its time to the
        # neighbouring interval, which is 0.01% of a call.
        return Reading(time.perf_counter(), self.ticks, self.tick_s)

    @contextmanager
    def installed(self):
        """Tick every :data:`INTERVAL_S` for the ``with`` block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
