"""Calibration units that run inside the queries, from a timer signal.

The machines this benchmark was written on are shared: other tenants slow a
process by up to 1.8x, for periods from milliseconds to tens of seconds,
without stealing CPU time the process can see.  So while a pass runs, a
real-time timer interrupts it every ``PERIOD_S`` and the handler runs one
calibration unit, a fixed piece of pure-Python work that does not use
varlam: build a 511-node tree of slotted objects with frozenset unions,
walk it, and follow 2,000 links of a ring of 65,536 objects in random
memory order.  The ring makes the unit depend on the caches and memory as
the workload's large terms do; a unit that stayed in cache missed slowdowns
that the workloads felt.  The units sample the machine's speed at the
moments the queries run, and the gated timings are divided by their mean.
The caller takes the handler's time out of the query it interrupted.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.01
RING_LINKS = 1 << 16
# Seconds of one unit in a fresh process on the machine the baseline was
# measured on, when quiet: set-up time is reported scaled to it.
NOMINAL_UNIT_S = 0.0005


class _Node:
    __slots__ = ("left", "right", "names")

    def __init__(self, left, right, names):
        self.left, self.right, self.names = left, right, names


class _Link:
    __slots__ = ("next",)


def _ring(n: int) -> _Link:
    """n links chained in a seeded random order, so a walk jumps through
    a few megabytes of memory as the workload's large terms do."""
    links = [_Link() for _ in range(n)]
    order = list(range(n))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        links[a].next = links[b]
    return links[order[0]]


_RING = None


def unit() -> int:
    """The calibration work: build a 511-node tree of slotted objects with
    frozenset unions, walk it, and follow 2,000 links of the ring."""
    global _RING
    if _RING is None:
        _RING = _ring(RING_LINKS)
    level = [_Node(None, None, frozenset((i % 61,))) for i in range(256)]
    while len(level) > 1:
        level = [_Node(a, b, a.names | b.names) for a, b in zip(level[::2], level[1::2])]
    count, stack = 0, [level[0]]
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    link = _RING
    for _ in range(2_000):
        link = link.next
    _RING = link
    return count


class Calibrator:
    """Context manager: runs a unit on every timer tick while it is open.

    ``units`` holds each unit's seconds and ``spent`` their sum.  The
    collector is off during a unit, so that a collection walking the
    workload's terms is not billed to it.  An inactive calibrator runs
    nothing, for the traced passes, whose spans would otherwise include
    the units.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.units: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a unit is dropped
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            unit()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.units.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> Calibrator:
        if self.active:
            unit()  # builds the ring before the first tick
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self) -> float:
        """Mean seconds of one unit, or of a unit run now if none ran yet."""
        if not self.units:
            t0 = time.perf_counter()
            unit()
            self.units.append(time.perf_counter() - t0)
        return statistics.fmean(self.units)
