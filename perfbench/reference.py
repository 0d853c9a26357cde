"""Host-speed reference: time in units of a fixed piece of Python work.

The hosts this benchmark runs on share their cores, and their speed drifts:
on a 2-vCPU KVM host a fixed pure-Python loop timed back to back ran at
anything from one to two times its fastest time, in phases lasting from a
fraction of a second to tens of seconds.  Wall time alone therefore
measures the host as much as the simulator.

:class:`RefClock` samples the host's speed all through one operation: an
interval timer interrupts the operation every :data:`INTERVAL_S` seconds,
and the signal handler times one :func:`reference_work` run.  Each stretch
of the operation between two samples is divided by the mean reference time
of its two ends, so its figure is "how many reference runs this took" at
the host speed of that moment.  The handler runs between two bytecodes of
the interrupted code and touches none of its state, so the simulation's
results do not change.

The reference is the benchmark's own code, not the simulator's: a change to
the simulator cannot change it.  It does the kind of work the simulator's
inner loops do (attribute access on small objects, dict and heap
operations, integer arithmetic and branches) and runs with the cyclic
garbage collector off, so the size of the simulator's heap does not change
its cost.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: steps of one reference run; about 2 ms on a 2-vCPU KVM host
REF_STEPS = 1500
#: wall time between two reference runs
INTERVAL_S = 0.04


class _Bank:
    __slots__ = ("open_row", "ready", "hits")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready = 0
        self.hits = 0


def reference_work(steps: int = REF_STEPS) -> int:
    """A fixed toy event loop: requests to 16 banks with an open row each.

    Deterministic; returns the number of row hits so the work is used."""
    banks = [_Bank() for _ in range(16)]
    pending: dict[int, int] = {}
    queue: list[tuple[int, int, int]] = []
    x, now = 12345, 0
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        addr = x & 0xFFFFFF
        heapq.heappush(queue, (now + (x & 31), i, addr))
        pending[i] = addr
        while queue and queue[0][0] <= now:
            _due, key, addr = heapq.heappop(queue)
            bank = banks[(addr >> 6) & 15]
            row = addr >> 13
            if bank.open_row == row:
                bank.hits += 1
                bank.ready = max(bank.ready, now) + 8
            else:
                bank.open_row = row
                bank.ready = max(bank.ready, now) + 24
            del pending[key]
        now += 1 + (x & 3)
    return sum(bank.hits for bank in banks)


class RefClock:
    """Wall time and reference-normalised time of one operation.

    Between :meth:`start` and :meth:`stop`, an interval timer interrupts
    the operation every :data:`INTERVAL_S` seconds of wall time and the
    signal handler times one :func:`reference_work` run.  The timeline is
    cut into segments at these samples, each divided by the mean reference
    time of its two ends.  ``wall_s`` and ``ref_units`` both leave out the
    reference runs; one reference unit is the time of one run."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_units = 0.0
        self.samples = 0
        self._last_ref = 0.0
        self._last_t = 0.0
        self._previous_handler = None
        self._sampling = False

    def _sample(self) -> None:
        t_end = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        ref = time.perf_counter() - t0
        if was_enabled:
            gc.enable()
        if self.samples:
            segment = t_end - self._last_t
            self.wall_s += segment
            self.ref_units += segment / ((self._last_ref + ref) / 2)
        self.samples += 1
        self._last_ref = ref
        self._last_t = time.perf_counter()

    def _on_timer(self, _signum, _frame) -> None:
        # a tick that lands while a sample runs (a host stall longer than
        # the interval) is dropped rather than nested
        if not self._sampling:
            self._sampling = True
            try:
                self._sample()
            finally:
                self._sampling = False

    def start(self) -> None:
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
