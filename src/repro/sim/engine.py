"""Discrete-event engine: one heap plus per-channel controller lanes.

Components schedule ``fn(now, *args)`` callbacks at absolute cycles in the
CPU clock domain; the engine runs them in global ``(cycle, seq)`` order,
so same-cycle events run in the order they were scheduled — deterministic,
which the reproducibility tests rely on.

Events come from three sources, all drawing sequence numbers from one
counter:

* **the heap** — every generic :meth:`EventEngine.schedule` call (core
  wake timers, online-ME window ticks, telemetry sampler ticks);
* **decision slots** — one per DRAM channel lane, armed by
  :meth:`EventEngine.kick`.  A memory controller keeps at most one
  scheduling point pending per channel, so a single ``(cycle, seq)`` slot
  replaces a heap entry;
* **completion FIFOs** — one per lane, filled by
  :meth:`EventEngine.complete`.  Read completions on one channel finish
  in strictly increasing cycle order (the data bus serialises bursts and
  the controller adds a constant return overhead), so a plain deque is
  already sorted.

A lane is keyed by the global :attr:`repro.dram.channel.Channel.index`;
whichever controller owns a channel registers its handlers for that lane
with :meth:`EventEngine.attach_lane`.  Lane dispatches count in
``events_processed`` like heap events.

Heap events may be scheduled in the past only up to the current cycle
(they are clamped to ``now``); going genuinely backwards would mean a
causality bug, and clamping keeps rounding slack from small analytic
models from crashing a run while the invariant `engine.now` never
decreases still holds.  Every clamp is counted in ``clamped_events`` (the
telemetry sampler exposes it as a time series), and ``strict=True`` turns
clamping into :class:`PastEventError` for tests hunting causality bugs.
Lane events never need clamping: decision slots are armed at
``max(busy_until, now)`` and completions land after ``now``.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Callable

__all__ = ["EventEngine", "PastEventError"]

#: sentinel cycle for an empty decision slot — beyond any real cycle
_NEVER = 1 << 62


class PastEventError(RuntimeError):
    """A strict-mode engine was asked to schedule before ``now``."""


class EventEngine:
    """Heap scheduler with O(1) lanes for controller-owned event shapes."""

    __slots__ = (
        "now",
        "strict",
        "_heap",
        "_seq",
        "events_processed",
        "clamped_events",
        "stop_requested",
        "_dec_cycle",
        "_dec_seq",
        "_comps",
        "_points",
        "_delivers",
    )

    def __init__(self, strict: bool = False) -> None:
        self.now: int = 0
        self.strict = strict
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.events_processed = 0
        #: cooperative stop: a finish hook sets this instead of making the
        #: run loop call a predicate after every event (see MultiCoreSystem)
        self.stop_requested = False
        #: past-cycle schedules clamped to the present (0 in a clean run)
        self.clamped_events = 0
        # Per-lane state, indexed by lane (global channel index).
        self._dec_cycle: list[int] = []
        self._dec_seq: list[int] = []
        self._comps: list[deque] = []
        self._points: list[Callable[[int], None] | None] = []
        self._delivers: list[Callable[[int, object], None] | None] = []

    # -- lanes ---------------------------------------------------------------

    def attach_lane(
        self,
        lane: int,
        point_fn: Callable[[int], None],
        deliver_fn: Callable[[int, object], None],
    ) -> None:
        """Register the handlers of channel lane ``lane``.

        ``point_fn(now)`` runs an armed decision slot; ``deliver_fn(now,
        req)`` runs a completion.  Lanes are created on demand.
        """
        while len(self._points) <= lane:
            self._dec_cycle.append(_NEVER)
            self._dec_seq.append(_NEVER)
            self._comps.append(deque())
            self._points.append(None)
            self._delivers.append(None)
        self._points[lane] = point_fn
        self._delivers[lane] = deliver_fn

    def kick(self, lane: int, cycle: int) -> None:
        """Arm the (single) decision slot of ``lane`` at ``cycle``.

        The caller guarantees the slot is empty and ``cycle >= now``.
        """
        self._dec_cycle[lane] = cycle
        self._dec_seq[lane] = self._seq
        self._seq += 1

    def complete(self, lane: int, cycle: int, req) -> None:
        """Append a completion to ``lane``'s FIFO.

        Valid because completion cycles on one lane strictly increase.
        """
        self._comps[lane].append((cycle, self._seq, req))
        self._seq += 1

    # -- heap ----------------------------------------------------------------

    def schedule(self, cycle: int, fn: Callable, *args) -> None:
        """Run ``fn(now, *args)`` at ``cycle`` (clamped to the present)."""
        if cycle <= self.now:
            if cycle < self.now:
                # Count the clamp before a strict-mode raise: the counter
                # is the record of causality violations, and an exception
                # a caller swallows must not make the run look clean.
                self.clamped_events += 1
                if self.strict:
                    raise PastEventError(
                        f"schedule at cycle {cycle} while now={self.now}"
                    )
            cycle = self.now
        heappush(self._heap, (cycle, self._seq, fn, args))
        self._seq += 1

    # -- introspection -------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued events across the heap and every lane."""
        n = len(self._heap)
        for c in self._dec_cycle:
            if c != _NEVER:
                n += 1
        for q in self._comps:
            n += len(q)
        return n

    def peek_cycle(self) -> int | None:
        """Cycle of the next event, or ``None`` when idle."""
        best = self._heap[0][0] if self._heap else _NEVER
        for c in self._dec_cycle:
            if c < best:
                best = c
        for q in self._comps:
            if q and q[0][0] < best:
                best = q[0][0]
        return None if best == _NEVER else best

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns ``False`` when nothing is queued."""
        before = self.events_processed
        self._drain(None, 1)
        return self.events_processed > before

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_cycles: int | None = None,
        max_events: int | None = None,
    ) -> None:
        """Drain events until the engine idles or a bound is hit.

        Parameters
        ----------
        until:
            Optional predicate checked after every event; ``True`` stops.
        max_cycles / max_events:
            Safety bounds; exceeding ``max_cycles`` stops cleanly (runs are
            expected to finish via ``until`` or ``stop_requested``),
            exceeding ``max_events`` raises — that means a livelock bug.
        """
        # The simulation allocates millions of short-lived containers (ROB
        # entries, waiter lists, request objects); none of them form cycles
        # that must be reclaimed mid-run, so the generational collector's
        # periodic scans are pure overhead — a measurable fraction of a
        # run.  Suspend it for the drain and restore the caller's setting;
        # anything deferred is collected at the next threshold after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            limit = None if max_events is None else max_events + 1
            if self._drain(until, limit, max_cycles):
                raise RuntimeError(
                    f"event budget exceeded ({max_events}); livelock suspected"
                )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _drain(
        self,
        until: Callable[[], bool] | None,
        limit: int | None,
        max_cycles: int | None = None,
    ) -> bool:
        """Pop events in global ``(cycle, seq)`` order.

        Stops when every source is empty, the next event lies beyond
        ``max_cycles``, ``stop_requested`` is set, ``until()`` holds or
        ``limit`` events ran; returns ``True`` only in the last case.

        The merged pop costs a handful of comparisons per event (channel
        counts are tiny) and saves a heap push and pop per scheduling
        point and per completion.
        """
        heap = self._heap
        dec_c = self._dec_cycle
        dec_s = self._dec_seq
        comps = self._comps
        points = self._points
        delivers = self._delivers
        nlanes = len(points)
        pop = heappop
        never = _NEVER
        horizon = never if max_cycles is None else max_cycles
        if limit is None:
            limit = never
        done = 0
        while True:
            if heap:
                h0 = heap[0]
                bc = h0[0]
                bs = h0[1]
                src = 0
            else:
                bc = never
                bs = never
                src = -1
            ch = 0
            i = 0
            while i < nlanes:
                c = dec_c[i]
                if c < bc or (c == bc and dec_s[i] < bs):
                    bc = c
                    bs = dec_s[i]
                    src = 1
                    ch = i
                q = comps[i]
                if q:
                    e = q[0]
                    c = e[0]
                    if c < bc or (c == bc and e[1] < bs):
                        bc = c
                        bs = e[1]
                        src = 2
                        ch = i
                i += 1
            if src < 0 or bc > horizon:
                return False
            self.now = bc
            self.events_processed += 1
            done += 1
            if src == 2:
                delivers[ch](bc, comps[ch].popleft()[2])
            elif src == 1:
                dec_c[ch] = never
                dec_s[ch] = never
                points[ch](bc)
            else:
                _, _, fn, args = pop(heap)
                fn(bc, *args)
            if self.stop_requested:
                return False
            if until is not None and until():
                return False
            if done == limit:
                return True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock (handlers stay)."""
        self._heap.clear()
        self.now = 0
        self._seq = 0
        self.events_processed = 0
        self.clamped_events = 0
        self.stop_requested = False
        for lane in range(len(self._points)):
            self._dec_cycle[lane] = _NEVER
            self._dec_seq[lane] = _NEVER
            self._comps[lane].clear()
