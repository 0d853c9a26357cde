"""Per-core L1D caches over a shared L2, wired to the memory controller.

The hierarchy is the glue between the trace-driven cores and the DRAM
substrate:

* L1 hit           -> core sees the L1 hit latency;
* L1 miss, L2 hit  -> core sees L1 + L2 latency;
* L2 miss          -> an MSHR is allocated (or the miss merges onto an
  in-flight line) and a read :class:`MemoryRequest` goes to the controller;
  the core's waiter callback fires when data returns;
* dirty evictions  -> writeback requests (attributed to the line's owner
  core so bandwidth accounting stays per-application);
* structural stalls -> a full MSHR file or controller buffer returns
  :data:`BLOCKED`; the core parks the access with :meth:`wait_unblock`,
  and the hierarchy calls it back, in park order, once it can go through.

Instruction fetch is not simulated: the synthetic SPEC-like traces model
data references only (SPEC CPU2000 instruction footprints fit comfortably
in the 64 KB L1I), which the paper's memory-scheduling results do not
depend on.

Stores are write-allocate / write-back: a store miss fetches the line like
a load (occupying an MSHR) but never blocks commit — only the fetch stage,
via MSHR back-pressure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cache.cache import SetAssocCache
from repro.cache.mshr import MshrFile, Waiter
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest

__all__ = ["PENDING", "BLOCKED", "CacheHierarchy"]

#: access() result: new memory request issued; waiter fires on data return
PENDING = -1
#: access() result: structural stall (MSHR or controller buffer full)
BLOCKED = -2
#: access() result: miss merged onto an in-flight line; waiter still fires
MERGED = -3


class CacheHierarchy:
    """L1-per-core + shared-L2 hierarchy."""

    def __init__(
        self,
        config: SystemConfig,
        controller: MemoryController,
        num_cores: int,
    ) -> None:
        cc = config.caches
        self.config = config
        self.controller = controller
        self.num_cores = num_cores
        self.line_bytes = cc.l2.line_bytes
        self._line_mask = ~(self.line_bytes - 1)
        # Hit latencies resolved once at assembly time: access() is called
        # for every data reference and must not walk config dataclasses.
        self._l1_hit_latency = cc.l1d.hit_latency
        self._l2_hit_latency = cc.l1d.hit_latency + cc.l2.hit_latency
        self.l1d = [
            SetAssocCache(cc.l1d, name=f"L1D[{i}]") for i in range(num_cores)
        ]
        self.l2 = SetAssocCache(cc.l2, name="L2")
        self.mshrs = [
            MshrFile(config.core.data_mshrs, name=f"MSHR[{i}]")
            for i in range(num_cores)
        ]
        self.l2_mshr_cap = cc.l2.mshrs
        self._l2_outstanding = 0
        #: in-flight lines that have a merged store (fill installs dirty)
        self._store_pending: set[int] = set()
        #: line owner for writeback attribution
        self._owner: dict[int, int] = {}
        #: writebacks that could not enter a full controller buffer
        self._wb_overflow: deque[MemoryRequest] = deque()
        self._wb_flush_armed = False
        #: per-core MSHR capacity (every core's file has the same)
        self._mshr_cap = config.core.data_mshrs
        #: accesses parked on a structural stall, in park order: (their
        #: core's MSHR entries, their L2 set, L2 tag, line, callback)
        self._parked: list[tuple] = []
        #: whether a controller-space watch is currently armed (single
        #: registration, so a buffer-slot release wakes the list once)
        self._space_watch_armed = False
        #: request-lifecycle span collector (wired by MultiCoreSystem
        #: when the telemetry hub captures spans; None otherwise)
        self.spans = None
        #: per-core demand L2 misses (for workload statistics)
        self.l2_misses = [0] * num_cores
        self.demand_accesses = [0] * num_cores
        #: dirty lines written back to memory (telemetry / analyses)
        self.writebacks = 0
        #: optional stream prefetcher (extension; disabled by default)
        self.prefetcher = None
        self._prefetched_lines: set[int] = set()
        self._prefetch_inflight: set[int] = set()
        pf_cfg = getattr(config, "prefetch", None)
        if pf_cfg is not None and pf_cfg.enabled:
            from repro.cache.prefetch import StridePrefetcher

            self.prefetcher = StridePrefetcher(pf_cfg, num_cores, self.line_bytes)

    # -- core-facing API -------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr & self._line_mask

    def access(
        self,
        core_id: int,
        addr: int,
        is_write: bool,
        now: int,
        waiter: Waiter | None,
    ) -> int:
        """One data reference by ``core_id`` at cycle ``now``.

        Returns a non-negative hit latency, :data:`PENDING` (new memory
        request issued), :data:`MERGED` (joined an in-flight miss) — for
        both, ``waiter(line_addr, done_cycle)`` will fire — or
        :data:`BLOCKED` (park with :meth:`wait_unblock` and retry when
        woken).  The core model inlines the L1-hit half of this itself
        (see TraceCore._advance_fetch) and calls
        :meth:`access_after_l1_miss` on a miss.
        """
        l1 = self.l1d[core_id]
        if l1.probe(addr):
            l1.lookup(addr, is_write=is_write)
            self.demand_accesses[core_id] += 1
            return self._l1_hit_latency
        return self.access_after_l1_miss(core_id, addr, is_write, now, waiter)

    def access_after_l1_miss(
        self,
        core_id: int,
        addr: int,
        is_write: bool,
        now: int,
        waiter: Waiter | None,
    ) -> int:
        """Continuation of :meth:`access` once the L1 has missed.

        A reference that goes through is charged here once, by its actual
        result: one demand access, one L1 miss and one L2 hit or miss.  A
        BLOCKED attempt charges nothing — the core counts it as a
        structural stall and parks it with :meth:`wait_unblock`.
        """
        line = addr & self._line_mask
        l2 = self.l2
        tag = line >> l2._off_bits
        s = l2._sets[tag & l2._set_mask]
        if tag in s:
            s[tag] = s.pop(tag)  # move-to-back refreshes recency
            l2.stats.hits += 1
            if self.prefetcher is not None and line in self._prefetched_lines:
                self._prefetched_lines.discard(line)
                self.prefetcher.mark_useful()
            self._fill_l1(core_id, line, is_write, now)
            result = self._l2_hit_latency
        else:
            result = self._after_l2_miss(core_id, line, is_write, now, waiter)
            if result == BLOCKED:
                return BLOCKED
            l2.stats.misses += 1
        self.demand_accesses[core_id] += 1
        self.l1d[core_id].stats.misses += 1
        return result

    def _after_l2_miss(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        now: int,
        waiter: Waiter | None,
    ) -> int:
        """Continuation once the L2 has missed (``line`` already aligned).

        The BLOCKED test here is the one :meth:`_wake` repeats for every
        parked access; keep the two in step.
        """
        mshr = self.mshrs[core_id]
        if not mshr.outstanding(line) and (
            mshr.is_full
            or self._l2_outstanding >= self.l2_mshr_cap
            or not self.controller.can_accept()
        ):
            return BLOCKED
        if not mshr.allocate(line, waiter, now):
            # Merged onto the in-flight miss.
            if line in self._prefetch_inflight:
                # demand caught up with an in-flight prefetch
                self.prefetcher.mark_useful()
                self._prefetch_inflight.discard(line)
            if is_write:
                self._store_pending.add(line)
            return MERGED
        self._l2_outstanding += 1
        self.l2_misses[core_id] += 1
        if is_write:
            self._store_pending.add(line)
        req = MemoryRequest(
            addr=line,
            core_id=core_id,
            is_write=False,
            arrival_cycle=now,
            on_complete=self._on_fill,
        )
        if self.spans is not None:
            req.span = self.spans.start_request(core_id, line, "read", now)
        accepted = self.controller.enqueue(req, now)
        assert accepted, "can_accept() checked above"
        if self.prefetcher is not None:
            self._maybe_prefetch(core_id, line, now)
        return PENDING

    # -- structural stalls -----------------------------------------------------

    def wait_unblock(
        self, core_id: int, addr: int, callback: Callable[[int], None]
    ) -> None:
        """Park ``core_id``'s BLOCKED access to ``addr``.

        ``callback(now)`` fires once, from :meth:`_wake`, when the access
        can go through (an L2 hit, a merge or a new miss); it never fires
        while the access would still block.
        """
        line = addr & self._line_mask
        l2 = self.l2
        tag = line >> l2._off_bits
        self._parked.append(
            (
                self.mshrs[core_id]._entries,
                l2._sets[tag & l2._set_mask],
                tag,
                line,
                callback,
            )
        )
        # A full controller buffer resolves through controller space; arm
        # that watch at most once at a time.
        if not self._space_watch_armed:
            self._space_watch_armed = True
            self.controller.wait_for_space(self._on_space_freed)

    def _on_space_freed(self, now: int) -> None:
        self._space_watch_armed = False
        if self._parked:
            self._wake(now)

    def _wake(self, now: int) -> None:
        """Serve the parked accesses in park order after a resource freed.

        Each access is re-tested against the BLOCKED conditions of
        :meth:`_after_l2_miss` (its L1 cannot have gained the line while
        its core was stalled, so only the L2 is probed).  One that can go
        through leaves the list and gets its callback — its core retries
        it at once.  One that still blocks keeps its place and re-arms the
        controller-space watch.  The shared limits (L2 MSHRs, controller
        buffer) only change when a woken core runs, so they are re-tested
        after a callback and not per access: this loop stays call-free.
        """
        parked = self._parked
        self._parked = keep = []
        cap = self._mshr_cap
        shared_full = (
            self._l2_outstanding >= self.l2_mshr_cap
            or not self.controller.can_accept()
        )
        for rec in parked:
            entries, l2_set, tag, line, callback = rec
            if (
                tag not in l2_set
                and line not in entries
                and (shared_full or len(entries) >= cap)
            ):
                keep.append(rec)
                if not self._space_watch_armed:
                    self._space_watch_armed = True
                    self.controller.wait_for_space(self._on_space_freed)
            else:
                # A core that blocks again re-parks through wait_unblock,
                # i.e. into ``keep`` at this point of the walk.
                callback(now)
                shared_full = (
                    self._l2_outstanding >= self.l2_mshr_cap
                    or not self.controller.can_accept()
                )

    # -- prefetching (extension) -------------------------------------------------

    def _maybe_prefetch(self, core_id: int, miss_line: int, now: int) -> None:
        """Train the stride prefetcher and issue speculative line fills."""
        pf = self.prefetcher
        mshr = self.mshrs[core_id]
        for addr in pf.observe_miss(core_id, miss_line):
            if addr < 0:
                continue
            line = self.line_of(addr)
            if (
                not pf.can_issue(core_id)
                or self.l2.probe(line)
                or mshr.outstanding(line)
                or mshr.is_full
                or self._l2_outstanding >= self.l2_mshr_cap
                or not self.controller.can_accept()
            ):
                continue
            mshr.allocate(line, now=now)
            self._l2_outstanding += 1
            self._prefetch_inflight.add(line)
            req = MemoryRequest(
                addr=line,
                core_id=core_id,
                is_write=False,
                arrival_cycle=now,
                on_complete=self._on_prefetch_fill,
                is_prefetch=True,
            )
            if self.spans is not None:
                req.span = self.spans.start_request(core_id, line, "prefetch", now)
            accepted = self.controller.enqueue(req, now)
            assert accepted, "can_accept() checked above"
            pf.mark_issued(core_id)

    def _on_prefetch_fill(self, req: MemoryRequest, now: int) -> None:
        """Prefetched data arrived: install in L2 only, wake any merged
        demand waiters (they made the prefetch 'useful' at merge time)."""
        line = req.addr
        core = req.core_id
        # a store that merged onto this prefetch dirties the L2 copy
        dirty = line in self._store_pending
        self._store_pending.discard(line)
        evicted = self.l2.fill(line, dirty=dirty)
        self._owner[line] = core
        if evicted is not None:
            self._handle_l2_eviction(evicted, now)
        if line in self._prefetch_inflight:
            # nobody merged: remember the line so a later demand hit counts
            self._prefetch_inflight.discard(line)
            self._prefetched_lines.add(line)
        self._l2_outstanding -= 1
        self.prefetcher.mark_completed(core)
        self.mshrs[core].complete(line, now)
        if self.spans is not None:
            self.spans.end_inflight(core, line)
        if self._parked:
            self._wake(now)

    # -- fill / writeback paths --------------------------------------------------

    def _on_fill(self, req: MemoryRequest, now: int) -> None:
        """Read data returned from DRAM: install the line, wake waiters."""
        line = req.addr
        core = req.core_id
        dirty = line in self._store_pending
        self._store_pending.discard(line)
        evicted = self.l2.fill(line)
        self._owner[line] = core
        if evicted is not None:
            self._handle_l2_eviction(evicted, now)
        self._fill_l1(core, line, dirty, now)
        self._l2_outstanding -= 1
        self.mshrs[core].complete(line, now)
        if self.spans is not None:
            self.spans.end_inflight(core, line)
        if self._parked:
            self._wake(now)

    def _fill_l1(self, core_id: int, line: int, dirty: bool, now: int) -> None:
        evicted = self.l1d[core_id].fill(line, dirty=dirty)
        if evicted is not None and evicted[1]:
            # Dirty L1 victim: update the L2 copy; if L2 lost the line in
            # the meantime (non-inclusive drift), write it back directly.
            v_addr = evicted[0]
            if not self.l2.set_dirty(v_addr):
                self._emit_writeback(core_id, v_addr, now)

    def _handle_l2_eviction(self, evicted: tuple[int, bool], now: int) -> None:
        v_addr, v_dirty = evicted
        owner = self._owner.pop(v_addr, 0)
        # The L1 copy (if any) is stale relative to an exclusive-ish victim;
        # invalidate to preserve inclusion. Merge its dirtiness first.
        l1 = self.l1d[owner] if owner < self.num_cores else None
        if l1 is not None and l1.probe(v_addr):
            v_dirty = v_dirty or l1.is_dirty(v_addr)
            l1.invalidate(v_addr)
        if v_dirty:
            self._emit_writeback(owner, v_addr, now)

    def _emit_writeback(self, core_id: int, line: int, now: int) -> None:
        self.writebacks += 1
        req = MemoryRequest(
            addr=line, core_id=core_id, is_write=True, arrival_cycle=now
        )
        if self.spans is not None:
            req.span = self.spans.start_request(core_id, line, "write", now)
        if not self.controller.enqueue(req, now):
            self._wb_overflow.append(req)
            self._arm_wb_flush()

    def _arm_wb_flush(self) -> None:
        if not self._wb_flush_armed:
            self._wb_flush_armed = True
            self.controller.wait_for_space(self._flush_writebacks)

    def _flush_writebacks(self, now: int) -> None:
        self._wb_flush_armed = False
        while self._wb_overflow:
            req = self._wb_overflow[0]
            if not self.controller.enqueue(req, now):
                self._arm_wb_flush()
                return
            self._wb_overflow.popleft()

    # -- statistics ---------------------------------------------------------------

    def l1_miss_rate(self, core_id: int) -> float:
        return self.l1d[core_id].stats.miss_rate

    def l2_miss_count(self, core_id: int) -> int:
        return self.l2_misses[core_id]

    def mshr_occupancies(self) -> list[int]:
        """Current per-core MSHR occupancy (telemetry sampling point)."""
        return [m.occupancy for m in self.mshrs]
