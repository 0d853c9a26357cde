"""Per-channel split memory controllers (architectural variant).

The paper models one controller with a 64-entry buffer shared by both
logic channels (Figure 1).  A common alternative — used by the fine-grain
multi-channel schedulers its related work cites — gives every channel its
own controller with a private buffer and private per-core counters.  That
changes policy semantics subtly: LREQ/ME-LREQ then rank cores by their
pending count *on that channel* rather than globally.

:class:`SplitControllerGroup` wraps one
:class:`~repro.controller.controller.MemoryController` per logic channel
behind the same interface the cache hierarchy uses (``can_accept`` /
``enqueue`` / ``wait_for_space`` / ``stats``), so it can be dropped into
:class:`~repro.sim.system.MultiCoreSystem` by swapping the controller —
see ``ablation: split controllers`` in the experiments.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.config import ControllerConfig
from repro.controller.controller import ControllerStats, MemoryController
from repro.controller.request import MemoryRequest
from repro.core.policy import SchedulingPolicy
from repro.dram.dram_system import DramSystem
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventEngine

__all__ = ["SplitControllerGroup"]


class _ChannelView:
    """A single-channel facade over the shared DRAM system.

    Each sub-controller believes it owns a one-channel DRAM: requests it
    sees all map to its channel, and ``channels[0]`` resolves to that
    channel of the real system.  The real channel keeps its global
    ``index``, which is the event-engine lane the sub-controller drives.
    """

    __slots__ = ("_dram", "_channel")

    #: sub-controllers feed no transaction observer: their coordinates
    #: are re-homed to channel 0, which a command log would misattribute
    observer = None

    def __init__(self, dram: DramSystem, channel: int) -> None:
        self._dram = dram
        self._channel = channel

    @property
    def channels(self):
        return [self._dram.channels[self._channel]]

    @property
    def timing(self):
        return self._dram.timing

    def coord(self, addr: int):
        coord = self._dram.coord(addr)
        # re-home onto the view's only channel index (0)
        return replace(coord, channel=0)

    def is_row_hit(self, coord) -> bool:
        return self._dram.channels[self._channel].is_row_hit(coord.bank, coord.row)

    def execute(self, coord, now, *, is_write, keep_open):
        return self._dram.channels[self._channel].execute(
            coord.bank, coord.row, now, is_write=is_write, keep_open=keep_open
        )


class SplitControllerGroup:
    """N independent per-channel controllers behind one facade."""

    def __init__(
        self,
        config: ControllerConfig,
        dram: DramSystem,
        policies: list[SchedulingPolicy],
        num_cores: int,
        engine: "EventEngine",
        rng: RngStream,
        line_bytes: int = 64,
        telemetry=None,
    ) -> None:
        n = len(dram.channels)
        if len(policies) != n:
            raise ValueError(
                f"need one policy instance per channel ({n}), got {len(policies)}"
            )
        # Split the shared buffer evenly; keep the drain hysteresis ratios.
        per = max(config.buffer_entries // n, 2)
        sub_cfg = replace(
            config,
            buffer_entries=per,
            write_drain_high=max(per // 2, 1),
            write_drain_low=max(per // 4, 0),
        )
        self.dram = dram
        self.num_cores = num_cores
        self.line_bytes = line_bytes
        self.controllers = [
            MemoryController(
                sub_cfg,
                _ChannelView(dram, ch),
                policies[ch],
                num_cores,
                engine,
                rng.child("split", ch),
                line_bytes=line_bytes,
                telemetry=telemetry,
            )
            for ch in range(n)
        ]
        for ch, c in enumerate(self.controllers):
            c.telemetry_track = f"controller-ch{ch}"

    # -- hierarchy-facing interface ------------------------------------------

    def _route(self, addr: int) -> MemoryController:
        return self.controllers[self.dram.mapper.channel_of(addr)]

    def can_accept(self, addr: int | None = None) -> bool:
        """Whether a request to ``addr`` (or any channel) can be accepted.

        Without an address the answer is conservative: every channel must
        have room, because the caller has not told us where the line goes.
        """
        if addr is None:
            return all(c.can_accept() for c in self.controllers)
        return self._route(addr).can_accept()

    def enqueue(self, req: MemoryRequest, now: int) -> bool:
        return self._route(req.addr).enqueue(req, now)

    def wait_for_space(self, callback: Callable[[int], None]) -> None:
        # One-shot semantics like the base controller: fire once, on the
        # first sub-controller that frees a slot.
        fired = [False]

        def once(now: int) -> None:
            if not fired[0]:
                fired[0] = True
                callback(now)

        for c in self.controllers:
            c.wait_for_space(once)

    # -- aggregated statistics -------------------------------------------------

    @property
    def stats(self) -> ControllerStats:
        """Merged per-core statistics across the sub-controllers."""
        merged = ControllerStats(self.num_cores)
        for c in self.controllers:
            s = c.stats
            for i in range(self.num_cores):
                merged.read_count[i] += s.read_count[i]
                merged.read_latency_sum[i] += s.read_latency_sum[i]
                merged.read_latency_max[i] = max(
                    merged.read_latency_max[i], s.read_latency_max[i]
                )
                merged.bytes_read[i] += s.bytes_read[i]
                merged.bytes_written[i] += s.bytes_written[i]
                merged.write_count[i] += s.write_count[i]
            merged.read_row_hits += s.read_row_hits
            merged.drain_entries += s.drain_entries
        return merged

    @property
    def refresh(self):
        return None

    @property
    def queues(self):
        raise AttributeError(
            "SplitControllerGroup has per-channel queues; "
            "use .controllers[ch].queues"
        )
