"""DDR2 memory-system substrate.

Models the paper's Table 1 memory organisation: two logic channels (each a
ganged pair of physical channels with a 16 B transfer width), two DIMMs per
physical channel and four banks per DIMM, with cache-line interleaving and
the close-page policy described in Section 4.1.

The model is transaction-level but timing-faithful: each logic channel keeps
every bank's open row and ready time in flat arrays, plus a data bus with
occupancy, and a transaction's start/finish cycles are derived
from the DDR2 timing parameters (tRP, tRCD, CL, burst, tWR) expressed in CPU
cycles.
"""

from repro.dram.address import AddressMapper, DramCoord
from repro.dram.channel import Channel, TransactionTiming
from repro.dram.dram_system import DramSystem

__all__ = [
    "AddressMapper",
    "Channel",
    "DramCoord",
    "DramSystem",
    "TransactionTiming",
]
