"""Per-core L1 SRAM: 1 MB of byte-addressable scratch with a bump allocator.

Circular buffers, the paper's double-buffered local read buffers, and the
scalar-constant CB all live here.  Addresses are plain integers into the
backing array; views are NumPy slices so data movement is zero-copy on the
Python side.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel

__all__ = ["Sram", "SramExhausted"]


class SramExhausted(Exception):
    """The 1 MB of L1 is over-subscribed — a real tt-metal failure mode."""


class Sram:
    """L1 memory of one Tensix core."""

    #: tt-metal reserves the low region for firmware/kernel binaries.
    RESERVED = 16 * 1024

    def __init__(self, capacity: int = DEFAULT_COSTS.sram_bytes):
        if capacity <= self.RESERVED:
            raise ValueError("SRAM capacity below the reserved region")
        self.capacity = capacity
        self.mem = np.zeros(capacity, dtype=np.uint8)
        #: the same bytes as little-endian 16-bit words (BF16 payloads):
        #: word ``i`` is bytes ``2i, 2i+1``, so a page view is one slice
        self.words = self.mem[:capacity - capacity % 2].view("<u2")
        self._brk = self.RESERVED
        #: every allocation as (base, size, label) — consumed by
        #: ``repro.lint``'s L1-overlap rule (P204)
        self.regions: list = []

    @property
    def allocated(self) -> int:
        return self._brk

    @property
    def free(self) -> int:
        return self.capacity - self._brk

    def reset(self) -> None:
        """Free every allocation above the reserved firmware region.

        Program teardown: tt-metal returns a program's L1 (CB windows,
        scratch slabs) to the allocator when the program is destroyed, so
        a device can run launch after launch.  Memory contents are left
        in place — the next program must initialise what it reads.
        """
        self._brk = self.RESERVED
        self.regions.clear()

    def allocate(self, size: int, align: int = 32,
                 label: str = "slab") -> int:
        """Reserve ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align <= 0 or align & (align - 1):
            raise ValueError("alignment must be a positive power of two")
        addr = (self._brk + align - 1) // align * align
        if addr + size > self.capacity:
            raise SramExhausted(
                f"L1 exhausted: need {size} B at {addr}, capacity "
                f"{self.capacity} B ({self.free} B free)")
        self._brk = addr + size
        self.regions.append((addr, size, label))
        return addr

    def view(self, addr: int, size: int) -> np.ndarray:
        """A writable byte view of ``[addr, addr+size)``."""
        if addr < 0 or addr + size > self.capacity:
            raise IndexError(
                f"L1 access [{addr}, {addr + size}) outside {self.capacity}")
        return self.mem[addr:addr + size]

    def view_u16(self, addr: int, count: int) -> np.ndarray:
        """A view of ``count`` little-endian 16-bit words (BF16 payloads)."""
        if addr % 2:
            raise ValueError("16-bit view requires 2-byte alignment")
        if addr < 0 or addr + count * 2 > self.capacity:
            raise IndexError(
                f"L1 access [{addr}, {addr + count * 2}) outside "
                f"{self.capacity}")
        word = addr >> 1
        return self.words[word:word + count]

    def view_u32(self, addr: int, count: int) -> np.ndarray:
        """A view of ``count`` little-endian 32-bit words."""
        if addr % 4:
            raise ValueError("32-bit view requires 4-byte alignment")
        return self.view(addr, count * 4).view("<u4")
