"""Per-core L1 SRAM: 1 MB of byte-addressable scratch with a bump allocator.

Circular buffers, the paper's double-buffered local read buffers, and the
scalar-constant CB all live here.  Addresses are plain integers into the
backing array; views are NumPy slices so data movement is zero-copy on the
Python side.  The same bytes are also kept as 16-bit words, 32-bit words
and float32 lanes, so an aligned view of any width is one slice.
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
        #: the same bytes as little-endian 16-bit words (BF16 payloads),
        #: 32-bit words and float32 lanes (FP32 payloads): element ``i`` of
        #: a ``w``-byte array is bytes ``w*i .. w*i + w - 1``
        self.u16 = self.mem[:capacity - capacity % 2].view("<u2")
        self.u32 = self.mem[:capacity - capacity % 4].view("<u4")
        self.f32 = self.u32.view("<f4")
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

    def _words(self, array: np.ndarray, addr: int, count: int) -> np.ndarray:
        """``count`` elements of ``array`` (:attr:`u16`, :attr:`u32` or
        :attr:`f32`) from byte ``addr``: one slice, after the alignment
        and L1-bounds checks."""
        width = array.itemsize
        if addr % width:
            raise ValueError(f"{8 * width}-bit view requires {width}-byte "
                             "alignment")
        if addr < 0 or addr + count * width > self.capacity:
            raise IndexError(
                f"L1 access [{addr}, {addr + count * width}) outside "
                f"{self.capacity}")
        word = addr // width
        return array[word:word + count]

    def view_u16(self, addr: int, count: int) -> np.ndarray:
        """A view of ``count`` little-endian 16-bit words (BF16 payloads)."""
        return self._words(self.u16, addr, count)

    def view_u32(self, addr: int, count: int) -> np.ndarray:
        """A view of ``count`` little-endian 32-bit words."""
        return self._words(self.u32, addr, count)
