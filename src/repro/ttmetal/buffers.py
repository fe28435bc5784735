"""DRAM buffers: single-bank and interleaved placements.

tt-metal offers two DRAM placements the paper studies in Section V:

* **single-bank** — the buffer is one contiguous region in one bank (the
  paper's initial approach: "we have allocated DRAM all in a single
  bank"); the allocator round-robins banks across *buffers*.
* **interleaved** — the buffer is cut into fixed-size pages cycled across
  all 8 banks (page size up to 64 KB), relieving pressure on any one bank
  under replicated load (Table VI).

A :class:`Buffer` resolves logical byte ranges to physical ``(bank,
address)`` segments; kernels and host enqueue operations use
:meth:`Buffer.locate` so a logical access transparently spans page
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.noc import ReadJob, WriteJob

__all__ = ["BufferConfig", "Buffer", "Segment", "create_buffer"]


@dataclass(frozen=True)
class BufferConfig:
    """Host-side description of a DRAM buffer."""

    size: int
    interleaved: bool = False
    page_size: Optional[int] = None     #: required iff interleaved
    bank_id: Optional[int] = None       #: force a bank for single-bank buffers

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("buffer size must be positive")
        if self.interleaved and not self.page_size:
            raise ValueError("interleaved buffers need a page_size")
        if not self.interleaved and self.page_size:
            raise ValueError("page_size only applies to interleaved buffers")


class Segment(NamedTuple):
    """One physical piece of a logical range: (bank, address, size, logical offset)."""

    bank_id: int
    addr: int
    size: int
    offset: int


class Buffer:
    """A DRAM buffer on one device."""

    def __init__(self, device: GrayskullDevice, config: BufferConfig):
        self.device = device
        self.config = config
        self.size = config.size
        #: pages cycle across all banks (else one contiguous bank region)
        self.interleaved = config.interleaved
        if config.interleaved:
            self.page_size = int(config.page_size)  # type: ignore[arg-type]
            self._pages = device.dram.allocate_interleaved(
                config.size, self.page_size)
            self.bank_id = None
            self.addr = None
        else:
            self.page_size = None
            self._pages = None
            self.bank_id, self.addr = device.dram.allocate(
                config.size, bank_id=config.bank_id)

    @property
    def n_pages(self) -> int:
        return len(self._pages) if self._pages is not None else 1

    def page_location(self, page: int) -> tuple[int, int]:
        """(bank, address) of page ``page`` of an interleaved buffer."""
        if not self.interleaved:
            raise ValueError("page_location requires an interleaved buffer")
        return self._pages[page]

    def noc_coords(self) -> tuple[int, int]:
        """NoC coordinates of a single-bank buffer's bank (for get_noc_addr)."""
        if self.interleaved:
            raise ValueError("interleaved buffers are addressed per page")
        return self.device.dram_bank_noc_coords(self.bank_id)

    # -- logical addressing ------------------------------------------------
    def locate(self, offset: int, size: int) -> List[Segment]:
        """Physical segments covering logical ``[offset, offset+size)``.

        Single-bank buffers return one segment; interleaved buffers return
        one segment per touched page — the per-page NoC requests the DMA
        engine must issue (whose count drives the Table-VI page-size
        overheads).
        """
        if offset < 0 or size < 0 or offset + size > self.size:
            raise IndexError(
                f"range [{offset}, {offset + size}) outside buffer of "
                f"{self.size} bytes")
        if size == 0:
            return []
        if not self.interleaved:
            return [Segment(self.bank_id, self.addr + offset, size, offset)]
        segs: List[Segment] = []
        pos = offset
        end = offset + size
        while pos < end:
            page = pos // self.page_size
            in_page = pos % self.page_size
            take = min(self.page_size - in_page, end - pos)
            bank, base = self._pages[page]
            segs.append(Segment(bank, base + in_page, take, pos))
            pos += take
        return segs

    # -- host-side functional access (timing charged by host enqueue ops) ---
    def write_host(self, data: np.ndarray, offset: int = 0) -> None:
        """Store host bytes into the buffer (functional)."""
        payload = np.ascontiguousarray(data).view(np.uint8).ravel()
        for seg in self.locate(offset, payload.size):
            self.device.dram.bank(seg.bank_id).storage[
                seg.addr:seg.addr + seg.size] = \
                payload[seg.offset - offset:seg.offset - offset + seg.size]

    def read_host(self, offset: int = 0, size: Optional[int] = None) -> np.ndarray:
        """Fetch buffer bytes back to the host (functional)."""
        size = self.size - offset if size is None else size
        out = np.empty(size, dtype=np.uint8)
        for seg in self.locate(offset, size):
            out[seg.offset - offset:seg.offset - offset + seg.size] = \
                self.device.dram.bank(seg.bank_id).storage[
                    seg.addr:seg.addr + seg.size]
        return out

    # -- uniform strided access (vectorised fast path) ------------------------
    def _uniform_span(self, start: int, n: int, batch: int,
                      stride: int) -> tuple[int, int]:
        if self.interleaved:
            raise ValueError("uniform access requires a single-bank buffer")
        if n <= 0 or batch <= 0 or stride < batch:
            raise ValueError("need n>0, batch>0, stride>=batch")
        end = start + (n - 1) * stride + batch
        if start < 0 or end > self.size:
            raise IndexError(f"uniform range [{start},{end}) outside buffer")
        return start, end

    def gather_uniform(self, start: int, n: int, batch: int,
                       stride: int) -> np.ndarray:
        """Read ``n`` requests of ``batch`` bytes spaced ``stride`` apart.

        One vectorised gather replacing ``n`` :class:`ReadJob`s — used by
        the streaming sweeps where ``n`` reaches 16.8 M.  Per-request
        alignment-corruption emulation is *not* applied on this path (the
        sweeps never inspect payload content); tests exercising the
        alignment rules use the regular per-request path.
        """
        start, end = self._uniform_span(start, n, batch, stride)
        bank = self.device.dram.bank(self.bank_id)
        span = bank.storage[self.addr + start:self.addr + end]
        if stride == batch:
            return span.copy()
        # Strided gather without copying the whole span: a read-only
        # strided view of exactly (n, batch) bytes, then one small copy.
        view = np.lib.stride_tricks.as_strided(
            span, shape=(n, batch), strides=(stride, 1), writeable=False)
        return np.ascontiguousarray(view).ravel()

    def scatter_uniform(self, start: int, n: int, batch: int, stride: int,
                        data: np.ndarray) -> None:
        """Write ``n`` uniform requests from ``data`` (n·batch bytes)."""
        start, end = self._uniform_span(start, n, batch, stride)
        payload = np.ascontiguousarray(data).view(np.uint8).ravel()
        if payload.size != n * batch:
            raise ValueError(
                f"payload {payload.size} B != {n} x {batch} B")
        bank = self.device.dram.bank(self.bank_id)
        span = bank.storage[self.addr + start:self.addr + end]
        if stride == batch:
            span[:] = payload
            return
        blocks = payload.reshape(n, batch)
        tail = span[(n - 1) * stride:]
        strided = np.lib.stride_tricks.as_strided(
            span, shape=(n - 1, batch), strides=(stride, 1), writeable=True
        ) if n > 1 else None
        if strided is not None:
            strided[:] = blocks[:-1]
        tail[:batch] = blocks[-1]

    # -- kernel-side job builders -------------------------------------------
    def read_jobs(self, offset: int, size: int) -> List[ReadJob]:
        return [ReadJob(s.bank_id, s.addr, s.size)
                for s in self.locate(offset, size)]

    def write_jobs(self, offset: int, data: np.ndarray) -> List[WriteJob]:
        payload = np.ascontiguousarray(data).view(np.uint8).ravel()
        jobs = []
        for s in self.locate(offset, payload.size):
            jobs.append(WriteJob(
                s.bank_id, s.addr,
                payload[s.offset - offset:s.offset - offset + s.size]))
        return jobs

    def __repr__(self) -> str:  # pragma: no cover
        if self.interleaved:
            return (f"<Buffer interleaved {self.size}B pages={self.page_size}B "
                    f"x{self.n_pages}>")
        return f"<Buffer bank{self.bank_id}@{self.addr:#x} {self.size}B>"


def create_buffer(device: GrayskullDevice, size: int, *,
                  interleaved: bool = False,
                  page_size: Optional[int] = None,
                  bank_id: Optional[int] = None) -> Buffer:
    """Convenience wrapper mirroring tt-metal's ``CreateBuffer``."""
    return Buffer(device, BufferConfig(size=size, interleaved=interleaved,
                                       page_size=page_size, bank_id=bank_id))
