"""Network-on-chip model: transfer timing between cores and DRAM banks.

Each Tensix data-mover core owns one unidirectional link onto one of the
two NoCs (reads typically ride NoC0, writes NoC1 — the paper's Fig. 3
layout).  A DRAM transfer occupies both the caller's link and the target
bank's service port; its completion event fires when the later of the two
bookings drains, plus the exposed completion latency (which a
``noc_async_*_barrier`` makes visible).

Request *issue* costs (the ~105 ns/read, ~24.5 ns/write of Table III) are
charged to the issuing baby core by the kernel API, not here: they bound
throughput when requests are tiny, while the link/bank servers bound it
when requests are large — matching the knee at ~1024-byte batches in
Tables III/IV.

Functional semantics: bytes move at issue time (reads snapshot the bank;
writes land immediately, subject to the alignment rules in
:mod:`repro.arch.dram`); the returned event carries only timing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.arch.dram import Dram, DramBank
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.sim import Event, Simulator
from repro.sim.resources import FifoServer

__all__ = ["Noc", "NocTransferStats", "ReadJob", "WriteJob"]


@dataclass
class NocTransferStats:
    """Per-NoC traffic counters (exported by experiment reports)."""

    read_requests: int = 0
    read_bytes: int = 0
    write_requests: int = 0
    write_bytes: int = 0


class ReadJob(NamedTuple):
    """One DRAM→SRAM read: functional destination + addressing."""

    bank_id: int
    addr: int
    size: int


class WriteJob(NamedTuple):
    """One SRAM→DRAM write with its payload."""

    bank_id: int
    addr: int
    data: np.ndarray


def _coalesce_reads(jobs: Sequence[ReadJob], align: int):
    """Group a burst into maximal runs of mergeable reads.

    Yields ``(bank_id, addr, size, run)`` tuples in job order.  Jobs merge
    only when the combined storage access is byte-for-byte equivalent to
    issuing them one at a time: same bank, exactly contiguous, and every
    address ``align``-aligned (so the unaligned shifted-read emulation
    never applies inside a run and job boundaries coincide with ECC-word
    boundaries, keeping the scrub grouping identical).
    """
    run: list[ReadJob] = []
    run_end = 0
    for job in jobs:
        if run and job.bank_id == run[0].bank_id and job.addr == run_end \
                and job.addr % align == 0:
            run.append(job)
            run_end += job.size
            continue
        if run:
            first = run[0]
            yield first.bank_id, first.addr, run_end - first.addr, run
        run = [job]
        run_end = job.addr + job.size
        if job.addr % align:
            # unaligned start: never extend (shifted-read semantics)
            yield job.bank_id, job.addr, job.size, run
            run = []
    if run:
        first = run[0]
        yield first.bank_id, first.addr, run_end - first.addr, run


def _coalesce_writes(jobs: Sequence["WriteJob"], align: int):
    """Like :func:`_coalesce_reads` for write bursts.

    Runs require aligned contiguous same-bank payloads so the merge
    heuristic, corruption emulation and flip-clearing behave exactly as
    for individual writes.
    """
    run: list[WriteJob] = []
    run_end = 0
    sizes: list[int] = []
    for job in jobs:
        size = int(np.asarray(job.data).size)
        if run and job.bank_id == run[0].bank_id and job.addr == run_end \
                and job.addr % align == 0:
            run.append(job)
            sizes.append(size)
            run_end += size
            continue
        if run:
            yield run[0].bank_id, run[0].addr, sizes, run
        run = [job]
        sizes = [size]
        run_end = job.addr + size
        if job.addr % align:
            yield job.bank_id, job.addr, sizes, run
            run = []
            sizes = []
    if run:
        yield run[0].bank_id, run[0].addr, sizes, run


class Noc:
    """One of the two NoCs: shared access to the DRAM bank ports."""

    def __init__(self, sim: Simulator, noc_id: int, dram: Dram,
                 costs: CostModel = DEFAULT_COSTS):
        if noc_id not in (0, 1):
            raise ValueError("Grayskull has NoC 0 and NoC 1 only")
        self.sim = sim
        self.noc_id = noc_id
        self.dram = dram
        self.costs = costs
        self.stats = NocTransferStats()
        # -- fault injection: pending one-shot disturbances ----------------
        # Each entry is ``(kind, delay_s, hook)``; the next transfer whose
        # completion is assembled consumes the head of the queue.  "delay"
        # stretches the exposed completion latency; "drop" models a lost
        # flit retransmission (the latency is paid twice, plus the backoff).
        self._pending_faults: deque = deque()
        self.injected_delays = 0
        self.injected_drops = 0
        self._done_name = f"noc{noc_id}.done"

    def new_link(self, name: str) -> FifoServer:
        """A data-mover's private injection link onto this NoC."""
        return FifoServer(self.sim, rate=self.costs.noc_link_bw,
                          name=f"noc{self.noc_id}.link.{name}")

    # -- reads -------------------------------------------------------------
    def read_burst(self, link: FifoServer, jobs: Sequence[ReadJob],
                   out: List[np.ndarray] | None = None, *,
                   replay: bool = False,
                   interleaved: bool = False) -> Event:
        """Issue a burst of DRAM reads; returns one completion event.

        ``out`` (if given) collects the per-job byte arrays in order.
        ``replay`` marks re-reads of recently-fetched rows (row-buffer
        coalescing, Table V/VI); ``interleaved`` raises the effective link
        rate because consecutive pages stream from different banks.
        """
        n_jobs = len(jobs)
        if not n_jobs:
            ev = self.sim.event(name="noc.read.empty")
            ev.succeed()
            return ev
        if n_jobs == 1:
            # One job is one run of itself: nothing to coalesce.
            bank_id, addr, total = jobs[0]
            data = self.dram.banks[bank_id].read(addr, total)
            if out is not None:
                out.append(data)
            per_bank = {bank_id: total}
        else:
            total = 0
            per_bank = {}
            align = self.costs.dram_alignment
            for bank_id, addr, size, run in _coalesce_reads(jobs, align):
                data = self.dram.bank(bank_id).read(addr, size,
                                                    requests=len(run))
                if out is not None:
                    if len(run) == 1:
                        out.append(data)
                    else:
                        # Split the merged snapshot back into per-job
                        # views so callers see the exact chunks they
                        # asked for.
                        off = 0
                        for job in run:
                            out.append(data[off:off + job.size])
                            off += job.size
                total += size
                per_bank[bank_id] = per_bank.get(bank_id, 0) + size
        self.stats.read_requests += n_jobs
        self.stats.read_bytes += total

        link_bytes = total
        if replay:
            link_bytes = total * self.costs.replay_coalesce
        if interleaved:
            # Bursts striped over banks overlap in the DMA engine: model as
            # a faster effective link rate by scaling the booked bytes.
            link_bytes *= self.costs.noc_link_bw / self.costs.noc_link_bw_interleaved
        done_events = [link.submit(link_bytes)]
        for bank_id, nbytes in per_bank.items():
            done_events.append(self._book_bank(bank_id, nbytes, "r"))
        return self._completion(done_events, self.costs.read_latency)

    def read(self, link: FifoServer, job: ReadJob, *,
             replay: bool = False, interleaved: bool = False
             ) -> tuple[np.ndarray, Event]:
        """Single read; returns ``(bytes, completion_event)``."""
        out: List[np.ndarray] = []
        ev = self.read_burst(link, [job], out, replay=replay,
                             interleaved=interleaved)
        return out[0], ev

    def book_read(self, link: FifoServer, bank_id: int, nbytes: float,
                  n_requests: int, *, replay: bool = False) -> Event:
        """Timing-only booking for a pre-gathered uniform read burst."""
        self.stats.read_requests += n_requests
        self.stats.read_bytes += int(nbytes)
        link_bytes = nbytes * (self.costs.replay_coalesce if replay else 1.0)
        events = [link.submit(link_bytes),
                  self._book_bank(bank_id, nbytes, "r")]
        return self._completion(events, self.costs.read_latency)

    def book_write(self, link: FifoServer, bank_id: int, nbytes: float,
                   n_requests: int) -> Event:
        """Timing-only booking for a pre-scattered uniform write burst."""
        self.stats.write_requests += n_requests
        self.stats.write_bytes += int(nbytes)
        events = [link.submit(nbytes),
                  self._book_bank(bank_id, nbytes, "w")]
        return self._completion(events, self.costs.write_latency)

    # -- writes -------------------------------------------------------------
    def write_burst(self, link: FifoServer, jobs: Sequence[WriteJob], *,
                    interleaved: bool = False) -> Event:
        """Issue a burst of DRAM writes; returns one completion event."""
        n_jobs = len(jobs)
        if not n_jobs:
            ev = self.sim.event(name="noc.write.empty")
            ev.succeed()
            return ev
        if n_jobs == 1:
            # One job is one run of itself: nothing to coalesce.
            bank_id, addr, data = jobs[0]
            total = int(np.asarray(data).size)
            self.dram.banks[bank_id].write(addr, data)
            per_bank = {bank_id: total}
        else:
            total = 0
            per_bank = {}
            align = self.costs.dram_alignment
            for bank_id, addr, sizes, run in _coalesce_writes(jobs, align):
                if len(run) == 1:
                    self.dram.bank(bank_id).write(addr, run[0].data)
                else:
                    merged = np.concatenate(
                        [np.asarray(j.data, dtype=np.uint8).ravel()
                         for j in run])
                    self.dram.bank(bank_id).write(addr, merged,
                                                  requests=len(run))
                n = sum(sizes)
                total += n
                per_bank[bank_id] = per_bank.get(bank_id, 0) + n
        self.stats.write_requests += n_jobs
        self.stats.write_bytes += total

        done_events = [link.submit(total)]
        for bank_id, nbytes in per_bank.items():
            done_events.append(self._book_bank(bank_id, nbytes, "w"))
        return self._completion(done_events, self.costs.write_latency)

    def write(self, link: FifoServer, job: WriteJob) -> Event:
        return self.write_burst(link, [job])

    # -- core-to-core (extension: Section VIII future work) ------------------
    def sram_copy(self, link: FifoServer, src: np.ndarray,
                  dst: np.ndarray) -> Event:
        """Direct SRAM→SRAM transfer between cores over the NoC.

        Not used by the paper's kernels (Grayskull cores exchange data via
        DRAM) but provided for the neighbour-communication extension the
        paper sketches in its future work.
        """
        if src.size != dst.size:
            raise ValueError("sram_copy size mismatch")
        dst[:] = src
        done = link.submit(int(src.size))
        return self._completion([done], self.costs.read_latency)

    # -- helpers ------------------------------------------------------------
    def _book_bank(self, bank_id: int, nbytes: int, direction: str) -> Event:
        """Occupy a bank port, charging a turnaround stall on a read↔write
        direction flip (the DRAM-controller cost that makes interleaving
        reads with synchronous writes expensive on the same bank)."""
        bank = self.dram.banks[bank_id]
        extra = self.costs.dram_turnaround if (
            bank.last_dir and bank.last_dir != direction) else 0.0
        bank.last_dir = direction
        return bank.port.submit(nbytes, extra_time=extra)

    # -- fault injection -----------------------------------------------------
    def inject_fault(self, kind: str, delay_s: float,
                     hook: Optional[Callable] = None) -> None:
        """Arm a one-shot disturbance for the next transfer on this NoC.

        ``kind`` is ``"delay"`` (the completion latency stretches by
        ``delay_s``) or ``"drop"`` (a lost transaction: the exposed latency
        is paid a second time for the retransmission, plus ``delay_s``).
        ``hook(kind, extra_s, t)`` is called when the fault is consumed.
        """
        if kind not in ("delay", "drop"):
            raise ValueError(f"unknown NoC fault kind {kind!r}")
        if delay_s < 0:
            raise ValueError("fault delay must be non-negative")
        self._pending_faults.append((kind, float(delay_s), hook))

    def _consume_fault(self, latency: float) -> float:
        """Extra completion latency from the next armed fault, if any."""
        if not self._pending_faults:
            return 0.0
        kind, delay_s, hook = self._pending_faults.popleft()
        if kind == "drop":
            self.injected_drops += 1
            extra = latency + delay_s   # retransmit: pay the latency again
        else:
            self.injected_delays += 1
            extra = delay_s
        if hook is not None:
            hook(kind, extra, self.sim.now)
        return extra

    def _completion(self, done_events: List[Event],
                    latency: float) -> Event:
        """Completion = all bookings drained + exposed latency.

        Bookings are :class:`~repro.sim.resources.FifoServer` timeouts,
        submitted just now in list order, so the event loop pops them in
        order of ``(now + delay, position)``.  Instead of an
        :class:`~repro.sim.AllOf` gate — an extra heap entry plus a
        composite event per transfer — or a countdown on every booking,
        the completion fires from the callback list of the last one to
        pop: the instant all of them have drained.
        """
        ev = Event(self.sim, self._done_name)
        total_latency = latency + self._consume_fault(latency) \
            if self._pending_faults else latency
        now = self.sim.now
        last = done_events[0]
        last_at = now + last.delay
        for booking in done_events[1:]:
            at = now + booking.delay
            if at >= last_at:
                last, last_at = booking, at
        last.callbacks.append(lambda _e: ev.succeed(delay=total_latency))
        return ev
