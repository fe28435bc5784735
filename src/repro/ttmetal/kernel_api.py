"""Device-side kernel API: what a baby-core kernel can call.

Kernels are Python generator functions taking a single context argument::

    def reader_kernel(ctx):
        src = ctx.arg("src_noc_addr")
        yield from ctx.cb_reserve_back(CB_IN0, 1)
        yield from ctx.noc_async_read(src, ctx.cb_write_ptr(CB_IN0), 2048)
        yield from ctx.noc_async_read_barrier()
        yield from ctx.cb_push_back(CB_IN0, 1)

Kernels ``yield from`` every API op, so that the simulator can charge
the calibrated cost and block where the real call blocks.  An op returns
what to ``yield from``: a generator when simulated time must pass or a
handshake blocks, and ``()`` when it completes at once — the compute and
CB ops inside a fused charge region (see :meth:`_CtxBase._charge`), which
are then plain calls.  The surface mirrors tt-metal's dataflow and
compute APIs, plus the ``cb_set_rd_ptr`` extension the paper added
(Section VI).

Contiguity is detected automatically: a DRAM request that starts exactly
where the previous request (same data mover, same direction) ended is
contiguous; anything else pays the non-contiguous penalty from Table IV.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.arch.cb import CircularBuffer
from repro.arch.noc import ReadJob, WriteJob
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1, TensixCore
from repro.sim import Event, Timeout
from repro.ttmetal.buffers import Buffer

__all__ = ["NocAddr", "DataMoverCtx", "ComputeCtx", "KernelError"]

_REQUIRED = object()


class KernelError(RuntimeError):
    """Kernel-level misuse of the device API."""


class NocAddr(NamedTuple):
    """A resolved NoC address: DRAM bank + byte offset within the bank."""

    bank_id: int
    addr: int

    def __add__(self, nbytes):  # type: ignore[override]
        """Pointer arithmetic, as kernels do with ``ddr_addr + offset``."""
        return NocAddr(self.bank_id, self.addr + int(nbytes))


def _rotating_gather(window: np.ndarray, pos: int, size: int) -> np.ndarray:
    """Read ``size`` stream bytes from a rotating window starting at ``pos``.

    The exact inverse of the placement rule (stream byte ``j`` lives at
    window position ``(pos + j) % win``), for any number of wraps — the
    two-slice concatenation this replaces silently truncated ranges
    longer than ``pos``'s remaining lap.
    """
    win = window.size
    if pos + size <= win:
        return window[pos:pos + size].copy()
    return window[(pos + np.arange(size)) % win]


def _apply(fn, args) -> None:
    """``fn(*args)``: the deferred effect of an op whose effect does not
    take ``(obj, arg)`` (see :meth:`_CtxBase._after`)."""
    fn(*args)


def _plain_op(method):
    """Mark a kernel-API op written as a plain method: kernels ``yield
    from`` what it returns, like a generator op's result."""
    method.api_op = True
    return method


class _Region:
    """A fused charge region's pending charges, as running sums.

    Each charge adds to ``wake_at`` and ``busy`` at once, in program order,
    so they end at exactly the floats that the unfused ops' timeouts and
    busy updates would have produced.  A region never spans a yield (an op
    that would block closes it first), so its clock and the slot's busy
    total are still current when it opens and when it closes.  Each
    context reuses one instance.
    """

    __slots__ = ("charges", "opened_at", "wake_at", "busy")


class _CtxBase:
    """Shared state/behaviour of all three kernel contexts."""

    slot: str = ""

    def __init__(self, core: TensixCore, args: Optional[Dict] = None):
        self.core = core
        self.sim = core.sim
        self.costs = core.costs
        self.args = dict(args or {})
        # Memoised per-kernel setup: the device tracer is resolved once at
        # context construction instead of per API call (EnqueueProgram
        # builds contexts after the host attaches any tracer, so the
        # snapshot is always current when the kernel runs).
        self._tracer = getattr(self.args.get("_device"), "tracer", None)
        # The open fused region, if any (see fused_begin).
        self._fused: Optional[_Region] = None
        self._region = _Region()
        # The core's tables, bound once.  They are mutated in place, never
        # rebound: ``release_launch_state`` clears ``cbs`` and the next
        # program refills it; ``inject_hang`` adds to ``hung_slots``.
        self._cbs = core.cbs
        self._hung = core.hung_slots
        self._busy = core.busy_time

    # -- misc ---------------------------------------------------------------
    def arg(self, name: str, default=_REQUIRED):
        """Fetch a runtime argument (host ``SetRuntimeArgs``)."""
        if name in self.args:
            return self.args[name]
        if default is _REQUIRED:
            raise KernelError(
                f"kernel on core {self.core.coord} missing runtime arg "
                f"{name!r} (have {sorted(self.args)})")
        return default

    @property
    def my_x(self) -> int:
        return self.core.x

    @property
    def my_y(self) -> int:
        return self.core.y

    def _hang_check(self):
        """Strand the kernel if a hang was injected on this slot (generator).

        Checked at every API boundary, so a hang injected mid-transfer
        takes effect at the kernel's next call — like a baby core whose
        instruction stream wedged.
        """
        gate = self.core.hang_gate(self.slot)
        if gate is not None:
            yield gate  # never fires; only Process.interrupt can free us

    # -- the busy-time charge and the plain-call rule -----------------------
    # Every API op books its busy time with ``_charge``, a plain method,
    # and its result decides the op's shape.  ``()`` means no simulated
    # time passes before the op's effect — the charge joined an open
    # fused region (the case tested first) or was zero — so the op
    # applies its effect at once and returns ``()`` itself: inside a
    # region the compute and CB ops are plain calls, at exactly the
    # instants a generator op would have had.  Otherwise the result is
    # ``(Timeout,)`` (an unfused charge; its value is None, so the tuple
    # iterator is only advanced, never sent to) or a generator (a hung
    # slot's gate, an attached tracer, several steps outside a region),
    # and the op returns ``_after(wait, effect, obj, arg)``, or
    # ``_blocking(...)`` for a handshake, for the kernel to ``yield
    # from``.  ``_op`` is that rule for an op whose effect is
    # ``effect(obj, arg)``; the tile ops spell it out, since routing
    # their wider effects through ``_op`` and ``_apply`` cost two more
    # frames and a star call per fused op.
    def _charge(self, seconds: float, steps: int = 1, gated: bool = True):
        """Charge ``steps`` back-to-back ops of ``seconds`` busy time each.

        Returns an iterable to ``yield from``.  Several steps cost one
        simulator event, but the wake-up time and busy accounting use the
        same sequential float additions as ``steps`` separate charges.
        """
        region = self._fused
        if region is not None and not (gated and self._hung):
            if seconds > 0 and steps > 0:
                region.charges += steps
                region.wake_at += seconds
                region.busy += seconds
                while steps > 1:  # one addition per step, as separate charges
                    region.wake_at += seconds
                    region.busy += seconds
                    steps -= 1
            return ()
        if gated and self._hung:
            return self._gated_charge(seconds, steps)
        if seconds <= 0 or steps <= 0:
            return ()
        if steps == 1 and self._tracer is None:
            self._busy[self.slot] += seconds
            return (Timeout(self.sim, seconds),)
        # several steps, or a traced charge: a region of its own
        self.fused_begin()
        self._charge(seconds, steps, gated=False)
        return self._fused_flush()

    #: the older name, which test kernels use to charge raw busy time
    _elapse = _charge

    def _op(self, seconds: float, effect, obj, arg, steps: int = 1):
        """The plain-call rule: charge ``steps`` ops of ``seconds``, then
        apply the op's effect ``effect(obj, arg)`` at once and return
        ``()``, or, when simulated time must pass first, return the
        generator that applies it afterwards (see :meth:`_after`)."""
        wait = self._charge(seconds, steps)
        if wait:
            return self._after(wait, effect, obj, arg)
        effect(obj, arg)
        return ()

    @staticmethod
    def _after(wait, effect, obj, arg):
        """Apply an op's effect ``effect(obj, arg)`` once its charge
        ``wait`` has passed (generator).  The two fixed arguments keep
        the deferred call as cheap as a direct one; an effect with other
        arguments goes through :func:`_apply`."""
        yield from wait
        effect(obj, arg)

    def _blocking(self, wait, obj, try_now, blocking, n: int):
        """The rest of a handshake on CB or semaphore ``obj`` (generator),
        once its charge ``wait`` lets time pass or its synchronous fast
        path ``try_now(obj, n)`` refused; ``blocking(obj, n)`` is the
        event to wait on.

        Inside a fused region the pending charges are flushed and the
        fast path re-tested at the flushed (true) timestamp: pages freed
        while the charges were pending count.  The region re-opens
        afterwards — it conceptually extends to fused_end(), and charges
        after a block accumulate from the resume instant exactly as
        unfused ops would."""
        if wait:
            yield from wait
            if try_now(obj, n):
                return
        if self._fused is not None:
            yield from self._fused_flush()
            if not try_now(obj, n):
                yield from self._block(blocking(obj, n))
            self.fused_begin()
            return
        yield from self._block(blocking(obj, n))

    def _gated_charge(self, seconds: float, steps: int):
        """:meth:`_charge` on a core with a hung slot (generator): pay any
        open region's charges, strand at this slot's hang gate, charge."""
        if self._fused is not None:
            yield from self._fused_flush()
        yield from self._hang_check()
        yield from self._charge(seconds, steps, gated=False)

    # -- fused charge regions ---------------------------------------------
    # A fused region coalesces the timeouts of consecutive API ops into a
    # single simulator event, for op runs that are *core-private*: they may
    # touch the FPU, read committed CB pages, handshake CBs produced and
    # consumed by this same kernel (a self-loop like the optimised
    # Jacobi's INTERMED buffer), and *test* shared CBs/semaphores via the
    # blocking waits (read-only until they succeed), but must not
    # push/pop CBs or increment semaphores shared with another kernel —
    # those state changes decide when peers wake.  The wake-up instant
    # and busy accounting accumulate with the same sequential float
    # additions the unfused ops would have performed, so fusion is
    # timestamp-exact; an op that would genuinely block flushes the
    # pending charges first (and re-tests at the flushed timestamp),
    # blocks exactly when the unfused op would, and then re-opens the
    # region from the resume instant.  Only API ops may run inside a
    # region: a raw ``yield`` there would let time pass under charges
    # already summed from the opening instant, so closing such a region
    # raises.
    def fused_begin(self) -> None:
        """Open a fused charge region (plain call, no yield)."""
        if self._fused is not None:
            raise KernelError("fused_begin() inside an open fused region")
        region = self._fused = self._region
        region.charges = 0
        region.opened_at = region.wake_at = self.sim.now
        region.busy = self._busy[self.slot]

    @_plain_op
    def fused_end(self):
        """Close the region, charging all pending ops as one event.
        Tolerates a region already flushed by a blocking op.  Returns an
        iterable to ``yield from``, like every op."""
        return () if self._fused is None else self._fused_flush()

    def _fused_flush(self):
        """Close the open region and book its charges as one event;
        returns an iterable to ``yield from`` (empty if nothing was
        charged)."""
        region = self._fused
        self._fused = None
        if self.sim.now != region.opened_at:
            raise KernelError(
                f"core {self.core.coord}/{self.slot}: simulated time passed "
                "inside a fused region (a raw yield between fused_begin() "
                "and fused_end())")
        if not region.charges:
            return ()
        self._busy[self.slot] = region.busy
        tmo = self.sim.timeout_at(region.wake_at)
        if self._tracer is None:
            return (tmo,)
        return self._traced_busy(tmo)

    def _traced_busy(self, event):
        """Wait out a busy-time event and report it to the tracer
        (generator)."""
        t0 = self.sim.now
        yield event
        self._tracer.record(self.core.coord, self.slot, "busy", t0,
                            self.sim.now)

    def _block(self, event):
        """Wait on an event, accounting the time as a stall (generator)."""
        if self._fused is not None:
            # Defensive: a blocking wait inside a fused region pays the
            # pending charges before it starts stalling.
            yield from self._fused_flush()
        core = self.core
        if self._hung:
            yield from self._hang_check()
        sim = self.sim
        t0 = sim.now
        result = yield event
        core.stall_time[self.slot] += sim.now - t0
        if self._tracer is not None:
            self._tracer.record(core.coord, self.slot, "stall",
                                t0, sim.now)
        return result

    def dprint(self, message: str):
        """tt-metal DPRINT: visible (and costly) only with the print
        server attached — the paper found it "incurred significant
        overhead and-so ... it was disabled for all production runs"."""
        device = self.args.get("_device")
        if device is None or not device.print_server_enabled:
            # Production mode: the statement compiles out entirely, so it
            # must cost exactly zero simulated time.
            return
            yield  # pragma: no cover - unreachable; keeps this a generator
        yield from self._charge(self.costs.dprint_cost)
        device.dprint_log.append(
            (self.sim.now, self.core.coord, self.slot, str(message)))

    def _cb(self, cb_id: int):
        """The CB ``cb_id``, or a :class:`KernelError` naming the configured
        ones.  Hot ops test ``cb_id in self._cbs`` inline and call this
        only on a miss."""
        try:
            return self._cbs[cb_id]
        except KeyError:
            raise KernelError(
                f"core {self.core.coord} has no CB {cb_id} "
                f"(configured: {sorted(self._cbs)})") from None

    # -- circular buffers ------------------------------------------------------
    # The blocking ops consult the CB's synchronous fast path first: a
    # handshake that would complete immediately (pages already free /
    # committed, no queued peers, no wedge) commits without building an
    # event or suspending the process — the preceding charge already
    # anchored the simulated time, so the wake-up instant is unchanged.
    # Only genuinely blocking handshakes take the event path.
    @_plain_op
    def cb_reserve_back(self, cb_id: int, n: int = 1):
        """Block until ``n`` pages are free in the CB, then reserve them."""
        cbs = self._cbs
        cb = cbs[cb_id] if cb_id in cbs else self._cb(cb_id)
        wait = self._charge(self.costs.cb_op)
        if not wait and cb.try_reserve(n):
            return ()
        return self._blocking(wait, cb, CircularBuffer.try_reserve,
                              CircularBuffer.reserve_back, n)

    @_plain_op
    def cb_push_back(self, cb_id: int, n: int = 1):
        """Commit ``n`` reserved pages to the consumer side."""
        cbs = self._cbs
        return self._op(self.costs.cb_op, CircularBuffer.push_back,
                        cbs[cb_id] if cb_id in cbs else self._cb(cb_id), n)

    @_plain_op
    def cb_wait_front(self, cb_id: int, n: int = 1):
        """Block until ``n`` pages are committed in the CB."""
        cbs = self._cbs
        cb = cbs[cb_id] if cb_id in cbs else self._cb(cb_id)
        wait = self._charge(self.costs.cb_op)
        if not wait and cb.try_wait(n):
            return ()
        return self._blocking(wait, cb, CircularBuffer.try_wait,
                              CircularBuffer.wait_front, n)

    @_plain_op
    def cb_pop_front(self, cb_id: int, n: int = 1):
        """Recycle ``n`` consumed pages."""
        cbs = self._cbs
        return self._op(self.costs.cb_op, CircularBuffer.pop_front,
                        cbs[cb_id] if cb_id in cbs else self._cb(cb_id), n)

    def cb_write_ptr(self, cb_id: int) -> int:
        """L1 address of the reserved back page (``get_write_ptr``)."""
        return self._cb(cb_id).get_write_ptr()

    def cb_read_ptr(self, cb_id: int) -> int:
        """L1 address the consumer reads from (``get_read_ptr``)."""
        cbs = self._cbs
        return (cbs[cb_id] if cb_id in cbs else self._cb(cb_id)).get_read_ptr()

    # -- raw L1 access ------------------------------------------------------
    def l1_store_u16(self, addr: int, values: np.ndarray):
        """Store 16-bit words into L1 from the baby core (software fill).

        Used e.g. to fill the 0.25-constant scalar CB at program start.
        Charged as one memcpy call.
        """
        vals = np.asarray(values, dtype=np.uint16).ravel()
        yield from self._charge(self.costs.memcpy_time(vals.size * 2, calls=1))
        self.core.sram.view_u16(addr, vals.size)[:] = vals

    def l1_store_u32(self, addr: int, values: np.ndarray):
        """Store 32-bit words into L1 (FP32 constant fills)."""
        vals = np.asarray(values, dtype=np.uint32).ravel()
        yield from self._charge(self.costs.memcpy_time(vals.size * 4, calls=1))
        self.core.sram.view_u32(addr, vals.size)[:] = vals

    def l1_view_u16(self, addr: int, count: int) -> np.ndarray:
        """A read/write 16-bit view of L1 (no time charged; RISC-V loads)."""
        return self.core.sram.view_u16(addr, count)

    # -- semaphores ------------------------------------------------------------
    def _resolve_sem(self, sem):
        """Accept a core-local semaphore id or a shared Semaphore object.

        Shared objects model NoC-visible semaphores used for cross-core
        coordination (the multi-core iteration barrier).
        """
        if isinstance(sem, int):
            try:
                return self.core.semaphores[sem]
            except KeyError:
                raise KernelError(
                    f"core {self.core.coord} has no semaphore {sem}") from None
        return sem

    @_plain_op
    def semaphore_set(self, sem, value: int):
        sem = self._resolve_sem(sem)
        return self._op(self.costs.semaphore_op, type(sem).set_value, sem,
                        value)

    @_plain_op
    def semaphore_inc(self, sem, n: int = 1):
        sem = self._resolve_sem(sem)
        return self._op(self.costs.semaphore_op, type(sem).release, sem, n)

    @_plain_op
    def semaphore_wait(self, sem, value: int):
        """Block until the semaphore reaches ``value`` (non-consuming)."""
        sem = self._resolve_sem(sem)
        wait = self._charge(self.costs.semaphore_op)
        if not wait and sem.try_wait_at_least(value):
            return ()
        return self._blocking(wait, sem, type(sem).try_wait_at_least,
                              type(sem).wait_at_least, value)


class DataMoverCtx(_CtxBase):
    """Context for the two data-mover baby cores (NoC reads/writes, memcpy)."""

    def __init__(self, core: TensixCore, slot: str,
                 args: Optional[Dict] = None):
        if slot not in (DATA_MOVER_0, DATA_MOVER_1):
            raise KernelError(f"invalid data-mover slot {slot!r}")
        super().__init__(core, args)
        self.slot = slot
        self.noc = core.noc0 if slot == DATA_MOVER_0 else core.noc1
        self.link = core.links[slot]
        self._outstanding_reads: List[Event] = []
        self._outstanding_writes: List[Event] = []
        # (bank, end-address) of the previous request, per direction, for
        # automatic contiguity detection.
        self._last_read_end: Optional[tuple[int, int]] = None
        self._last_write_end: Optional[tuple[int, int]] = None

    # -- addressing ----------------------------------------------------------
    def get_noc_addr(self, noc_x: int, noc_y: int, addr: int) -> NocAddr:
        """Resolve grid coordinates + offset to a DRAM NoC address."""
        device = self.arg("_device")
        bank = device.bank_from_noc_coords(noc_x, noc_y)
        return NocAddr(bank, addr)

    # -- contiguity bookkeeping -------------------------------------------------
    def _read_penalty(self, bank: int, addr: int, size: int) -> float:
        contiguous = self._last_read_end == (bank, addr)
        self._last_read_end = (bank, addr + size)
        return 0.0 if contiguous else self.costs.noncontig_read

    def _write_penalty(self, bank: int, addr: int, size: int) -> float:
        contiguous = self._last_write_end == (bank, addr)
        self._last_write_end = (bank, addr + size)
        return 0.0 if contiguous else self.costs.noncontig_write

    # -- raw async reads/writes (single-bank addressing, Listings 3/4) --------
    def noc_async_read(self, noc_addr: NocAddr, l1_addr: int, size: int):
        """Non-blocking DRAM→L1 read of ``size`` bytes.

        Functional data lands immediately (unaligned addresses return
        shifted bytes, per :mod:`repro.arch.dram`); the completion joins
        the outstanding set drained by :meth:`noc_async_read_barrier`.
        """
        pen = self._read_penalty(noc_addr.bank_id, noc_addr.addr, size)
        yield from self._charge(self.costs.read_issue + pen)
        data, ev = self.noc.read(self.link,
                                 ReadJob(noc_addr.bank_id, noc_addr.addr, size))
        self.core.sram.view(l1_addr, size)[:] = data
        self._outstanding_reads.append(ev)

    def noc_async_read_barrier(self):
        """Block until every outstanding read has completed.

        Single-event waits (the common case: one read per barrier in the
        row-streaming kernels) skip the :class:`AllOf` machinery and block
        on the completion directly; an empty outstanding set returns
        without suspending at all.
        """
        pending = self._outstanding_reads
        if not pending:
            if self._hung:
                yield from self._hang_check()
            return
        self._outstanding_reads = []
        ev = pending[0] if len(pending) == 1 else self.sim.all_of(pending)
        yield from self._block(ev)

    def noc_async_write(self, l1_addr: int, noc_addr: NocAddr, size: int):
        """Non-blocking L1→DRAM write (alignment rules apply at the bank)."""
        pen = self._write_penalty(noc_addr.bank_id, noc_addr.addr, size)
        yield from self._charge(self.costs.write_issue + pen)
        data = self.core.sram.view(l1_addr, size).copy()
        ev = self.noc.write(self.link,
                            WriteJob(noc_addr.bank_id, noc_addr.addr, data))
        self._outstanding_writes.append(ev)

    def noc_async_write_barrier(self):
        """Block until every outstanding write has completed (same
        single-event / empty-set fast paths as the read barrier)."""
        pending = self._outstanding_writes
        if not pending:
            if self._hung:
                yield from self._hang_check()
            return
        self._outstanding_writes = []
        ev = pending[0] if len(pending) == 1 else self.sim.all_of(pending)
        yield from self._block(ev)

    # -- buffer-level access (handles interleaving transparently) ---------------
    def noc_read_buffer(self, buf: Buffer, offset: int, l1_addr: int,
                        size: int, *, replay: bool = False):
        """Read a logical range of a :class:`Buffer` into L1.

        Splits across interleaved pages, charging the per-page address
        generation overhead (Table VI); marks ``replay`` for re-reads of
        recently fetched rows (Table V).
        """
        jobs = buf.read_jobs(offset, size)
        pen = self._read_penalty(jobs[0].bank_id, jobs[0].addr,
                                 jobs[0].size) if jobs else 0.0
        issue = self.costs.read_issue + pen
        if len(jobs) > 1:
            issue += (len(jobs) - 1) * self.costs.page_overhead_read
        yield from self._charge(issue)
        out: List[np.ndarray] = []
        ev = self.noc.read_burst(self.link, jobs, out, replay=replay,
                                 interleaved=buf.interleaved)
        view = self.core.sram.view(l1_addr, size)
        pos = 0
        for chunk in out:
            view[pos:pos + chunk.size] = chunk
            pos += chunk.size
        self._outstanding_reads.append(ev)

    def noc_write_buffer(self, buf: Buffer, offset: int, l1_addr: int,
                         size: int):
        """Write L1 bytes to a logical range of a :class:`Buffer`."""
        data = self.core.sram.view(l1_addr, size).copy()
        jobs = buf.write_jobs(offset, data)
        pen = self._write_penalty(jobs[0].bank_id, jobs[0].addr,
                                  len(jobs[0].data)) if jobs else 0.0
        issue = self.costs.write_issue + pen
        if len(jobs) > 1:
            issue += (len(jobs) - 1) * self.costs.page_overhead_write
        yield from self._charge(issue)
        ev = self.noc.write_burst(self.link, jobs, interleaved=buf.interleaved)
        self._outstanding_writes.append(ev)

    # -- burst helpers (streaming sweeps: millions of requests, O(1) events) ----
    def noc_read_buffer_burst(self, buf: Buffer, ranges: Sequence[tuple[int, int]],
                              l1_addr: int, *, sync: bool = False,
                              replay: bool = False,
                              window: Optional[int] = None):
        """Issue many logical reads as one lumped event.

        ``ranges`` is a sequence of ``(offset, size)``.  With ``sync`` each
        request is followed by a barrier (the per-request discipline of
        Tables III/IV); otherwise one barrier covers the burst.  Payloads
        land back-to-back at ``l1_addr``; ``window`` makes the destination
        a rotating scratch of that many bytes (how the streaming kernels
        reuse one CB page at full problem scale).
        """
        jobs: List[ReadJob] = []
        issue = 0.0
        for off, size in ranges:
            for j in buf.read_jobs(off, size):
                issue += self.costs.read_issue + self._read_penalty(
                    j.bank_id, j.addr, j.size)
                jobs.append(j)
        extra_pages = len(jobs) - len(ranges)
        if extra_pages > 0:
            issue += extra_pages * self.costs.page_overhead_read
        if sync:
            issue += len(jobs) * self.costs.read_latency
        yield from self._charge(issue)
        out: List[np.ndarray] = []
        ev = self.noc.read_burst(self.link, jobs, out, replay=replay,
                                 interleaved=buf.interleaved)
        total = sum(s for _, s in ranges)
        win = window if window is not None else total
        view = self.core.sram.view(l1_addr, win)
        pos = 0
        for chunk in out:
            taken = 0
            while taken < chunk.size:
                room = min(win - pos, chunk.size - taken)
                view[pos:pos + room] = chunk[taken:taken + room]
                taken += room
                pos = (pos + room) % win
        self._outstanding_reads.append(ev)

    def noc_write_buffer_burst(self, buf: Buffer,
                               ranges: Sequence[tuple[int, int]],
                               l1_addr: int, *, sync: bool = False,
                               window: Optional[int] = None):
        """Mirror of :meth:`noc_read_buffer_burst` for writes."""
        total = sum(s for _, s in ranges)
        win = window if window is not None else total
        src = self.core.sram.view(l1_addr, win)
        jobs: List[WriteJob] = []
        issue = 0.0
        pos = 0
        n_segments = 0
        for off, size in ranges:
            data = _rotating_gather(src, pos, size)
            pos = (pos + size) % win
            for j in buf.write_jobs(off, data):
                issue += self.costs.write_issue + self._write_penalty(
                    j.bank_id, j.addr, len(j.data))
                jobs.append(j)
            n_segments += 1
        extra_pages = len(jobs) - n_segments
        if extra_pages > 0:
            issue += extra_pages * self.costs.page_overhead_write
        if sync:
            issue += len(jobs) * self.costs.write_latency
        yield from self._charge(issue)
        ev = self.noc.write_burst(self.link, jobs, interleaved=buf.interleaved)
        self._outstanding_writes.append(ev)

    # -- uniform burst fast path (vectorised; single-bank buffers only) ---------
    def _place_window(self, l1_addr: int, window: Optional[int],
                      data: np.ndarray) -> None:
        """Land burst payload in a (possibly rotating) L1 window."""
        total = data.size
        win = window if window is not None else total
        view = self.core.sram.view(l1_addr, win)
        if total <= win:
            view[:total] = data
            return
        # Rotating scratch: only the final wrap survives; compute the end
        # state of the cyclic placement.
        pos_end = total % win
        tail = data[-win:]
        view[pos_end:] = tail[:win - pos_end]
        view[:pos_end] = tail[win - pos_end:]

    def noc_read_buffer_burst_uniform(self, buf: Buffer, start: int,
                                      n_requests: int, batch: int,
                                      stride: int, l1_addr: int, *,
                                      sync: bool = False,
                                      replay: bool = False,
                                      window: Optional[int] = None):
        """``n_requests`` reads of ``batch`` bytes spaced ``stride`` apart.

        O(1) in Python regardless of ``n_requests`` — the sweep path for
        Tables III–V where request counts reach 16.8 M.  Timing matches
        the per-request path (issue + contiguity penalties per request,
        one shared completion); per-request alignment corruption is not
        emulated here (see :meth:`Buffer.gather_uniform`).
        """
        contiguous = stride == batch
        pen_count = 1 if contiguous else n_requests
        issue = (n_requests * self.costs.read_issue
                 + pen_count * self.costs.noncontig_read)
        if sync:
            issue += n_requests * self.costs.read_latency
        yield from self._charge(issue)
        data = buf.gather_uniform(start, n_requests, batch, stride)
        self._place_window(l1_addr, window, data)
        self._last_read_end = (buf.bank_id,
                               buf.addr + start + (n_requests - 1) * stride
                               + batch)
        ev = self.noc.book_read(self.link, buf.bank_id, data.size,
                                n_requests, replay=replay)
        self._outstanding_reads.append(ev)

    def noc_write_buffer_burst_uniform(self, buf: Buffer, start: int,
                                       n_requests: int, batch: int,
                                       stride: int, l1_addr: int, *,
                                       sync: bool = False,
                                       window: Optional[int] = None):
        """Mirror of the uniform read burst for writes."""
        contiguous = stride == batch
        pen_count = 1 if contiguous else n_requests
        issue = (n_requests * self.costs.write_issue
                 + pen_count * self.costs.noncontig_write)
        if sync:
            issue += n_requests * self.costs.write_latency
        yield from self._charge(issue)
        total = n_requests * batch
        win = window if window is not None else total
        src = self.core.sram.view(l1_addr, win)
        payload = src if total == win else _rotating_gather(src, 0, total)
        buf.scatter_uniform(start, n_requests, batch, stride, payload)
        self._last_write_end = (buf.bank_id,
                                buf.addr + start + (n_requests - 1) * stride
                                + batch)
        ev = self.noc.book_write(self.link, buf.bank_id, total, n_requests)
        self._outstanding_writes.append(ev)

    # -- core-to-core SRAM transfers (future-work extension) ---------------------
    def noc_sram_write(self, dst_core, dst_l1: int, src_l1: int, size: int):
        """Push local L1 bytes into another core's L1 over this NoC.

        Grayskull silicon supports core↔core NoC transfers even though the
        paper's kernels never use them; the SRAM-resident solver
        (:mod:`repro.core.jacobi_sram`) exchanges halo rows this way.
        """
        yield from self._charge(self.costs.write_issue)
        src = self.core.sram.view(src_l1, size).copy()
        ev = self.noc.sram_copy(self.link, src,
                                dst_core.sram.view(dst_l1, size))
        self._outstanding_writes.append(ev)

    def noc_sram_write_multicast(self, dst_cores, dst_l1: int, src_l1: int,
                                 size: int):
        """Replicate local L1 bytes into the same L1 window of many cores.

        Models tt-metal's ``noc_async_write_multicast`` (the grid-wide
        scalar/config broadcast pattern): one issue charge, one NoC copy
        per destination, every completion draining through
        :meth:`noc_async_write_barrier`.
        """
        dsts = list(dst_cores)
        if not dsts:
            raise KernelError(
                "noc_sram_write_multicast needs at least one destination")
        yield from self._charge(self.costs.write_issue)
        src = self.core.sram.view(src_l1, size).copy()
        for dst in dsts:
            ev = self.noc.sram_copy(self.link, src,
                                    dst.sram.view(dst_l1, size))
            self._outstanding_writes.append(ev)

    # -- software memcpy on the data-mover core ---------------------------------
    @staticmethod
    def _copy_misaligned(*addrs: int) -> bool:
        """Non-word-aligned pointers halve the baby core's copy rate."""
        return any(a % 4 for a in addrs)

    def memcpy(self, dst_l1: int, src_l1: int, size: int):
        """One contiguous L1→L1 copy (expensive: ~633 MB/s + 450 ns/call)."""
        yield from self._charge(self.costs.memcpy_time(
            size, calls=1, misaligned=self._copy_misaligned(dst_l1, src_l1)))
        sram = self.core.sram
        sram.view(dst_l1, size)[:] = sram.view(src_l1, size).copy()

    def memcpy_rows(self, dst_l1: int, dst_stride: int, src_l1: int,
                    src_stride: int, row_bytes: int, rows: int):
        """Strided row-by-row copy — the 4-CB extraction of Section IV.

        Each row is a separate copy call (the per-call overhead is what
        makes this the paper's dominant bottleneck, Table II).
        """
        if rows <= 0 or row_bytes <= 0:
            raise KernelError("rows and row_bytes must be positive")
        misaligned = self._copy_misaligned(dst_l1, src_l1,
                                           dst_stride, src_stride)
        yield from self._charge(
            self.costs.memcpy_time(rows * row_bytes, calls=rows,
                                   misaligned=misaligned))
        sram = self.core.sram
        for r in range(rows):
            sram.view(dst_l1 + r * dst_stride, row_bytes)[:] = \
                sram.view(src_l1 + r * src_stride, row_bytes).copy()


class ComputeCtx(_CtxBase):
    """Context for the logical compute core (unpack/math/pack + FPU)."""

    slot = COMPUTE

    def __init__(self, core: TensixCore, args: Optional[Dict] = None):
        super().__init__(core, args)
        self.fpu = core.fpu

    # -- register file ---------------------------------------------------------
    @_plain_op
    def tile_regs_acquire(self):
        wait = self._charge(self.costs.cb_op)
        if wait:
            return self._after(wait, _apply, self.fpu.acquire_dst, ())
        self.fpu.acquire_dst()
        return ()

    @_plain_op
    def tile_regs_release(self):
        wait = self._charge(self.costs.cb_op)
        if wait:
            return self._after(wait, _apply, self.fpu.release_dst, ())
        self.fpu.release_dst()
        return ()

    # -- tile math (each charges one calibrated FPU op) --------------------------
    @_plain_op
    def add_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        cbs = self._cbs
        a = cbs[cb_a] if cb_a in cbs else self._cb(cb_a)
        b = cbs[cb_b] if cb_b in cbs else self._cb(cb_b)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.add_tiles, (a, b, ia, ib, dst))
        self.fpu.add_tiles(a, b, ia, ib, dst)
        return ()

    @_plain_op
    def sub_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        cbs = self._cbs
        a = cbs[cb_a] if cb_a in cbs else self._cb(cb_a)
        b = cbs[cb_b] if cb_b in cbs else self._cb(cb_b)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.sub_tiles, (a, b, ia, ib, dst))
        self.fpu.sub_tiles(a, b, ia, ib, dst)
        return ()

    @_plain_op
    def mul_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int, dst: int):
        cbs = self._cbs
        a = cbs[cb_a] if cb_a in cbs else self._cb(cb_a)
        b = cbs[cb_b] if cb_b in cbs else self._cb(cb_b)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.mul_tiles, (a, b, ia, ib, dst))
        self.fpu.mul_tiles(a, b, ia, ib, dst)
        return ()

    @_plain_op
    def copy_tile(self, cb: int, idx: int, dst: int):
        src = self._cb(cb)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.copy_tile, (src, idx, dst))
        self.fpu.copy_tile(src, idx, dst)
        return ()

    @_plain_op
    def add_tile_to_dst(self, cb: int, idx: int, dst: int):
        """Destination-accumulation mode (the paper's rejected variant)."""
        src = self._cb(cb)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.add_tiles_to_dst, (src, idx, dst))
        self.fpu.add_tiles_to_dst(src, idx, dst)
        return ()

    @_plain_op
    def unary_tile(self, op: str, cb: int, idx: int, dst: int):
        """SFPU elementwise op: exp/log/sqrt/square/abs/sin/cos/
        reciprocal/relu/sigmoid (the FPU capabilities the paper lists)."""
        src = self._cb(cb)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.unary_tile, (op, src, idx, dst))
        self.fpu.unary_tile(op, src, idx, dst)
        return ()

    def reduce_tile(self, cb: int, idx: int, dst: int, kind: str = "sum"):
        """Scalar tile reduction (sum / max / absmax); value in dst[0].

        A generator, not a plain call: its value is the ``yield from``
        result."""
        yield from self._charge(self.costs.fpu_op)
        return self.fpu.reduce_tile(self._cb(cb), idx, dst, kind=kind)

    @_plain_op
    def matmul_tiles(self, cb_a: int, cb_b: int, ia: int, ib: int,
                     dst: int, accumulate: bool = False):
        """32x32 tile matrix multiply — the FPU's ML primitive."""
        a, b = self._cb(cb_a), self._cb(cb_b)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply, self.fpu.matmul_tiles,
                               (a, b, ia, ib, dst, accumulate))
        self.fpu.matmul_tiles(a, b, ia, ib, dst, accumulate)
        return ()

    @_plain_op
    def transpose_tile(self, cb: int, idx: int, dst: int):
        """32x32 tile transpose."""
        src = self._cb(cb)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.transpose_tile, (src, idx, dst))
        self.fpu.transpose_tile(src, idx, dst)
        return ()

    @_plain_op
    def pack_tile(self, dst: int, cb_out: int, page_offset: int = 0):
        cbs = self._cbs
        cb = cbs[cb_out] if cb_out in cbs else self._cb(cb_out)
        wait = self._charge(self.costs.fpu_op)
        if wait:
            return self._after(wait, _apply,
                               self.fpu.pack_tile, (dst, cb, page_offset))
        self.fpu.pack_tile(dst, cb, page_offset)
        return ()

    @_plain_op
    def cb_set_wr_ptr(self, cb_id: int, l1_addr: int):
        """Producer-side alias (the Section-VIII API recommendation).

        Points the packer at an arbitrary L1 address so ``pack_tile``
        writes straight into e.g. an SRAM-resident domain slab.
        """
        cbs = self._cbs
        return self._op(self.costs.cb_op, CircularBuffer.set_wr_ptr,
                        cbs[cb_id] if cb_id in cbs else self._cb(cb_id),
                        l1_addr)

    # -- the paper's extension ----------------------------------------------------
    @_plain_op
    def cb_set_rd_ptr(self, cb_id: int, l1_addr: int):
        """``cb_set_rd_ptr`` → ``llk_set_read_ptr`` (Section VI).

        Points the unpacker at an arbitrary L1 address so subsequent tile
        reads alias the data mover's local buffer — no memcpy.  Install it
        after ``cb_wait_front`` completes, exactly as the paper describes.
        """
        cbs = self._cbs
        return self._op(self.costs.cb_op, CircularBuffer.set_rd_ptr,
                        cbs[cb_id] if cb_id in cbs else self._cb(cb_id),
                        l1_addr)

    @_plain_op
    def cb_set_rd_ptrs(self, *assignments: tuple[int, int]):
        """Batched ``cb_set_rd_ptr``: ``(cb_id, l1_addr)`` pairs.

        The pointer pokes are consumer-private state (nothing else can
        observe them between the individual ops), so the per-op charges
        fuse into one simulator event via ``_charge``'s ``steps`` — same final
        timestamp and busy accounting, three fewer events per fused
        4-pointer row in the optimised Jacobi kernel.
        """
        return self._op(self.costs.cb_op, ComputeCtx._set_rd_ptrs, self,
                        assignments, len(assignments))

    def _set_rd_ptrs(self, assignments) -> None:
        cbs = self._cbs
        for cb_id, l1_addr in assignments:
            (cbs[cb_id] if cb_id in cbs else self._cb(cb_id)).set_rd_ptr(
                l1_addr)
