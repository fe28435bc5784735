"""The optimised Jacobi kernel (Section VI): row batches and zero-copy CBs.

Redesign driven by the Section-V lessons:

* **fewer, larger, contiguous reads** — the domain is swept in
  1024-element row chunks (Fig. 6); each batch is one contiguous read of
  ``width+2`` elements (the chunk plus its x halos), aligned with the
  Listing-4 helper;
* **no replicated reads** — a rotating 4-row local buffer holds the
  current, previous and next rows, so every DRAM row is fetched once per
  column sweep;
* **no memcpy** — the compute kernel re-points each input CB's read
  pointer into the rotating buffer with the paper's ``cb_set_rd_ptr``
  extension: the x−1 / x+1 tiles are just the same row at element offsets
  0 / 2, and y−1 / y+1 are the neighbouring slots.

Multi-core (Section VII): the global domain is decomposed over a
``cores_y × cores_x`` grid (Table VIII); cores exchange halos implicitly
through the shared DRAM images, with a global semaphore barrier per
iteration.  Buffers are interleaved across the 8 banks (32 KB pages — the
Table-VI sweet spot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1, TensixCore
from repro.core.decomposition import SubDomain, chunk_columns, split_domain
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.core.jacobi_initial import DeviceRunResult
from repro.dtypes.bf16 import BF16_BYTES, f32_to_bits
from repro.dtypes.tiles import TILE_ELEMS
from repro.sim.resources import Semaphore
from repro.ttmetal import (
    CreateCircularBuffer,
    CreateKernel,
    CreateSemaphore,
    EnqueueProgram,
    EnqueueReadBuffer,
    EnqueueWriteBuffer,
    Finish,
    Program,
    create_buffer,
)

__all__ = ["OptimizedConfig", "OptimizedJacobiRunner"]

CB_IN0, CB_IN1, CB_IN2, CB_IN3 = 0, 1, 2, 3
CB_SCALAR = 4
CB_OUT0 = 16
CB_INTERMED = 24
SEM_ITER = 0
#: compute increments this after finishing each chunk column; the reader
#: waits on it before priming the next column's rows into the rotating
#: buffer (otherwise the prime could overwrite slots the consumer is
#: still aliasing on the previous column's final rows).
SEM_COLUMN = 1

#: rotating local-buffer depth (the paper allocates four batches).
N_SLOTS = 4
#: in-CB pages: 2 ⇒ the reader prefetches one row ahead of the consumer,
#: which is exactly the slot-reuse safety margin of the 4-deep buffer.
IN_PAGES = 2


@dataclass(frozen=True)
class OptimizedConfig:
    """Section-VI variant knobs."""

    chunk: int = TILE_ELEMS          #: row-batch width in elements
    interleaved: bool = True         #: spread d1/d2 over the 8 banks
    page_size: int = 32 << 10        #: interleave page (Table VI optimum)
    accumulate_in_dst: bool = False  #: the paper's rejected FPU ablation


# --------------------------------------------------------------------------
# kernels (one triple per core; `sub` is the core's SubDomain)
# --------------------------------------------------------------------------

def _reader_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    cfg: OptimizedConfig = ctx.arg("config")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    barrier: Semaphore = ctx.arg("barrier")
    n_cores: int = ctx.arg("n_cores")
    align = ctx.costs.dram_alignment

    # 0.25-constant CB, filled once.
    yield from ctx.cb_reserve_back(CB_SCALAR, 1)
    page_elems = ctx.core.cbs[CB_SCALAR].page_size // 2
    quarter = np.full(page_elems, f32_to_bits(0.25), dtype=np.uint16)
    yield from ctx.l1_store_u16(ctx.cb_write_ptr(CB_SCALAR), quarter)
    yield from ctx.cb_push_back(CB_SCALAR, 1)

    cols = chunk_columns(sub.nx, cfg.chunk, sub.x0)
    max_w = max(w for _, w in cols)
    slack_max = align - 2
    slot_bytes = (max_w + 2) * BF16_BYTES + slack_max
    slot_bytes = (slot_bytes + 31) // 32 * 32
    slots = ctx.core.sram.allocate(N_SLOTS * slot_bytes, align=32)
    # Tell the compute kernel where the rotating buffer lives (the paper
    # passes it as a compile argument).
    ctx.arg("shared")["slots"] = slots
    ctx.arg("shared")["slot_bytes"] = slot_bytes

    def read_row(buf, x0, w, halo_row, slot):
        """One contiguous (w+2)-element aligned row read into a slot."""
        off = layout.stencil_row_offset(halo_row, x0)
        slack = off % align
        yield from ctx.noc_read_buffer(
            buf, off - slack, slots + slot * slot_bytes,
            (w + 2) * BF16_BYTES + slack)
        return slack

    for it in range(iterations):
        yield from ctx.semaphore_wait(barrier, n_cores * it)
        src_buf = buffers[it % 2]
        for ci, (x0, w) in enumerate(cols):
            # Drain gate: the consumer must have finished the previous
            # column before its slots are overwritten by this prime.
            if ci > 0:
                yield from ctx.semaphore_wait(
                    SEM_COLUMN, it * len(cols) + ci)
            for cb in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
                yield from ctx.cb_reserve_back(cb, 1)
            slack = 0
            for k in range(3):
                slack = yield from read_row(
                    src_buf, x0, w, sub.y0 + k, k % N_SLOTS)
            ctx.arg("shared")["slack"] = slack
            for r in range(sub.ny):
                # Synchronise outstanding reads at the start of the batch,
                # hand the three-row window to compute, then prefetch two
                # batches ahead.
                yield from ctx.noc_async_read_barrier()
                for cb in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
                    yield from ctx.cb_push_back(cb, 1)
                if r + 1 < sub.ny:
                    # The reserve gates slot reuse: with 2-page CBs it
                    # succeeds only once the consumer has popped row r-1,
                    # so overwriting slot (r+3) mod 4 (= halo row r-1's
                    # slot) is provably safe.
                    for cb in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
                        yield from ctx.cb_reserve_back(cb, 1)
                    yield from read_row(src_buf, x0, w, sub.y0 + r + 3,
                                        (r + 3) % N_SLOTS)


def _compute_kernel(ctx):
    cfg: OptimizedConfig = ctx.arg("config")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    shared = ctx.arg("shared")
    dst0 = 0

    cols = chunk_columns(sub.nx, cfg.chunk, sub.x0)
    yield from ctx.cb_wait_front(CB_SCALAR, 1)
    yield from ctx.tile_regs_acquire()
    for _ in range(iterations):
        for _x0, _w in cols:
            for r in range(sub.ny):
                # The fused charge region opens before the input waits:
                # a wait only *reads* shared CB state, so its charge can
                # coalesce with the pipeline's (a wait that actually
                # blocks flushes first and blocks at the exact unfused
                # instant — see _CtxBase.fused_begin).
                ctx.fused_begin()
                yield from ctx.cb_wait_front(CB_IN0, 1)
                yield from ctx.cb_wait_front(CB_IN1, 1)
                yield from ctx.cb_wait_front(CB_IN2, 1)
                yield from ctx.cb_wait_front(CB_IN3, 1)
                # Zero-copy: point each CB's unpacker at the rotating buffer.
                base = shared["slots"]
                sb = shared["slot_bytes"]
                slack = shared["slack"]
                centre = base + ((r + 1) % N_SLOTS) * sb + slack
                above = base + (r % N_SLOTS) * sb + slack
                below = base + ((r + 2) % N_SLOTS) * sb + slack
                yield from ctx.cb_set_rd_ptrs(
                    (CB_IN0, centre),                        # x-1
                    (CB_IN1, centre + 2 * BF16_BYTES),       # x+1
                    (CB_IN2, above + BF16_BYTES),            # y-1
                    (CB_IN3, below + BF16_BYTES))            # y+1

                if cfg.accumulate_in_dst:
                    # The rejected ablation (Section IV): accumulate in the
                    # destination registers to skip intermediate CB packs.
                    # Real hardware pays FPU reconfiguration between
                    # accumulate and multiply passes, which the paper found
                    # made this *slower*; we charge two reconfiguration ops
                    # to model it.
                    yield from ctx.copy_tile(CB_IN0, 0, dst0)
                    yield from ctx.add_tile_to_dst(CB_IN1, 0, dst0)
                    yield from ctx.add_tile_to_dst(CB_IN2, 0, dst0)
                    yield from ctx.add_tile_to_dst(CB_IN3, 0, dst0)
                    # Switching the FPU from the accumulate configuration
                    # to the scale pass re-programs unpacker and math
                    # threads — ~6 op-times of dead pipeline, which is what
                    # made this variant a net loss on silicon.
                    yield from ctx._charge(6 * ctx.costs.fpu_op)
                    ctx.fpu._dst[dst0] = (
                        ctx.fpu._dst[dst0] * np.float32(0.25)).astype(np.float32)
                    # The pops wake the reader: they must leave the
                    # fused region.
                    yield from ctx.fused_end()
                    yield from ctx.cb_pop_front(CB_IN0, 1)
                    yield from ctx.cb_pop_front(CB_IN1, 1)
                    yield from ctx.cb_pop_front(CB_IN2, 1)
                    yield from ctx.cb_pop_front(CB_IN3, 1)
                    yield from ctx.cb_reserve_back(CB_OUT0, 1)
                    yield from ctx.pack_tile(dst0, CB_OUT0)
                    yield from ctx.cb_push_back(CB_OUT0, 1)
                    continue

                # Listing-2 pipeline on the aliased rows.  The whole chain
                # is core-private (FPU registers plus the self-looped
                # INTERMED ping-pong buffer), so its per-op charges stay
                # in the fused region opened above — one simulator event
                # for the row's waits + pipeline + output pack.
                yield from ctx.add_tiles(CB_IN0, CB_IN1, 0, 0, dst0)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)

                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.add_tiles(CB_IN2, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)

                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.add_tiles(CB_IN3, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)
                yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                yield from ctx.pack_tile(dst0, CB_INTERMED)
                yield from ctx.cb_push_back(CB_INTERMED, 1)

                yield from ctx.cb_wait_front(CB_INTERMED, 1)
                yield from ctx.mul_tiles(CB_SCALAR, CB_INTERMED, 0, 0, dst0)
                yield from ctx.cb_pop_front(CB_INTERMED, 1)

                # OUT0 reserve + pack only mutate state the writer never
                # reads (the page commits at push), so they fuse too; the
                # push itself wakes the writer and must not.
                yield from ctx.cb_reserve_back(CB_OUT0, 1)
                yield from ctx.pack_tile(dst0, CB_OUT0)
                yield from ctx.fused_end()
                yield from ctx.cb_push_back(CB_OUT0, 1)

                yield from ctx.cb_pop_front(CB_IN0, 1)
                yield from ctx.cb_pop_front(CB_IN1, 1)
                yield from ctx.cb_pop_front(CB_IN2, 1)
                yield from ctx.cb_pop_front(CB_IN3, 1)
            yield from ctx.semaphore_inc(SEM_COLUMN, 1)
    yield from ctx.tile_regs_release()


def _writer_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    cfg: OptimizedConfig = ctx.arg("config")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    barrier: Semaphore = ctx.arg("barrier")

    cols = chunk_columns(sub.nx, cfg.chunk, sub.x0)
    for _it in range(iterations):
        dst_buf = buffers[(_it + 1) % 2]
        for x0, w in cols:
            for r in range(sub.ny):
                yield from ctx.cb_wait_front(CB_OUT0, 1)
                off = layout.elem_offset(sub.y0 + r + 1, x0)
                yield from ctx.noc_write_buffer(
                    dst_buf, off, ctx.cb_read_ptr(CB_OUT0), w * BF16_BYTES)
                yield from ctx.noc_async_write_barrier()
                yield from ctx.cb_pop_front(CB_OUT0, 1)
        # Global iteration barrier: every writer increments once.
        yield from ctx.semaphore_inc(barrier, 1)


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------

class OptimizedJacobiRunner:
    """Host driver for the Section-VI kernels over a core grid."""

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 config: Optional[OptimizedConfig] = None,
                 cores_y: int = 1, cores_x: int = 1):
        self.device = device
        self.problem = problem
        self.config = config or OptimizedConfig()
        self.cores_y = cores_y
        self.cores_x = cores_x
        self.layout = AlignedDomain(problem)

    def build_program(self, sim_iters: int, d1, d2) -> Program:
        """Assemble the multi-core Program over the two DRAM buffers.

        Exactly the launch :meth:`run` enqueues (same CB/semaphore/kernel
        creation order, so lint findings and bench invariants match a
        real run); callers that only need the static program — the lint
        sweep, the ``lint_smoke`` benchmark — build it without paying
        for simulation.
        """
        dev = self.device
        cfg = self.config
        grid = dev.worker_grid(self.cores_y, self.cores_x)
        subs = split_domain(self.problem.nx, self.problem.ny,
                            self.cores_y, self.cores_x)
        n_cores = self.cores_y * self.cores_x
        barrier = Semaphore(dev.sim, value=0, name="iter_barrier")

        prog = Program(dev)
        for iy in range(self.cores_y):
            for ix in range(self.cores_x):
                core = grid[iy][ix]
                sub = subs[iy][ix]
                w = min(cfg.chunk, sub.nx)
                page = w * BF16_BYTES
                for cb in (CB_IN0, CB_IN1, CB_IN2, CB_IN3):
                    CreateCircularBuffer(prog, core, cb, page, IN_PAGES)
                CreateCircularBuffer(prog, core, CB_SCALAR, page, 1)
                CreateCircularBuffer(prog, core, CB_INTERMED, page, 2)
                CreateCircularBuffer(prog, core, CB_OUT0, page, 4)
                CreateSemaphore(prog, core, SEM_ITER, 0)
                CreateSemaphore(prog, core, SEM_COLUMN, 0)
                shared: dict = {}
                common = dict(layout=self.layout, config=cfg,
                              buffers=[d1, d2], iterations=sim_iters,
                              sub=sub, barrier=barrier, n_cores=n_cores,
                              shared=shared)
                CreateKernel(prog, _reader_kernel, core, DATA_MOVER_0, common)
                CreateKernel(prog, _compute_kernel, core, COMPUTE, common)
                CreateKernel(prog, _writer_kernel, core, DATA_MOVER_1, common)
        return prog

    def run(self, iterations: int,
            sim_iterations: Optional[int] = None,
            read_back: bool = True,
            initial_grid: Optional[np.ndarray] = None) -> DeviceRunResult:
        """Execute; see :meth:`InitialJacobiRunner.run` for the contract.

        ``initial_grid`` (a full ``(ny+2, nx+2)`` BF16 halo grid)
        overrides the problem's default initial state.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        sim_iters = min(sim_iterations or iterations, iterations)
        if sim_iters <= 0:
            raise ValueError("sim_iterations must be positive")
        dev = self.device
        cfg = self.config

        img = self.layout.pack(initial_grid)
        mk = dict(interleaved=True, page_size=cfg.page_size) \
            if cfg.interleaved else dict(bank_id=0)
        d1 = create_buffer(dev, self.layout.nbytes, **mk)
        d2 = create_buffer(dev, self.layout.nbytes, **mk)
        t_in = EnqueueWriteBuffer(dev, d1, img)
        t_in += EnqueueWriteBuffer(dev, d2, img)

        prog = self.build_program(sim_iters, d1, d2)

        EnqueueProgram(dev, prog)
        kernel_time = Finish(dev)
        per_iter = kernel_time / sim_iters
        full_time = per_iter * iterations

        grid_bits = None
        t_out = 0.0
        if read_back and sim_iters == iterations:
            final = d1 if iterations % 2 == 0 else d2
            t0 = dev.sim.now
            raw = EnqueueReadBuffer(dev, final)
            t_out = dev.sim.now - t0
            grid_bits = self.layout.unpack(raw.view("<u2"))

        points = self.problem.nx * self.problem.ny
        return DeviceRunResult(
            grid_bits=grid_bits,
            iterations=iterations,
            simulated_iterations=sim_iters,
            kernel_time_s=full_time,
            transfer_time_s=t_in + t_out,
            energy_j=dev.energy.energy_j if sim_iters == iterations
            else dev.energy.energy_j * (full_time / (kernel_time or 1.0)),
            points=points,
        )
