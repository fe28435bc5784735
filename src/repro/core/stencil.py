"""Generic weighted 5-point stencils on the optimised dataflow.

The paper's future work: "We are now looking at more complex stencil
algorithms, such as atmospheric advection, on the Grayskull."  This
module generalises the Section-VI kernel from the fixed Jacobi average to
any 5-point stencil

    out[y, x] = c·u[y, x] + w·u[y, x−1] + e·u[y, x+1]
              + n·u[y−1, x] + s·u[y+1, x]

with BF16 coefficients.  The dataflow is unchanged — contiguous row
reads, rotating 4-row buffer, ``cb_set_rd_ptr`` zero-copy aliases (the
centre term is simply a fifth alias at element offset 1) — only the
compute kernel's FPU program is generated from the coefficient set:
one ``mul_tiles`` against a constant CB per non-zero term, chained with
``add_tiles`` through the intermediate CB.

Built-in specs: Jacobi/Laplace diffusion, explicit heat diffusion
(``u + α∇²u``) and first-order upwind advection — the paper's named
target.

Note on rounding: the generic kernel's rounding chain is
``r = bf16(c₀·t₀); r = bf16(bf16(cₖ·tₖ) + r)…``, which differs from
Listing 2's add-first order, so ``StencilSpec.jacobi()`` agrees with the
dedicated Jacobi kernel to BF16 tolerance but not bit-for-bit.  The
bit-exact oracle for *this* kernel is :func:`stencil_step_bf16`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.arch.tensix import COMPUTE, DATA_MOVER_0, DATA_MOVER_1
from repro.core.decomposition import SubDomain, chunk_columns, split_domain
from repro.core.grid import AlignedDomain, LaplaceProblem
from repro.core.jacobi_initial import DeviceRunResult
from repro.dtypes.bf16 import (
    BF16_BYTES,
    bf16_high_bits,
    bf16_round,
    bf16_round_f32,
    bits_to_f32,
    f32_to_bits,
)
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

__all__ = ["StencilSpec", "StencilRunner", "stencil_step_bf16",
           "stencil_solve_bf16", "stencil_step_fp32", "stencil_solve_fp32"]

# CB ids: inputs 0-4 (W, E, N, S, C), RHS field 5, coefficient constants
# 8-12, intermediates 24-25, output 16.
CB_W, CB_E, CB_N, CB_S, CB_C = 0, 1, 2, 3, 4
CB_RHS = 5
CB_COEF_BASE = 8
CB_OUT0 = 16
CB_INTERMED, CB_INTERMED2 = 24, 25
#: column-drain semaphore (see jacobi_optimized.SEM_COLUMN)
SEM_COLUMN = 1
N_SLOTS = 4
IN_PAGES = 2

#: term order: (input CB, coefficient attribute, alias element offset
#: within the row window, row role: -1 above / 0 centre / +1 below)
_TERMS: List[Tuple[int, str, int, int]] = [
    (CB_C, "center", 1, 0),
    (CB_W, "west", 0, 0),
    (CB_E, "east", 2, 0),
    (CB_N, "north", 1, -1),
    (CB_S, "south", 1, 1),
]


@dataclass(frozen=True)
class StencilSpec:
    """Coefficients of a 5-point stencil (stored BF16-rounded)."""

    center: float
    west: float
    east: float
    north: float
    south: float

    def __post_init__(self):
        for name in ("center", "west", "east", "north", "south"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, float(bf16_round(np.float32(v))))

    # -- library ------------------------------------------------------------
    @classmethod
    def jacobi(cls) -> "StencilSpec":
        """The paper's kernel: the average of the four neighbours."""
        return cls(center=0.0, west=0.25, east=0.25, north=0.25, south=0.25)

    @classmethod
    def diffusion(cls, alpha: float) -> "StencilSpec":
        """Explicit heat step u + α∇²u (stable for α ≤ 0.25)."""
        if not 0 < alpha <= 0.25:
            raise ValueError("explicit diffusion requires 0 < alpha <= 0.25")
        return cls(center=1 - 4 * alpha, west=alpha, east=alpha,
                   north=alpha, south=alpha)

    @classmethod
    def advection_upwind(cls, cu: float, cv: float) -> "StencilSpec":
        """First-order upwind advection with Courant numbers (cu, cv) ≥ 0.

        ``u ← u − cu·(u − u_west) − cv·(u − u_north)`` — the atmospheric
        advection pattern the paper names as its next target (flow toward
        +x, +y).  Stable for cu + cv ≤ 1.

        The stored coefficients must keep that bound: ``cu`` and ``cv``
        round to BF16 as usual, and ``center`` is ``1 - cu - cv`` of the
        *rounded* pair, rounded toward zero, so the three sum to at most 1
        (rounding all three to nearest independently can sum past 1, and
        the scheme then amplifies).  When the rounded pair alone exceeds
        1, ``center`` is 0.
        """
        if cu < 0 or cv < 0 or cu + cv > 1:
            raise ValueError("upwind stability needs cu, cv >= 0 and "
                             "cu + cv <= 1")
        west, north = (float(bf16_round(np.float32(c))) for c in (cu, cv))
        # fsum rounds the exact sum once, so its sign is the exact sign
        rest = math.fsum((1.0, -west, -north))
        center = 0.0
        if rest > 0:
            # truncate to the BF16 grid; one step down if the float32
            # conversion rounded past the exact remainder
            bits = bf16_high_bits(np.float32(rest))
            center = float(bits_to_f32(bits))
            if math.fsum((center, -1.0, west, north)) > 0:
                center = float(bits_to_f32(bits - np.uint16(1)))
        return cls(center=center, west=west, east=0.0, north=north,
                   south=0.0)

    def active_terms(self) -> List[Tuple[int, str, int, int]]:
        """The non-zero terms, in evaluation order."""
        return [t for t in _TERMS if getattr(self, t[1]) != 0.0]

    def max_principle_holds(self) -> bool:
        """Positive coefficients summing to ≤ 1 ⇒ outputs stay bounded."""
        coeffs = [self.center, self.west, self.east, self.north, self.south]
        return all(c >= 0 for c in coeffs) and sum(coeffs) <= 1.0 + 2 ** -8


# --------------------------------------------------------------------------
# bit-exact reference
# --------------------------------------------------------------------------

def stencil_step_bf16(bits: np.ndarray, spec: StencilSpec,
                      rhs_bits: Optional[np.ndarray] = None) -> np.ndarray:
    """One sweep of the generic kernel's exact rounding chain.

    ``rhs_bits`` (a ``(ny, nx)`` BF16 interior field) is added last:
    ``out = Σ cₖ·uₖ + rhs`` — the inhomogeneous term that makes
    defect-correction solves possible (see :mod:`repro.core.refinement`).
    """
    return stencil_solve_bf16(bits, spec, 1, rhs_bits)


def stencil_solve_bf16(bits: np.ndarray, spec: StencilSpec,
                       iterations: int,
                       rhs_bits: Optional[np.ndarray] = None) -> np.ndarray:
    """``iterations`` sweeps of :func:`stencil_step_bf16`.

    The grid is unpacked once; each ``mul_tiles``/``add_tiles`` + pack of
    the kernel is a float32 op followed by one BF16 rounding, and the
    boundary keeps its input bits exactly.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    u = bits_to_f32(np.asarray(bits, dtype=np.uint16))
    interior = u[1:-1, 1:-1]
    rhs = None
    if rhs_bits is not None:
        r = np.asarray(rhs_bits, dtype=np.uint16)
        if r.shape != interior.shape:
            raise ValueError(
                f"rhs must be the interior shape {interior.shape}, "
                f"got {r.shape}")
        rhs = bits_to_f32(r)
    coefs = [(cb, np.full(interior.shape, bf16_round(getattr(spec, name))))
             for cb, name, _off, _row in spec.active_terms()]
    win = np.ascontiguousarray   # see bf16_round_f32 on operand layout
    # overflow to ±inf and inf−inf → NaN are the FPU's IEEE semantics
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            windows = {
                CB_C: u[1:-1, 1:-1], CB_W: u[1:-1, :-2], CB_E: u[1:-1, 2:],
                CB_N: u[:-2, 1:-1], CB_S: u[2:, 1:-1],
            }
            acc = None
            for cb, coef in coefs:
                term = bf16_round_f32(coef * win(windows[cb]))
                acc = term if acc is None else bf16_round_f32(term + acc)
            if rhs is not None:
                acc = rhs if acc is None else bf16_round_f32(rhs + acc)
            # every window was read before this write
            u[1:-1, 1:-1] = acc if acc is not None else 0
    return bf16_high_bits(u)


def stencil_step_fp32(grid: np.ndarray, spec: StencilSpec,
                      rhs: Optional[np.ndarray] = None) -> np.ndarray:
    """One FP32 sweep with the device kernel's exact operation order.

    The Wormhole-precision mode: every mul/add is a single f32 rounding
    (packing is lossless), so this matches the FP32 device execution
    bit-for-bit.
    """
    g = np.asarray(grid, dtype=np.float32)
    windows = {
        CB_C: g[1:-1, 1:-1], CB_W: g[1:-1, :-2], CB_E: g[1:-1, 2:],
        CB_N: g[:-2, 1:-1], CB_S: g[2:, 1:-1],
    }
    acc = None
    for cb, name, _off, _row in spec.active_terms():
        term = (np.float32(getattr(spec, name)) * windows[cb]).astype(
            np.float32)
        acc = term if acc is None else (term + acc).astype(np.float32)
    if rhs is not None:
        r = np.asarray(rhs, dtype=np.float32)
        if r.shape != windows[CB_C].shape:
            raise ValueError(
                f"rhs must be the interior shape {windows[CB_C].shape}")
        acc = r.copy() if acc is None else (r + acc).astype(np.float32)
    out = g.copy()
    out[1:-1, 1:-1] = acc if acc is not None else 0.0
    return out


def stencil_solve_fp32(grid: np.ndarray, spec: StencilSpec,
                       iterations: int,
                       rhs: Optional[np.ndarray] = None) -> np.ndarray:
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    g = np.asarray(grid, dtype=np.float32).copy()
    for _ in range(iterations):
        g = stencil_step_fp32(g, spec, rhs)
    return g


# --------------------------------------------------------------------------
# device kernels (Section-VI dataflow, generated compute program)
# --------------------------------------------------------------------------

def _reader_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    spec: StencilSpec = ctx.arg("spec")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    barrier: Semaphore = ctx.arg("barrier")
    n_cores: int = ctx.arg("n_cores")
    chunk: int = ctx.arg("chunk")
    align = ctx.costs.dram_alignment
    terms = spec.active_terms()
    in_cbs = [t[0] for t in terms]

    # fill one constant CB per active coefficient (element-width aware)
    eb = layout.elem_bytes
    coef_cb = ctx.core.cbs[CB_COEF_BASE + in_cbs[0]]
    page_elems = coef_cb.page_size // eb
    for cb, name, _off, _row in terms:
        yield from ctx.cb_reserve_back(CB_COEF_BASE + cb, 1)
        value = np.float32(getattr(spec, name))
        if eb == 4:
            vals = np.full(page_elems, value.view(np.uint32),
                           dtype=np.uint32)
            yield from ctx.l1_store_u32(
                ctx.cb_write_ptr(CB_COEF_BASE + cb), vals)
        else:
            vals = np.full(page_elems, f32_to_bits(value), dtype=np.uint16)
            yield from ctx.l1_store_u16(
                ctx.cb_write_ptr(CB_COEF_BASE + cb), vals)
        yield from ctx.cb_push_back(CB_COEF_BASE + cb, 1)

    cols = chunk_columns(sub.nx, chunk, sub.x0)
    max_w = max(w for _, w in cols)
    slot_bytes = ((max_w + 2) * eb + align - eb + 31) // 32 * 32
    slots = ctx.core.sram.allocate(N_SLOTS * slot_bytes, align=32)
    shared = ctx.arg("shared")
    shared["slots"] = slots
    shared["slot_bytes"] = slot_bytes

    rhs_buf = ctx.arg("rhs_buf", default=None)
    rhs_slots = None
    if rhs_buf is not None:
        rhs_slot_bytes = (max_w * eb + 31) // 32 * 32
        rhs_slots = ctx.core.sram.allocate(2 * rhs_slot_bytes, align=32)
        shared["rhs_slots"] = rhs_slots
        shared["rhs_slot_bytes"] = rhs_slot_bytes

    def read_row(buf, x0, w, halo_row, slot):
        off = layout.stencil_row_offset(halo_row, x0)
        slack = off % align
        yield from ctx.noc_read_buffer(
            buf, off - slack, slots + slot * slot_bytes,
            (w + 2) * eb + slack)
        return slack

    def read_rhs_row(x0, w, interior_row, slot):
        # interior element offsets are 256-bit aligned: no slack needed
        off = layout.elem_offset(interior_row + 1, x0)
        yield from ctx.noc_read_buffer(
            rhs_buf, off, rhs_slots + slot * shared["rhs_slot_bytes"],
            w * eb)

    for it in range(iterations):
        yield from ctx.semaphore_wait(barrier, n_cores * it)
        src_buf = buffers[it % 2]
        for ci, (x0, w) in enumerate(cols):
            if ci > 0:
                # drain gate: consumer done with the previous column
                yield from ctx.semaphore_wait(
                    SEM_COLUMN, it * len(cols) + ci)
            for cb in in_cbs:
                yield from ctx.cb_reserve_back(cb, 1)
            slack = 0
            for k in range(3):
                slack = yield from read_row(src_buf, x0, w, sub.y0 + k,
                                            k % N_SLOTS)
            shared["slack"] = slack
            if rhs_buf is not None:
                yield from ctx.cb_reserve_back(CB_RHS, 1)
                yield from read_rhs_row(x0, w, sub.y0, 0)
            for r in range(sub.ny):
                yield from ctx.noc_async_read_barrier()
                for cb in in_cbs:
                    yield from ctx.cb_push_back(cb, 1)
                if rhs_buf is not None:
                    yield from ctx.cb_push_back(CB_RHS, 1)
                if r + 1 < sub.ny:
                    for cb in in_cbs:
                        yield from ctx.cb_reserve_back(cb, 1)
                    yield from read_row(src_buf, x0, w, sub.y0 + r + 3,
                                        (r + 3) % N_SLOTS)
                    if rhs_buf is not None:
                        yield from ctx.cb_reserve_back(CB_RHS, 1)
                        yield from read_rhs_row(x0, w, sub.y0 + r + 1,
                                                (r + 1) % 2)


def _compute_kernel(ctx):
    spec: StencilSpec = ctx.arg("spec")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    chunk: int = ctx.arg("chunk")
    shared = ctx.arg("shared")
    terms = spec.active_terms()
    dst0 = 0

    cols = chunk_columns(sub.nx, chunk, sub.x0)
    for cb, _n, _o, _r in terms:
        yield from ctx.cb_wait_front(CB_COEF_BASE + cb, 1)
    yield from ctx.tile_regs_acquire()
    for _ in range(iterations):
        for _x0, _w in cols:
            for r in range(sub.ny):
                base = None
                for cb, _n, _o, _r in terms:
                    yield from ctx.cb_wait_front(cb, 1)
                sb = shared["slot_bytes"]
                slack = shared["slack"]
                slots = shared["slots"]
                eb = ctx.arg("layout").elem_bytes
                for cb, _name, off, row in terms:
                    slot = (r + 1 + row) % N_SLOTS
                    addr = slots + slot * sb + slack + off * eb
                    yield from ctx.cb_set_rd_ptr(cb, addr)

                # generated FPU program: mul then chained adds; with an
                # RHS field the weighted sum lands in the intermediate CB
                # and the RHS row is added last (matching the reference
                # rounding chain).
                has_rhs = "rhs_slots" in shared
                final_cb = CB_INTERMED if has_rhs else CB_OUT0
                first_cb = terms[0][0]
                yield from ctx.mul_tiles(CB_COEF_BASE + first_cb, first_cb,
                                         0, 0, dst0)
                n_rest = len(terms) - 1
                if n_rest == 0:
                    yield from ctx.cb_reserve_back(final_cb, 1)
                    yield from ctx.pack_tile(dst0, final_cb)
                    yield from ctx.cb_push_back(final_cb, 1)
                else:
                    yield from ctx.cb_reserve_back(CB_INTERMED, 1)
                    yield from ctx.pack_tile(dst0, CB_INTERMED)
                    yield from ctx.cb_push_back(CB_INTERMED, 1)
                    for k, (cb, _name, _o, _r2) in enumerate(terms[1:]):
                        yield from ctx.mul_tiles(CB_COEF_BASE + cb, cb,
                                                 0, 0, dst0)
                        yield from ctx.cb_reserve_back(CB_INTERMED2, 1)
                        yield from ctx.pack_tile(dst0, CB_INTERMED2)
                        yield from ctx.cb_push_back(CB_INTERMED2, 1)
                        yield from ctx.cb_wait_front(CB_INTERMED, 1)
                        yield from ctx.cb_wait_front(CB_INTERMED2, 1)
                        yield from ctx.add_tiles(CB_INTERMED2, CB_INTERMED,
                                                 0, 0, dst0)
                        yield from ctx.cb_pop_front(CB_INTERMED2, 1)
                        yield from ctx.cb_pop_front(CB_INTERMED, 1)
                        last = k == n_rest - 1
                        out_cb = final_cb if last else CB_INTERMED
                        yield from ctx.cb_reserve_back(out_cb, 1)
                        yield from ctx.pack_tile(dst0, out_cb)
                        yield from ctx.cb_push_back(out_cb, 1)
                if has_rhs:
                    yield from ctx.cb_wait_front(CB_RHS, 1)
                    yield from ctx.cb_set_rd_ptr(
                        CB_RHS, shared["rhs_slots"]
                        + (r % 2) * shared["rhs_slot_bytes"])
                    yield from ctx.cb_wait_front(CB_INTERMED, 1)
                    yield from ctx.add_tiles(CB_RHS, CB_INTERMED, 0, 0, dst0)
                    yield from ctx.cb_pop_front(CB_INTERMED, 1)
                    yield from ctx.cb_pop_front(CB_RHS, 1)
                    yield from ctx.cb_reserve_back(CB_OUT0, 1)
                    yield from ctx.pack_tile(dst0, CB_OUT0)
                    yield from ctx.cb_push_back(CB_OUT0, 1)
                for cb, _n, _o, _r2 in terms:
                    yield from ctx.cb_pop_front(cb, 1)
            yield from ctx.semaphore_inc(SEM_COLUMN, 1)
    yield from ctx.tile_regs_release()


def _writer_kernel(ctx):
    layout: AlignedDomain = ctx.arg("layout")
    buffers = ctx.arg("buffers")
    iterations: int = ctx.arg("iterations")
    sub: SubDomain = ctx.arg("sub")
    barrier: Semaphore = ctx.arg("barrier")
    chunk: int = ctx.arg("chunk")

    cols = chunk_columns(sub.nx, chunk, sub.x0)
    for it in range(iterations):
        dst_buf = buffers[(it + 1) % 2]
        for x0, w in cols:
            for r in range(sub.ny):
                yield from ctx.cb_wait_front(CB_OUT0, 1)
                off = layout.elem_offset(sub.y0 + r + 1, x0)
                yield from ctx.noc_write_buffer(
                    dst_buf, off, ctx.cb_read_ptr(CB_OUT0),
                    w * layout.elem_bytes)
                yield from ctx.noc_async_write_barrier()
                yield from ctx.cb_pop_front(CB_OUT0, 1)
        yield from ctx.semaphore_inc(barrier, 1)


class StencilRunner:
    """Host driver: any :class:`StencilSpec` on the Section-VI dataflow.

    ``dtype="fp32"`` runs the Wormhole-precision mode: 4-byte elements,
    512-element FPU tiles, lossless packing — the precision upgrade the
    paper's future work targets, runnable today on the simulator.
    """

    def __init__(self, device: GrayskullDevice, problem: LaplaceProblem,
                 spec: StencilSpec, cores_y: int = 1, cores_x: int = 1,
                 chunk: Optional[int] = None, interleaved: bool = True,
                 page_size: int = 32 << 10, dtype: str = "bf16"):
        if not spec.active_terms():
            raise ValueError("the stencil has no non-zero coefficients")
        if dtype not in ("bf16", "fp32"):
            raise ValueError("dtype must be 'bf16' or 'fp32'")
        self.device = device
        self.problem = problem
        self.spec = spec
        self.cores_y = cores_y
        self.cores_x = cores_x
        self.dtype = dtype
        self.elem_bytes = 2 if dtype == "bf16" else 4
        #: one FPU tile: 1024 BF16 or 512 FP32 elements (16384 bits)
        self.tile_elems = TILE_ELEMS * 2 // self.elem_bytes
        self.chunk = chunk if chunk is not None else self.tile_elems
        self.interleaved = interleaved
        self.page_size = page_size
        self.layout = AlignedDomain(problem, elem_bytes=self.elem_bytes)

    def run(self, iterations: int,
            sim_iterations: Optional[int] = None,
            read_back: bool = True,
            initial_grid: Optional[np.ndarray] = None,
            rhs: Optional[np.ndarray] = None) -> DeviceRunResult:
        """Run ``iterations`` sweeps.

        ``initial_grid`` (a full ``(ny+2, nx+2)`` BF16 halo grid) overrides
        the problem's default initial state — e.g. a tracer plume for an
        advection study.  ``rhs`` (a ``(ny, nx)`` BF16 interior field)
        adds an inhomogeneous term to every sweep:
        ``out = Σ cₖ·uₖ + rhs``.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        sim_iters = min(sim_iterations or iterations, iterations)
        dev = self.device
        img = self.layout.pack(initial_grid)
        mk = dict(interleaved=True, page_size=self.page_size) \
            if self.interleaved else dict(bank_id=0)
        d1 = create_buffer(dev, self.layout.nbytes, **mk)
        d2 = create_buffer(dev, self.layout.nbytes, **mk)
        t_in = EnqueueWriteBuffer(dev, d1, img)
        t_in += EnqueueWriteBuffer(dev, d2, img)

        rhs_buf = None
        if rhs is not None:
            bits_dtype = self.layout.bits_dtype
            r = np.asarray(rhs)
            if self.dtype == "fp32" and r.dtype == np.float32:
                r = r.view(np.uint32)
            r = r.astype(bits_dtype, copy=False)
            if r.shape != (self.problem.ny, self.problem.nx):
                raise ValueError(
                    f"rhs must be ({self.problem.ny},{self.problem.nx}) "
                    f"{self.dtype} bits, got {r.shape} {r.dtype}")
            halo = np.zeros((self.problem.ny + 2, self.problem.nx + 2),
                            dtype=bits_dtype)
            halo[1:-1, 1:-1] = r
            rhs_buf = create_buffer(dev, self.layout.nbytes, **mk)
            t_in += EnqueueWriteBuffer(dev, rhs_buf, self.layout.pack(halo))

        grid = dev.worker_grid(self.cores_y, self.cores_x)
        subs = split_domain(self.problem.nx, self.problem.ny,
                            self.cores_y, self.cores_x)
        n_cores = self.cores_y * self.cores_x
        barrier = Semaphore(dev.sim, value=0, name="stencil_barrier")
        terms = self.spec.active_terms()

        prog = Program(dev)
        for iy in range(self.cores_y):
            for ix in range(self.cores_x):
                core = grid[iy][ix]
                sub = subs[iy][ix]
                w = min(self.chunk, sub.nx)
                page = w * self.elem_bytes
                dt = self.dtype
                for cb, _n, _o, _r in terms:
                    CreateCircularBuffer(prog, core, cb, page, IN_PAGES,
                                         dtype=dt)
                    CreateCircularBuffer(prog, core, CB_COEF_BASE + cb,
                                         page, 1, dtype=dt)
                if rhs_buf is not None:
                    CreateCircularBuffer(prog, core, CB_RHS, page, 2,
                                         dtype=dt)
                CreateCircularBuffer(prog, core, CB_INTERMED, page, 2,
                                     dtype=dt)
                CreateCircularBuffer(prog, core, CB_INTERMED2, page, 2,
                                     dtype=dt)
                CreateCircularBuffer(prog, core, CB_OUT0, page, 4, dtype=dt)
                CreateSemaphore(prog, core, SEM_COLUMN, 0)
                shared: dict = {}
                common = dict(layout=self.layout, spec=self.spec,
                              buffers=[d1, d2], iterations=sim_iters,
                              sub=sub, barrier=barrier, n_cores=n_cores,
                              chunk=self.chunk, shared=shared,
                              rhs_buf=rhs_buf)
                CreateKernel(prog, _reader_kernel, core, DATA_MOVER_0, common)
                CreateKernel(prog, _compute_kernel, core, COMPUTE, common)
                CreateKernel(prog, _writer_kernel, core, DATA_MOVER_1, common)

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
            view = "<u2" if self.elem_bytes == 2 else "<u4"
            grid_bits = self.layout.unpack(raw.view(view))

        return DeviceRunResult(
            grid_bits=grid_bits,
            iterations=iterations,
            simulated_iterations=sim_iters,
            kernel_time_s=full_time,
            transfer_time_s=t_in + t_out,
            energy_j=dev.energy.energy_j,
            points=self.problem.nx * self.problem.ny,
        )
