"""Guards for the flattened device hot path.

Kernel-API ops charge busy time through one plain method
(``_CtxBase._charge``); inside a fused region an op is a plain call that
applies its effect at once, and it falls back to a generator only when
time must pass first (an unfused charge, a hung slot, an attached tracer)
or a handshake blocks.  CB pages of both widths are one slice of L1, and
the FPU copies each into an operand latch.  These tests pin that the
shortcuts change nothing observable: the traced and untraced runs are
identical, fused and unfused runs leave the same bits, busy time and
clock, a hang still strands at the next API boundary, CB lookups fail the
same way, the packer's bits are ``f32_to_bits``'s (BF16) and the
copy-then-op rule's (FP32), and the host cost per simulated event and
per FPU op stays bounded.
"""

import operator

import sys

import numpy as np
import pytest

from repro.analysis.tracing import Tracer
from repro.arch.cb import CircularBuffer
from repro.arch.device import GrayskullDevice
from repro.arch.fpu import Fpu
from repro.arch.sram import Sram
from repro.arch.tensix import COMPUTE, DATA_MOVER_0
import repro.ops.fft as fft
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.dtypes.bf16 import f32_to_bits
from repro.sim import SimulationError, Simulator
from repro.ttmetal import (CreateCircularBuffer, CreateKernel,
                           EnqueueProgram, EnqueueWriteBuffer, Finish,
                           Program, create_buffer)
from repro.ttmetal.host import DeviceHangError
from repro.ttmetal.kernel_api import KernelError

SLOTS = ("dm0", "compute", "dm1")


def _problem():
    return LaplaceProblem(nx=64, ny=32, left=1.0, right=-0.5, top=0.25,
                          bottom=0.75, initial=0.0)


def _enqueue_jacobi(device, iterations=2):
    """Enqueue (not run) a 2x2-core optimised Jacobi launch, unlinted."""
    runner = OptimizedJacobiRunner(device, _problem(), cores_y=2, cores_x=2)
    img = runner.layout.pack(None)
    mk = dict(interleaved=True, page_size=runner.config.page_size)
    d1 = create_buffer(device, runner.layout.nbytes, **mk)
    d2 = create_buffer(device, runner.layout.nbytes, **mk)
    EnqueueWriteBuffer(device, d1, img)
    EnqueueWriteBuffer(device, d2, img)
    EnqueueProgram(device, runner.build_program(iterations, d1, d2),
                   lint="off")
    return runner


def _new_device():
    return GrayskullDevice(dram_bank_capacity=1 << 20)


def _slot_times(device):
    return {(core.coord, slot): (core.busy_time[slot], core.stall_time[slot])
            for core in device.workers for slot in SLOTS}


class TestTracerIsObservationOnly:
    def test_traced_and_untraced_launches_are_identical(self):
        runs = []
        for traced in (False, True):
            dev = _new_device()
            if traced:
                dev.tracer = Tracer()
            runner = OptimizedJacobiRunner(dev, _problem(),
                                           cores_y=2, cores_x=2)
            result = runner.run(2)
            runs.append((dev.sim.events_processed, dev.sim.now,
                         _slot_times(dev), result.grid_bits.tobytes()))
            if traced:
                assert dev.tracer.events, "the tracer recorded nothing"
        assert runs[0] == runs[1]


class TestHangInsideFusedRegion:
    def _fused_interval(self):
        """A compute busy interval of core (0, 0) booked by one fused
        flush (longer than any single op), from a traced run."""
        dev = _new_device()
        dev.tracer = Tracer()
        _enqueue_jacobi(dev)
        Finish(dev)
        one_op = max(dev.costs.fpu_op, dev.costs.cb_op)
        spans = [(e.t_start, e.t_end) for e in dev.tracer.events
                 if e.core == (0, 0) and e.slot == COMPUTE
                 and e.kind == "busy" and e.duration > 2 * one_op]
        assert spans, "no fused compute interval to aim at"
        return spans[len(spans) // 2]

    def test_hang_strands_at_the_next_api_boundary(self):
        t0, t1 = self._fused_interval()
        dev = _new_device()
        _enqueue_jacobi(dev)
        core = dev.core(0, 0)
        # Lands while the compute kernel's fused charges are in flight.
        dev.sim.timeout((t0 + t1) / 2 - dev.sim.now).add_callback(
            lambda _e: core.inject_hang(COMPUTE))
        with pytest.raises(DeviceHangError) as exc_info:
            Finish(dev, timeout_s=1e-3)
        compute = [s for s in exc_info.value.stalls
                   if s.core == (0, 0) and s.slot == COMPUTE]
        assert len(compute) == 1
        assert "hang-injected" in compute[0].waiting_on
        # The region's charges were paid in full before the gate.
        assert compute[0].since_s == t1
        assert "(0, 0)" in str(exc_info.value)


def _launch(device, cb_ids, touched):
    """Run one kernel that reserves and pushes a page of CB ``touched``."""
    prog = Program(device)
    core = device.core(0, 0)
    for cb_id in cb_ids:
        CreateCircularBuffer(prog, core, cb_id, 64, 2)

    def kernel(ctx):
        yield from ctx.cb_reserve_back(touched, 1)
        yield from ctx.cb_push_back(touched, 1)

    CreateKernel(prog, kernel, core, DATA_MOVER_0)
    EnqueueProgram(device, prog, lint="off")
    return Finish(device)


def _kernel_error(device, cb_ids, touched):
    with pytest.raises(SimulationError) as exc_info:
        _launch(device, cb_ids, touched)
    cause = exc_info.value.__cause__
    assert isinstance(cause, KernelError)
    return str(cause)


class TestMissingCb:
    def test_error_lists_configured_cbs(self, device):
        msg = _kernel_error(device, (3, 0), 7)
        assert msg == "core (0, 0) has no CB 7 (configured: [0, 3])"

    def test_relaunch_sees_the_new_programs_cbs(self, device):
        assert _launch(device, (3, 0), 3) > 0
        device.release_launch_state()
        msg = _kernel_error(device, (5,), 3)
        assert msg == "core (0, 0) has no CB 3 (configured: [5])"


class TestFusedRegionContract:
    def test_time_passing_inside_a_region_is_an_error(self, device):
        def kernel(ctx):
            ctx.fused_begin()
            yield from ctx.tile_regs_acquire()
            yield ctx.sim.timeout(1e-6)   # not an API op: time passes
            yield from ctx.fused_end()

        prog = Program(device)
        CreateKernel(prog, kernel, device.core(0, 0), COMPUTE)
        EnqueueProgram(device, prog, lint="off")
        with pytest.raises(SimulationError) as exc_info:
            Finish(device)
        assert isinstance(exc_info.value.__cause__, KernelError)
        assert "inside a fused region" in str(exc_info.value.__cause__)


def _bf16_edge_values(n):
    """float32 words covering the rounding rule's corners, cycled to n."""
    words = np.array([
        0x00000000, 0x80000000,                          # +0, -0
        0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,  # subnormals
        0x00008000, 0x00018000, 0x3F808000, 0x3F818000,  # RNE ties
        0x3F807FFF, 0x3F808001, 0x7F7FFFFF, 0xFF7FFFFF,  # near, max
        0x7F800000, 0xFF800000,                          # +-inf
        0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC00002,  # quiet NaNs
        0x7F800001, 0xFF812345, 0x7FFFFFFF, 0xFFFFFFFF,  # payload NaNs
        0x3F800000, 0xC0490FDB, 0x3EAAAAAB, 0x42F6E979,
    ], dtype=np.uint32)
    rng = np.random.default_rng(7)
    tail = rng.integers(0, 2**32, size=max(n - words.size, 0),
                        dtype=np.uint32)
    return np.concatenate([words, tail])[:n].view(np.float32)


class TestPackTileBits:
    @pytest.mark.parametrize("n", [32, 1024])
    def test_pack_matches_f32_to_bits(self, n):
        sim = Simulator()
        cb = CircularBuffer(sim, Sram(), 16, page_size=2 * n, n_pages=2)
        assert cb.try_reserve(1)
        fpu = Fpu()
        fpu.acquire_dst()
        values = _bf16_edge_values(n)
        fpu._dst[0] = values.copy()
        fpu.pack_tile(0, cb)
        expected = f32_to_bits(values)
        assert np.array_equal(cb.back_page(0), expected)
        assert np.array_equal(f32_to_bits(values, out=np.empty(
            n, dtype=np.uint16)), expected)


#: float32 words of every FP32 class the FPU path must carry bit for bit
_FP32_EDGES = np.array([
    0x00000000, 0x80000000,                          # +0, -0
    0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,  # subnormals
    0x7F800000, 0xFF800000,                          # +-inf
    0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFFC00002,  # quiet NaNs
    0x7F800001, 0xFF800001, 0x7FA00000, 0xFF812345,  # signalling NaNs
    0x3F800000, 0xBF800000, 0x7F7FFFFF, 0x00800000,  # normals
], dtype=np.uint32)


def _edge_pairs(n):
    """(a, b) float32 words: every ordered pair of edge classes, cycled
    to ``n`` lanes, so each pair meets in many lane positions."""
    k = _FP32_EDGES.size
    idx = np.arange(n)
    return _FP32_EDGES[idx % k], _FP32_EDGES[(idx // k + idx) % k]


def _copy_then_op(a_bits, b_bits, op):
    """The FP32 rule before pages were one word slice: each page copied
    as 32-bit words and viewed as float32, the op, and the register's
    words stored unchanged."""
    with np.errstate(all="ignore"):
        reg = op(a_bits.copy().view(np.float32), b_bits.copy().view(np.float32))
    return np.ascontiguousarray(reg, dtype=np.float32).ravel().view(np.uint32)


class TestFp32PageBits:
    OPS = {"add": (operator.add, Fpu.add_tiles),
           "sub": (operator.sub, Fpu.sub_tiles),
           "mul": (operator.mul, Fpu.mul_tiles)}

    def _rig(self, n):
        sim = Simulator()
        sram = Sram()
        cbs = [CircularBuffer(sim, sram, i, page_size=4 * n, n_pages=1,
                              dtype="fp32") for i in range(3)]
        slab = sram.allocate(3 * 4 * n, align=32)
        return sram, cbs, slab

    @pytest.mark.parametrize("n", [2, 7, 400])
    @pytest.mark.parametrize("name", sorted(OPS))
    @pytest.mark.parametrize("in_place", [False, True])
    def test_unpack_op_pack_matches_copy_then_op(self, n, name, in_place):
        ref_op, fpu_op = self.OPS[name]
        sram, (cb_a, cb_b, cb_o), slab = self._rig(n)
        a_bits, b_bits = _edge_pairs(n)
        a_addr, b_addr = slab, slab + 4 * n
        sram.view_u32(a_addr, n)[:] = a_bits
        sram.view_u32(b_addr, n)[:] = b_bits
        cb_a.set_rd_ptr(a_addr)
        cb_b.set_rd_ptr(b_addr)
        # in place: the output page is input a's page, as with FFT's xr1
        out_addr = a_addr if in_place else slab + 8 * n
        cb_o.set_wr_ptr(out_addr)
        fpu = Fpu()
        fpu.acquire_dst()
        with np.errstate(all="ignore"):
            fpu_op(fpu, cb_a, cb_b, 0, 0, 0)
        fpu.pack_tile(0, cb_o)
        # each operand is a fresh copy, never a view of L1
        assert not np.shares_memory(fpu._unpack(cb_a, 0), sram.mem)
        want = _copy_then_op(a_bits, b_bits, ref_op)
        got = sram.view_u32(out_addr, n)
        assert got.tobytes() == want.tobytes()
        if not in_place:   # the inputs are untouched
            assert sram.view_u32(a_addr, n).tobytes() == a_bits.tobytes()

    def test_copy_tile_and_pack_carry_every_payload(self):
        """A register copied from an FP32 page packs back bit for bit:
        no quieting of signalling NaNs, no flush of subnormals."""
        n = _FP32_EDGES.size
        sram, (cb_a, _b, cb_o), slab = self._rig(n)
        sram.view_u32(slab, n)[:] = _FP32_EDGES
        cb_a.set_rd_ptr(slab)
        cb_o.set_wr_ptr(slab + 4 * n)
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.copy_tile(cb_a, 0, 0)
        fpu.pack_tile(0, cb_o)
        assert sram.view_u32(slab + 4 * n, n).tobytes() == \
            _FP32_EDGES.tobytes()

    def test_bf16_latch_low_halves_stay_zero(self):
        """An FP32 unpack does not dirty the BF16 operand latches."""
        sim = Simulator()
        sram = Sram()
        wide = CircularBuffer(sim, sram, 0, page_size=64, n_pages=1,
                              dtype="fp32")
        narrow = CircularBuffer(sim, sram, 1, page_size=32, n_pages=1)
        wide.set_rd_ptr(sram.allocate(64, align=32))
        wide.front_page()[:] = np.float32(3.0)
        narrow.set_rd_ptr(sram.allocate(32, align=32))
        narrow.front_page()[:] = f32_to_bits(np.float32(1.5))
        fpu = Fpu()
        fpu.acquire_dst()
        fpu.add_tiles(wide, wide, 0, 0, 0)
        fpu.add_tiles(narrow, narrow, 0, 0, 1)
        assert np.all(fpu.dst_value_f32(0) == 6.0)
        assert np.all(fpu.dst_value_f32(1) == 3.0)
        latches = [latch for by_len in fpu._operands
                   for latch in by_len.values()]
        assert latches
        for _high, f32 in latches:
            assert not np.any(f32.view(np.uint32) & 0xFFFF)


def _op_sequence_launch(fused):
    """One compute kernel running a mixed op sequence on FP32 and BF16
    CBs, with or without a fused region around it."""
    device = _new_device()
    core = device.core(0, 0)
    prog = Program(device)
    n = 8
    CreateCircularBuffer(prog, core, 0, 4 * n, 1, dtype="fp32")
    CreateCircularBuffer(prog, core, 1, 4 * n, 1, dtype="fp32")
    CreateCircularBuffer(prog, core, 2, 4 * n, 1, dtype="fp32")
    CreateCircularBuffer(prog, core, 3, 2 * n, 2)    # BF16 self-loop
    slab = core.allocate_l1(4 * 4 * n, align=32)
    words = np.concatenate(_edge_pairs(2 * n))
    core.sram.view_u32(slab, words.size)[:] = words

    def kernel(ctx):
        yield from ctx.tile_regs_acquire()
        if fused:
            ctx.fused_begin()
        for k in range(3):
            a, b = slab + (k % 2) * 4 * n, slab + 4 * 4 * n - 4 * n
            yield from ctx.cb_set_rd_ptrs((0, a), (1, b))
            yield from ctx.mul_tiles(0, 1, 0, 0, 0)
            yield from ctx.cb_set_wr_ptr(2, a)          # in place
            yield from ctx.pack_tile(0, 2)
            yield from ctx.cb_set_rd_ptr(0, a)
            yield from ctx.sub_tiles(0, 1, 0, 0, 1)
            yield from ctx.cb_reserve_back(3, 1)
            yield from ctx.pack_tile(1, 3)
            yield from ctx.cb_push_back(3, 1)
            yield from ctx.cb_wait_front(3, 1)
            yield from ctx.add_tiles(3, 3, 0, 0, 0)
            yield from ctx.cb_pop_front(3, 1)
            yield from ctx.cb_set_wr_ptr(2, b)
            yield from ctx.pack_tile(0, 2)
        yield from ctx.fused_end()
        yield from ctx.tile_regs_release()

    CreateKernel(prog, kernel, core, COMPUTE)
    EnqueueProgram(device, prog, lint="off")
    with np.errstate(all="ignore"):
        Finish(device)
    return (core.sram.mem.tobytes(), core.busy_time[COMPUTE],
            device.sim.now, device.sim.events_processed)


class TestFusedMatchesUnfused:
    def test_same_bits_busy_time_and_clock(self):
        fused = _op_sequence_launch(True)
        unfused = _op_sequence_launch(False)
        assert fused[:3] == unfused[:3]
        assert fused[3] < unfused[3]   # the region coalesced the charges

    def test_busy_time_is_every_charge_in_program_order(self):
        """Each op books its calibrated charge once, ``cb_set_rd_ptrs``
        once per pointer, as sequential additions."""
        costs = _new_device().core(0, 0).costs
        cb, fpu = costs.cb_op, costs.fpu_op
        row = [cb, cb, fpu, cb, fpu, cb, fpu, cb, fpu, cb, cb, fpu, cb,
               cb, fpu]
        want = 0.0
        for charge in [cb] + row * 3 + [cb]:
            want += charge
        assert _op_sequence_launch(True)[1] == want
        assert _op_sequence_launch(False)[1] == want


class TestCallBudget:
    """Host cost per simulated event on the optimised Jacobi hot path.

    Counts every Python-visible call (Python frames, generator resumes
    and C builtins) that ``sys.setprofile`` reports while ``Finish``
    runs one small launch.  Measured at 18.3 calls per event with
    CPython 3.11 and NumPy 2.4 (28.9 before the hot path was flattened,
    17.2 before fused ops became plain calls: an unfused op now pays one
    plain frame besides the generator that waits out its charge, and
    push/pop and ``cb_set_rd_ptrs`` one more for the shared ``_op``
    helper); the bound leaves about 1 % for other NumPy releases.
    """

    BUDGET = 18.5

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="call counts are calibrated on CPython 3.11")
    def test_calls_per_event_within_budget(self, device):
        _enqueue_jacobi(device)
        events0 = device.sim.events_processed
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        sys.setprofile(count)
        try:
            Finish(device)
        finally:
            sys.setprofile(None)
        events = device.sim.events_processed - events0
        assert events == 3992
        assert calls / events <= self.BUDGET

    #: calls per FPU op on the FFT below: 36.2 with CPython 3.11 and
    #: NumPy 2.4 (52.7 before fused ops became plain calls on one
    #: word-slice page view)
    FFT_BUDGET = 42

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="call counts are calibrated on CPython 3.11")
    def test_fft_calls_per_fpu_op_within_budget(self, monkeypatch):
        """A 64-point pencil FFT on 2x4 cores: every Python-visible call
        while ``Finish`` runs it, per FPU tile op."""
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        finish = fft.Finish

        def counted_finish(device, *args, **kwargs):
            sys.setprofile(count)
            try:
                return finish(device, *args, **kwargs)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(fft, "Finish", counted_finish)
        res = fft.run_fft(fft.FftProblem(64, 16), cores=(2, 4))
        assert res.fpu_ops == 15360
        assert calls / res.fpu_ops <= self.FFT_BUDGET
