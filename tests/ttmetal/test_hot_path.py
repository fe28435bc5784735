"""Guards for the flattened device hot path.

Kernel-API ops charge busy time through one plain method
(``_CtxBase._charge``) and fall back to a generator only for a hung slot
or an attached tracer; CB handshakes and the FPU pack path take direct
shortcuts.  These tests pin that the shortcuts change nothing observable:
the traced and untraced runs are identical, a hang still strands at the
next API boundary, CB lookups fail the same way, the packer's bits are
``f32_to_bits``'s, and the host cost per simulated event stays bounded.
"""

import sys

import numpy as np
import pytest

from repro.analysis.tracing import Tracer
from repro.arch.cb import CircularBuffer
from repro.arch.device import GrayskullDevice
from repro.arch.fpu import Fpu
from repro.arch.sram import Sram
from repro.arch.tensix import COMPUTE, DATA_MOVER_0
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
        assert np.array_equal(cb.back_view_u16(0), expected)
        assert np.array_equal(f32_to_bits(values, out=np.empty(
            n, dtype=np.uint16)), expected)


class TestCallBudget:
    """Host cost per simulated event on the optimised Jacobi hot path.

    Counts every Python-visible call (Python frames, generator resumes
    and C builtins) that ``sys.setprofile`` reports while ``Finish``
    runs one small launch.  Measured at 17.2 calls per event with
    CPython 3.11 and NumPy 2.4 (28.9 before the hot path was flattened);
    the bound leaves about 7 % for other NumPy releases.
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
