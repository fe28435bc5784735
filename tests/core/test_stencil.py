"""Generic-stencil extension tests (the paper's advection future work)."""

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.stencil import (
    StencilRunner,
    StencilSpec,
    stencil_solve_bf16,
    stencil_step_bf16,
)
from repro.dtypes.bf16 import bits_to_f32


class TestStencilSpec:
    def test_jacobi_spec(self):
        s = StencilSpec.jacobi()
        assert s.center == 0.0
        assert s.west == s.east == s.north == s.south == 0.25
        assert len(s.active_terms()) == 4
        assert s.max_principle_holds()

    def test_diffusion_spec(self):
        s = StencilSpec.diffusion(0.25)
        assert s.center == 0.0
        assert s.max_principle_holds()
        with pytest.raises(ValueError):
            StencilSpec.diffusion(0.3)

    def test_advection_spec(self):
        s = StencilSpec.advection_upwind(0.4, 0.25)
        assert s.east == s.south == 0.0
        assert len(s.active_terms()) == 3
        assert s.max_principle_holds()
        with pytest.raises(ValueError):
            StencilSpec.advection_upwind(0.8, 0.5)
        with pytest.raises(ValueError):
            StencilSpec.advection_upwind(-0.1, 0.0)

    def test_advection_coefficients_sum_to_at_most_one(self):
        """The centre is derived from the rounded Courant numbers,
        rounded toward zero."""
        for cu, cv in [(0.510223503631465, 0.08247816318433386),
                       (0.5, 0.1), (0.3, 0.7), (0.0, 0.0), (1e-40, 0.3)]:
            s = StencilSpec.advection_upwind(cu, cv)
            total = sum(map(Fraction, (s.center, s.west, s.north)))
            assert total <= 1, (cu, cv)
            assert s.center >= 0
        s = StencilSpec.advection_upwind(0.510223503631465,
                                         0.08247816318433386)
        assert (s.center, s.west, s.north) == (0.404296875, 0.51171875,
                                               0.08251953125)

    def test_coefficients_bf16_rounded(self):
        s = StencilSpec(center=0.1, west=0, east=0, north=0, south=0)
        # 0.1 is not BF16-representable; the spec stores the rounded value
        assert s.center != 0.1
        assert abs(s.center - 0.1) < 0.1 * 2 ** -8

    def test_empty_spec_rejected_by_runner(self, device):
        spec = StencilSpec(0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="no non-zero"):
            StencilRunner(device, LaplaceProblem(nx=32, ny=8), spec)


class TestReference:
    def test_jacobi_spec_close_to_listing2_kernel(self):
        """Same maths, different rounding chain: close, not bit-equal."""
        from repro.cpu.jacobi import jacobi_solve_bf16
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        a = bits_to_f32(stencil_solve_bf16(
            p.initial_grid_bf16(), StencilSpec.jacobi(), 5))
        b = bits_to_f32(jacobi_solve_bf16(p.initial_grid_bf16(), 5))
        assert np.abs(a - b).max() < 0.01

    def test_identity_spec(self):
        p = LaplaceProblem(nx=32, ny=8, left=1.0, initial=0.5)
        spec = StencilSpec(center=1.0, west=0, east=0, north=0, south=0)
        out = stencil_step_bf16(p.initial_grid_bf16(), spec)
        assert np.array_equal(out, p.initial_grid_bf16())

    def test_advection_transports_leftward_boundary(self):
        """Upwind advection with +x flow carries the left boundary right."""
        p = LaplaceProblem(nx=32, ny=8, left=1.0, initial=0.0)
        spec = StencilSpec.advection_upwind(0.5, 0.0)
        bits = stencil_solve_bf16(p.initial_grid_bf16(), spec, 20)
        vals = bits_to_f32(bits)
        row = vals[4, 1:-1]
        assert row[0] > 0.9          # near the inflow: saturated
        assert row[5] > row[20]      # monotone front
        assert row[-1] < 0.05        # front has not reached the far side

    def test_boundaries_untouched(self):
        p = LaplaceProblem(nx=32, ny=8, left=1.0)
        spec = StencilSpec.diffusion(0.2)
        out = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3)
        assert np.array_equal(out[:, 0], p.initial_grid_bf16()[:, 0])


class TestDeviceExecution:
    @pytest.mark.parametrize("spec_name,args", [
        ("jacobi", ()), ("diffusion", (0.2,)),
        ("advection_upwind", (0.3, 0.2)),
    ])
    def test_device_matches_reference(self, device_factory, spec_name, args):
        spec = getattr(StencilSpec, spec_name)(*args)
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        res = StencilRunner(device_factory(), p, spec).run(4)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 4)
        assert np.array_equal(res.grid_bits, want)

    def test_multicore(self, device_factory):
        spec = StencilSpec.advection_upwind(0.4, 0.1)
        p = LaplaceProblem(nx=64, ny=16, left=1.0)
        res = StencilRunner(device_factory(), p, spec,
                            cores_y=2, cores_x=2).run(3)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3)
        assert np.array_equal(res.grid_bits, want)

    def test_multi_chunk_columns(self, device_factory):
        spec = StencilSpec.diffusion(0.25)
        p = LaplaceProblem(nx=64, ny=8)
        res = StencilRunner(device_factory(), p, spec, chunk=32).run(2)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 2)
        assert np.array_equal(res.grid_bits, want)

    def test_fewer_terms_is_faster(self, device_factory):
        """Advection (3 terms) beats Jacobi (4 terms) per point."""
        p = LaplaceProblem(nx=64, ny=32)
        t3 = StencilRunner(device_factory(), p,
                           StencilSpec.advection_upwind(0.3, 0.2)).run(
            50, sim_iterations=2, read_back=False)
        t5 = StencilRunner(device_factory(), p,
                           StencilSpec.diffusion(0.2)).run(
            50, sim_iterations=2, read_back=False)
        assert t3.kernel_time_s < t5.kernel_time_s


@settings(max_examples=25, deadline=None)
@given(cu=st.floats(0.0, 0.6), cv=st.floats(0.0, 0.4),
       iters=st.integers(0, 15))
# Rounded to nearest independently, these coefficients summed to 1.00244
# and the maximum reached 1.015625.
@example(cu=0.510223503631465, cv=0.08247816318433386, iters=11)
def test_advection_max_principle(cu, cv, iters):
    """Upwind advection is monotone: values stay within initial extrema."""
    p = LaplaceProblem(nx=16, ny=8, left=1.0, initial=0.25)
    spec = StencilSpec.advection_upwind(cu, cv)
    vals = bits_to_f32(stencil_solve_bf16(p.initial_grid_bf16(), spec, iters))
    slack = 2 ** -7
    assert vals.min() >= 0.0 - slack
    assert vals.max() <= 1.0 + slack


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.01, 0.25), iters=st.integers(0, 10))
def test_diffusion_max_principle(alpha, iters):
    p = LaplaceProblem(nx=16, ny=8, left=1.0, bottom=-0.5, initial=0.0)
    spec = StencilSpec.diffusion(alpha)
    vals = bits_to_f32(stencil_solve_bf16(p.initial_grid_bf16(), spec, iters))
    slack = 2 ** -6
    assert vals.min() >= -0.5 - slack
    assert vals.max() <= 1.0 + slack


class TestRhsField:
    def test_reference_rhs_addition(self, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=16, ny=8, initial=0.0, left=0.0)
        rhs = f32_to_bits(np.full((8, 16), 0.5, dtype=np.float32))
        spec = StencilSpec(center=0.0, west=0, east=0, north=0, south=0.25)
        out = stencil_step_bf16(p.initial_grid_bf16(), spec, rhs_bits=rhs)
        # all-zero field: out = 0.25*0 + rhs = 0.5 everywhere
        assert np.all(bits_to_f32(out)[1:-1, 1:-1] == 0.5)

    def test_rhs_shape_checked(self):
        p = LaplaceProblem(nx=16, ny=8)
        with pytest.raises(ValueError, match="interior shape"):
            stencil_step_bf16(p.initial_grid_bf16(), StencilSpec.jacobi(),
                              rhs_bits=np.zeros((4, 4), dtype=np.uint16))

    def test_device_rhs_bit_exact(self, device_factory, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=16, left=1.0)
        rhs = f32_to_bits(rng.normal(scale=0.1,
                                     size=(16, 32)).astype(np.float32))
        spec = StencilSpec.jacobi()
        res = StencilRunner(device_factory(), p, spec).run(4, rhs=rhs)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 4,
                                  rhs_bits=rhs)
        assert np.array_equal(res.grid_bits, want)

    def test_device_rhs_multicore_multicolumn(self, device_factory, rng):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=64, ny=16)
        rhs = f32_to_bits(rng.normal(scale=0.1,
                                     size=(16, 64)).astype(np.float32))
        spec = StencilSpec.diffusion(0.2)
        res = StencilRunner(device_factory(), p, spec, cores_y=2,
                            chunk=32).run(3, rhs=rhs)
        want = stencil_solve_bf16(p.initial_grid_bf16(), spec, 3,
                                  rhs_bits=rhs)
        assert np.array_equal(res.grid_bits, want)

    def test_runner_rejects_bad_rhs_shape(self, device_factory):
        p = LaplaceProblem(nx=32, ny=16)
        with pytest.raises(ValueError, match="rhs must be"):
            StencilRunner(device_factory(), p, StencilSpec.jacobi()).run(
                2, rhs=np.zeros((4, 4), dtype=np.uint16))

    def test_custom_initial_grid(self, device_factory):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=16, initial=0.0)
        grid = p.initial_grid_bf16()
        grid[5, 10] = f32_to_bits(np.float32(3.0))
        spec = StencilSpec.diffusion(0.25)
        res = StencilRunner(device_factory(), p, spec).run(
            2, initial_grid=grid)
        want = stencil_solve_bf16(grid, spec, 2)
        assert np.array_equal(res.grid_bits, want)
