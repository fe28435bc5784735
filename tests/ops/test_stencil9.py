"""9-point stencil: bit-identical across every core decomposition.

The BF16 update chain is purely elementwise, so the readback must be
bit-identical to :func:`stencil9_reference_bits` — and therefore
identical across 1D and 2D decompositions — for any core grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import Stencil9Problem, run_stencil9
from repro.ops.stencil9 import stencil9_reference_bits


class TestProblem:
    def test_nx_must_be_tile_aligned(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            Stencil9Problem(nx=48, ny=8)

    def test_ny_and_iters_must_be_positive(self):
        with pytest.raises(ValueError):
            Stencil9Problem(nx=32, ny=0)
        with pytest.raises(ValueError):
            Stencil9Problem(nx=32, ny=8, iters=0)

    def test_halo_grid_shape_and_seeding(self):
        p = Stencil9Problem(nx=32, ny=8, seed=7)
        g = p.halo_grid_bits()
        assert g.shape == (10, 34) and g.dtype == np.uint16
        assert np.array_equal(g, Stencil9Problem(nx=32, ny=8,
                                                 seed=7).halo_grid_bits())
        other = Stencil9Problem(nx=32, ny=8, seed=8).halo_grid_bits()
        assert not np.array_equal(g, other)

    def test_flops_formula(self):
        assert Stencil9Problem(nx=32, ny=4, iters=3).flops() == \
            9.0 * 32 * 4 * 3


class TestReference:
    def test_boundary_rows_are_untouched(self):
        p = Stencil9Problem(nx=32, ny=8, seed=1)
        g0 = p.halo_grid_bits()
        g1 = stencil9_reference_bits(g0, 3)
        assert np.array_equal(g1[0], g0[0])
        assert np.array_equal(g1[-1], g0[-1])
        assert np.array_equal(g1[:, 0], g0[:, 0])
        assert np.array_equal(g1[:, -1], g0[:, -1])

    @pytest.mark.parametrize("shape", [(2, 34), (10, 2), (1, 1), (34,)])
    def test_rejects_grids_smaller_than_3x3(self, shape):
        with pytest.raises(ValueError, match="halo grid"):
            stencil9_reference_bits(np.zeros(shape, dtype=np.uint16), 1)

    def test_rejects_negative_iters(self):
        g = Stencil9Problem(nx=32, ny=4).halo_grid_bits()
        with pytest.raises(ValueError, match="non-negative"):
            stencil9_reference_bits(g, -1)

    def test_zero_iters_returns_a_copy(self):
        g = Stencil9Problem(nx=32, ny=4).halo_grid_bits()
        out = stencil9_reference_bits(g, 0)
        assert np.array_equal(out, g) and not np.shares_memory(out, g)

    def test_iterations_compose(self):
        p = Stencil9Problem(nx=32, ny=8, seed=2)
        g0 = p.halo_grid_bits()
        assert np.array_equal(
            stencil9_reference_bits(g0, 3),
            stencil9_reference_bits(stencil9_reference_bits(g0, 2), 1))


class TestDeviceDecompositions:
    def test_single_core_bit_exact(self):
        res = run_stencil9(Stencil9Problem(nx=32, ny=8))
        assert res.checked and res.check_detail == "bit-exact"
        assert res.kernel_time_s > 0

    @pytest.mark.parametrize("cores", [(2, 1), (4, 1), (1, 2), (2, 2)])
    def test_1d_and_2d_decompositions_identical(self, cores):
        p = Stencil9Problem(nx=64, ny=8, iters=2, seed=5)
        base = run_stencil9(p, cores=(1, 1))
        res = run_stencil9(p, cores=cores)
        assert res.output_sha == base.output_sha
        assert res.checked

    @settings(max_examples=5, deadline=None)
    @given(ny=st.integers(2, 12), iters=st.integers(1, 3),
           seed=st.integers(0, 50),
           cores=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    def test_any_decomposition_matches_reference(self, ny, iters, seed,
                                                 cores):
        p = Stencil9Problem(nx=64, ny=ny, iters=iters, seed=seed)
        res = run_stencil9(p, cores=cores)   # OpCheckError on drift
        ref = stencil9_reference_bits(p.halo_grid_bits(), iters)
        assert np.array_equal(res.output, ref[1:-1, 1:-1])
