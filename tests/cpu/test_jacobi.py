"""Reference-solver tests: correctness, convergence, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import LaplaceProblem
from repro.cpu.jacobi import (
    jacobi_solve_bf16,
    jacobi_solve_f32,
    jacobi_step_bf16,
    jacobi_step_f32,
    residual_f32,
    solve_direct,
)
from repro.dtypes.bf16 import bits_to_f32, f32_to_bits


class TestF32Step:
    def test_single_point(self):
        u = np.zeros((3, 3), dtype=np.float32)
        u[1, 0], u[1, 2], u[0, 1], u[2, 1] = 1.0, 2.0, 3.0, 4.0
        out = jacobi_step_f32(u)
        assert out[1, 1] == pytest.approx(2.5)

    def test_boundaries_untouched(self, problem_64):
        u = problem_64.initial_grid_f32()
        out = jacobi_solve_f32(u, 5)
        assert np.array_equal(out[:, 0], u[:, 0])
        assert np.array_equal(out[:, -1], u[:, -1])
        assert np.array_equal(out[0, :], u[0, :])
        assert np.array_equal(out[-1, :], u[-1, :])

    def test_zero_iterations_identity(self, problem_64):
        u = problem_64.initial_grid_f32()
        assert np.array_equal(jacobi_solve_f32(u, 0), u)

    def test_negative_iterations_rejected(self, problem_64):
        with pytest.raises(ValueError):
            jacobi_solve_f32(problem_64.initial_grid_f32(), -1)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            jacobi_step_f32(np.zeros((2, 2), dtype=np.float32))

    def test_bf16_tiny_grid_rejected_at_any_iteration_count(self):
        for iterations in (0, 1):
            with pytest.raises(ValueError, match="halo grid"):
                jacobi_solve_bf16(np.zeros((2, 5), dtype=np.uint16),
                                  iterations)

    def test_matches_scalar_listing1(self, rng):
        """The vectorised sweep equals the paper's Listing-1 scalar loop."""
        u = rng.normal(size=(10, 12)).astype(np.float32)
        unew = u.copy()
        for j in range(1, 9):
            for i in range(1, 11):
                # same association order as the vectorised sweep
                # (float addition is not associative)
                s = ((u[j, i - 1] + u[j, i + 1]) + u[j - 1, i]) + u[j + 1, i]
                unew[j, i] = np.float32(0.25) * s
        assert np.array_equal(jacobi_step_f32(u), unew)

    def test_converges_to_direct_solution(self):
        problem = LaplaceProblem(nx=16, ny=16, left=1.0)
        u = problem.initial_grid_f32()
        exact = solve_direct(u)
        u = jacobi_solve_f32(u, 3000)
        assert np.abs(u[1:-1, 1:-1]
                      - exact[1:-1, 1:-1].astype(np.float32)).max() < 1e-4

    def test_residual_decreases(self, problem_64):
        u = problem_64.initial_grid_f32()
        r0 = residual_f32(jacobi_solve_f32(u, 10))
        r1 = residual_f32(jacobi_solve_f32(u, 200))
        assert r1 < r0


class TestBF16Step:
    def test_rounding_points_match_listing2(self):
        """One cell, hand-computed through the four pack roundings."""
        from repro.dtypes.bf16 import bf16_add, bf16_mul
        u = np.zeros((3, 3), dtype=np.float32)
        u[1, 0], u[1, 2], u[0, 1], u[2, 1] = 1.01, 2.02, 3.03, 4.04
        bits = f32_to_bits(u)
        out = jacobi_step_bf16(bits)
        t = bf16_add(bits[1:2, 0:1], bits[1:2, 2:3])
        t = bf16_add(bits[0:1, 1:2], t)
        t = bf16_add(bits[2:3, 1:2], t)
        t = bf16_mul(f32_to_bits(np.float32(0.25)).reshape(1, 1), t)
        assert out[1, 1] == t[0, 0]

    def test_close_to_f32(self, problem_64):
        bits = problem_64.initial_grid_bf16()
        f32 = problem_64.initial_grid_f32()
        b_out = bits_to_f32(jacobi_solve_bf16(bits, 50))
        f_out = jacobi_solve_f32(f32, 50)
        # BF16 has ~2-3 decimal digits; fields stay within a few ULP drift
        assert np.abs(b_out - f_out).max() < 0.02

    def test_boundaries_untouched(self, problem_64):
        bits = problem_64.initial_grid_bf16()
        out = jacobi_solve_bf16(bits, 3)
        assert np.array_equal(out[:, 0], bits[:, 0])
        assert np.array_equal(out[0, :], bits[0, :])

    def test_deterministic(self, problem_64):
        bits = problem_64.initial_grid_bf16()
        a = jacobi_solve_bf16(bits, 7)
        b = jacobi_solve_bf16(bits, 7)
        assert np.array_equal(a, b)


class TestDirectSolve:
    def test_satisfies_discrete_laplace(self):
        problem = LaplaceProblem(nx=8, ny=6, left=2.0, top=1.0)
        u = solve_direct(problem.initial_grid_f32())
        interior = u[1:-1, 1:-1]
        avg = 0.25 * (u[1:-1, :-2] + u[1:-1, 2:] + u[:-2, 1:-1] + u[2:, 1:-1])
        assert np.abs(interior - avg).max() < 1e-10

    def test_constant_boundary_constant_solution(self):
        problem = LaplaceProblem(nx=8, ny=8, left=3.0, right=3.0,
                                 top=3.0, bottom=3.0, initial=0.0)
        u = solve_direct(problem.initial_grid_f32())
        assert np.abs(u[1:-1, 1:-1] - 3.0).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(left=st.floats(-10, 10), right=st.floats(-10, 10),
       top=st.floats(-10, 10), bottom=st.floats(-10, 10),
       initial=st.floats(-10, 10), iters=st.integers(0, 30))
def test_maximum_principle_f32(left, right, top, bottom, initial, iters):
    """Every Jacobi iterate stays within the boundary/initial extrema."""
    problem = LaplaceProblem(nx=8, ny=8, left=left, right=right, top=top,
                             bottom=bottom, initial=initial)
    lo, hi = problem.boundary_extrema()
    u = jacobi_solve_f32(problem.initial_grid_f32(), iters)
    eps = 1e-5 * max(1.0, abs(lo), abs(hi))
    assert u.min() >= lo - eps
    assert u.max() <= hi + eps


@settings(max_examples=25, deadline=None)
@given(left=st.floats(-10, 10), initial=st.floats(-10, 10),
       iters=st.integers(0, 20))
def test_maximum_principle_bf16(left, initial, iters):
    """The BF16 sweep also respects the maximum principle (up to rounding)."""
    problem = LaplaceProblem(nx=8, ny=8, left=left, initial=initial)
    lo, hi = problem.boundary_extrema()
    bits = jacobi_solve_bf16(problem.initial_grid_bf16(), iters)
    vals = bits_to_f32(bits)
    slack = 2 ** -7 * max(1.0, abs(lo), abs(hi))
    assert vals.min() >= lo - slack
    assert vals.max() <= hi + slack


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 999))
def test_linearity_f32(seed):
    """Jacobi is linear: step(a·u) == a·step(u) (exact for powers of two)."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(8, 8)).astype(np.float32)
    a = np.float32(2.0)
    assert np.array_equal(jacobi_step_f32(a * u), a * jacobi_step_f32(u))
