"""Multi-card DES integration: two cards, real kernels, combined answer.

The Tier-2 model handles Table VIII's multi-card rows; this test drives
the *actual kernels* on two cards (each a full :class:`GrayskullDevice`
DES with its own clock) and checks the stitched result equals the functional multi-card
reference — stale inter-card halos and all.
"""

import numpy as np
import pytest

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_optimized import OptimizedJacobiRunner
from repro.core.multicore import run_multicard_functional
from repro.cpu.jacobi import jacobi_solve_bf16


def _run_two_card_jacobi(problem: LaplaceProblem, iterations: int):
    """Split the domain in Y across two cards; no inter-card halos.

    Each card solves its block with frozen cut halos — exactly the
    paper's multi-card setup — using ``initial_grid`` to hand the card
    its slice of the global state.
    """
    cards = [GrayskullDevice(dram_bank_capacity=1 << 20, device_id=i)
             for i in range(2)]
    half = problem.ny // 2
    grid = problem.initial_grid_bf16()
    outputs = []
    for i, card in enumerate(cards):
        block = grid[i * half:(i + 1) * half + 2, :]
        sub = LaplaceProblem(nx=problem.nx, ny=half)
        res = OptimizedJacobiRunner(card, sub).run(
            iterations, initial_grid=block)
        outputs.append(res.grid_bits)
    stitched = grid.copy()
    for i, out in enumerate(outputs):
        stitched[i * half + 1:(i + 1) * half + 1, 1:-1] = out[1:-1, 1:-1]
    return cards, stitched


class TestTwoCardDes:
    def test_matches_functional_multicard_reference(self):
        problem = LaplaceProblem(nx=32, ny=16, top=1.0)
        iterations = 6
        _, stitched = _run_two_card_jacobi(problem, iterations)
        want = run_multicard_functional(problem.initial_grid_bf16(),
                                        iterations, 2)
        assert np.array_equal(stitched, want)

    def test_deviates_from_single_card_truth(self):
        """...and, like the paper's runs, it is NOT the true answer."""
        problem = LaplaceProblem(nx=32, ny=16, top=1.0)
        iterations = 10
        _, stitched = _run_two_card_jacobi(problem, iterations)
        truth = jacobi_solve_bf16(problem.initial_grid_bf16(), iterations)
        assert not np.array_equal(stitched, truth)

    def test_cluster_accounting(self):
        problem = LaplaceProblem(nx=32, ny=16)
        cards, _ = _run_two_card_jacobi(problem, 4)
        assert cards[0].sim is not cards[1].sim
        assert all(card.sim.now > 0 for card in cards)
        assert all(card.energy.energy_j > 0 for card in cards)


class TestInitialGridApi:
    def test_optimized_runner_custom_state(self, device_factory):
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=8, initial=0.0)
        grid = p.initial_grid_bf16()
        grid[3, 7] = f32_to_bits(np.float32(2.0))
        res = OptimizedJacobiRunner(device_factory(), p).run(
            2, initial_grid=grid)
        want = jacobi_solve_bf16(grid, 2)
        assert np.array_equal(res.grid_bits, want)

    def test_initial_runner_custom_state(self, device_factory):
        from repro.core.jacobi_initial import InitialJacobiRunner
        from repro.dtypes.bf16 import f32_to_bits
        p = LaplaceProblem(nx=32, ny=32, initial=0.0)
        grid = p.initial_grid_bf16()
        grid[10, 10] = f32_to_bits(np.float32(1.5))
        res = InitialJacobiRunner(device_factory(), p).run(
            2, initial_grid=grid)
        want = jacobi_solve_bf16(grid, 2)
        assert np.array_equal(res.grid_bits, want)
