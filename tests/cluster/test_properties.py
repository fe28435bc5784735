"""Property-based decomposition tests: any shape that plans, stitches.

Hypothesis draws random grid sizes x card counts x 1D/2D splits; every
drawn configuration must (a) partition the interior exactly, (b) stitch
back to the single-card bits.  Degenerate shapes — one card, more cards
than rows, prime dimensions — are pinned explicitly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterSolver,
    card_splits,
    exchange_strips,
    plan_cards,
)
from repro.core.grid import LaplaceProblem
from repro.cpu.jacobi import jacobi_solve_bf16


class TestPlanProperties:
    @given(nx=st.integers(4, 96), ny=st.integers(4, 96),
           cards_y=st.integers(1, 4), cards_x=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact(self, nx, ny, cards_y, cards_x):
        if cards_y > ny or cards_x > nx:
            with pytest.raises(ValueError):
                plan_cards(nx, ny, cards_y, cards_x)
            return
        cards = plan_cards(nx, ny, cards_y, cards_x)
        assert sum(s.ny * s.nx for row in cards for s in row) == nx * ny
        # row bands tile Y, column bands tile X, with no gaps or overlap
        assert sum(row[0].ny for row in cards) == ny
        assert sum(s.nx for s in cards[0]) == nx

    @given(n=st.integers(1, 32))
    @settings(max_examples=32, deadline=None)
    def test_card_splits_cover_n(self, n):
        cy, cx = card_splits(n)
        assert cy * cx == n and cy >= cx >= 1

    @given(nx=st.integers(4, 48), ny=st.integers(4, 48),
           cards_y=st.integers(1, 3), cards_x=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_strips_are_symmetric(self, nx, ny, cards_y, cards_x):
        if cards_y > ny or cards_x > nx:
            return
        cards = plan_cards(nx, ny, cards_y, cards_x)
        strips = exchange_strips(cards)
        directed = {(s.src, s.dst) for s in strips}
        assert len(directed) == len(strips)       # no duplicate strips
        for s in strips:
            assert (s.dst, s.src) in directed     # every edge both ways


class TestSolveProperties:
    @given(nx=st.integers(6, 40), ny=st.integers(6, 40),
           cards_y=st.integers(1, 3), cards_x=st.integers(1, 3),
           iterations=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_random_shapes_bit_identical(self, nx, ny, cards_y, cards_x,
                                         iterations):
        if cards_y > ny or cards_x > nx:
            return
        cfg = ClusterConfig(nx=nx, ny=ny, iterations=iterations,
                            cards_y=cards_y, cards_x=cards_x)
        res = ClusterSolver(cfg).solve()
        ref = jacobi_solve_bf16(
            LaplaceProblem(nx=nx, ny=ny).initial_grid_bf16(), iterations)
        assert np.array_equal(res.grid_bits, ref)


class TestDegenerateShapes:
    def test_one_card_is_the_reference(self):
        cfg = ClusterConfig(nx=32, ny=32, iterations=5)
        res = ClusterSolver(cfg).solve()
        ref = jacobi_solve_bf16(
            LaplaceProblem(nx=32, ny=32).initial_grid_bf16(), 5)
        assert np.array_equal(res.grid_bits, ref)
        assert res.exchange.n_strips == 0
        assert res.exchange.bytes_moved == 0

    def test_empty_card_grid_rejected(self):
        for cards in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="card grid"):
                ClusterConfig(nx=32, ny=32, iterations=1, cards_y=cards[0],
                              cards_x=cards[1])

    def test_more_cards_than_rows_is_typed_error(self):
        with pytest.raises((ClusterError, ValueError)):
            ClusterSolver(ClusterConfig(nx=32, ny=4, iterations=1,
                                        cards_y=5, cards_x=1))

    def test_prime_dimensions(self):
        cfg = ClusterConfig(nx=37, ny=23, iterations=4,
                            cards_y=3, cards_x=2)
        res = ClusterSolver(cfg).solve()
        ref = jacobi_solve_bf16(
            LaplaceProblem(nx=37, ny=23).initial_grid_bf16(), 4)
        assert np.array_equal(res.grid_bits, ref)

    def test_prime_card_count_splits_1d(self):
        assert card_splits(7) == (7, 1)
        assert card_splits(13) == (13, 1)
