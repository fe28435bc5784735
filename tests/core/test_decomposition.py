"""Decomposition tests: tile batches, row batches, core-grid splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    RowBatches,
    SubDomain,
    TileBatches,
    chunk_columns,
    remap_failed,
    split_domain,
    split_extent,
)
from repro.dtypes.tiles import TILE_DIM


class TestTileBatches:
    def test_count(self):
        tb = TileBatches(128, 96)
        assert len(tb) == 4 * 3
        assert tb.batches_x == 4 and tb.batches_y == 3

    def test_row_major_order(self):
        order = [(b.by, b.bx) for b in TileBatches(64, 64)]
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_origins(self):
        batches = list(TileBatches(64, 64))
        assert batches[3].y0 == 32 and batches[3].x0 == 32
        assert all(b.height == TILE_DIM and b.width == TILE_DIM
                   for b in batches)

    def test_tiles_cover_domain_once(self):
        covered = set()
        for b in TileBatches(96, 64):
            for y in range(b.y0, b.y0 + TILE_DIM):
                for x in range(b.x0, b.x0 + TILE_DIM, 8):
                    assert (y, x) not in covered
                    covered.add((y, x))
        assert len(covered) == 64 * (96 // 8)

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            TileBatches(100, 64)

    def test_render(self):
        assert "32x32" in TileBatches(64, 64).render()


class TestRowBatches:
    def test_single_column(self):
        rb = RowBatches(nx=512, ny=10)
        assert len(rb.columns) == 1
        assert len(rb) == 10

    def test_multiple_columns_with_ragged_tail(self):
        rb = RowBatches(nx=2304, ny=4)
        assert rb.columns == [(0, 1024), (1024, 1024), (2048, 256)]
        assert len(rb) == 12

    def test_column_major_sweep_order(self):
        """Fig. 6: batches go *down* each chunk column first."""
        rb = RowBatches(nx=2048, ny=3)
        seq = [(b.x0, b.y) for b in rb]
        assert seq == [(0, 0), (0, 1), (0, 2),
                       (1024, 0), (1024, 1), (1024, 2)]

    def test_indices_sequential(self):
        rb = RowBatches(nx=2048, ny=5)
        assert [b.index for b in rb] == list(range(10))

    def test_offsets_honoured(self):
        rb = RowBatches(nx=100, ny=3, x0=50, y0=7)
        batches = list(rb)
        assert batches[0].x0 == 50 and batches[0].y == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            RowBatches(nx=0, ny=5)
        with pytest.raises(ValueError):
            RowBatches(nx=10, ny=5, chunk=0)

    def test_render(self):
        assert "batch" in RowBatches(nx=2048, ny=4).render()

    @given(nx=st.integers(1, 5000), chunk=st.integers(1, 2048),
           x0=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_chunk_columns_match_loop_reference(self, nx, chunk, x0):
        """The kernels' column walk: full chunks, then the remainder."""
        want, x = [], 0
        while x < nx:
            w = min(chunk, nx - x)
            want.append((x0 + x, w))
            x += w
        assert chunk_columns(nx, chunk, x0) == want
        assert RowBatches(nx=nx, ny=1, x0=x0, chunk=chunk).columns == want


class TestSplits:
    def test_split_extent_exact_cover(self):
        parts = split_extent(100, 7)
        assert sum(s for _, s in parts) == 100
        assert parts[0][0] == 0
        for (s0, c0), (s1, _c1) in zip(parts, parts[1:]):
            assert s1 == s0 + c0

    def test_split_extent_rejects_excess_parts(self):
        with pytest.raises(ValueError):
            split_extent(3, 5)

    def test_split_domain_grid(self):
        grid = split_domain(nx=100, ny=60, cores_y=3, cores_x=2)
        assert len(grid) == 3 and len(grid[0]) == 2
        total = sum(s.nx * s.ny for row in grid for s in row)
        assert total == 100 * 60

    def test_split_domain_coordinates(self):
        grid = split_domain(nx=10, ny=10, cores_y=2, cores_x=2)
        s = grid[1][1]
        assert isinstance(s, SubDomain)
        assert (s.y0, s.x0) == (5, 5)
        assert (s.ny, s.nx) == (5, 5)


class TestSplitEdgeCases:
    """Degenerate shapes the serve batcher can produce."""

    def test_more_parts_than_rows_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_domain(nx=64, ny=3, cores_y=4, cores_x=1)

    def test_more_parts_than_cols_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_domain(nx=3, ny=64, cores_y=1, cores_x=4)

    def test_split_extent_one_element_each(self):
        assert split_extent(4, 4) == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_1xn_domain_row_split(self):
        """A 1-row domain can still be split along x."""
        grid = split_domain(nx=12, ny=1, cores_y=1, cores_x=3)
        assert len(grid) == 1 and len(grid[0]) == 3
        assert all(s.ny == 1 for s in grid[0])
        assert [s.nx for s in grid[0]] == [4, 4, 4]
        assert [s.x0 for s in grid[0]] == [0, 4, 8]

    def test_nx1_domain_column_split(self):
        grid = split_domain(nx=1, ny=7, cores_y=3, cores_x=1)
        assert [row[0].ny for row in grid] == [3, 2, 2]
        assert all(row[0].nx == 1 for row in grid)

    def test_1xn_rejects_any_row_split(self):
        with pytest.raises(ValueError):
            split_domain(nx=12, ny=1, cores_y=2, cores_x=1)


class TestRemapFailedBoundary:
    """remap_failed with failures on the core-grid boundary."""

    def test_corner_failure_goes_to_edge_neighbour(self):
        grid = split_domain(nx=96, ny=96, cores_y=3, cores_x=3)
        assignment = remap_failed(grid, {(0, 0)})
        # Ties on load break by Manhattan distance then coordinate: the
        # corner's nearest survivors are (0,1) and (1,0), both at
        # distance 1; (0,1) wins on coordinate order.
        assert assignment == {(0, 0): (0, 1)}

    def test_whole_boundary_row_failure(self):
        grid = split_domain(nx=96, ny=96, cores_y=3, cores_x=3)
        assignment = remap_failed(grid, {(2, 0), (2, 1), (2, 2)})
        survivors = {(iy, ix) for iy in range(2) for ix in range(3)}
        assert set(assignment) == {(2, 0), (2, 1), (2, 2)}
        assert set(assignment.values()) <= survivors
        # Least-loaded spreading: three failures land on three distinct
        # survivors rather than piling onto one.
        assert len(set(assignment.values())) == 3

    def test_boundary_failure_on_1xn_grid(self):
        """On a 1×N core row, a failed end core remaps along the row."""
        grid = split_domain(nx=64, ny=8, cores_y=1, cores_x=4)
        assignment = remap_failed(grid, {(0, 3)})
        assert assignment == {(0, 3): (0, 2)}

    def test_opposite_corners_deterministic(self):
        grid = split_domain(nx=64, ny=64, cores_y=2, cores_x=2)
        a = remap_failed(grid, {(0, 0), (1, 1)})
        b = remap_failed(grid, {(1, 1), (0, 0)})
        assert a == b
        assert set(a.values()) == {(0, 1), (1, 0)}


@settings(max_examples=50, deadline=None)
@given(nx=st.integers(1, 64), ny=st.integers(1, 64),
       cy=st.integers(1, 8), cx=st.integers(1, 8))
def test_split_domain_partitions_exactly(nx, ny, cy, cx):
    """Sub-domains tile the interior exactly once, whatever the split."""
    if cy > ny or cx > nx:
        with pytest.raises(ValueError):
            split_domain(nx, ny, cy, cx)
        return
    grid = split_domain(nx, ny, cy, cx)
    cells = set()
    for row in grid:
        for s in row:
            assert s.nx > 0 and s.ny > 0
            for y in range(s.y0, s.y0 + s.ny):
                for x in range(s.x0, s.x0 + s.nx):
                    assert (y, x) not in cells
                    cells.add((y, x))
    assert len(cells) == nx * ny
