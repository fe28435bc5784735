"""Domain decompositions: tile batches, row batches, core grids.

Three decompositions from the paper:

* :class:`TileBatches` — Fig. 4: the initial kernel cuts the domain into
  32×32-element batches (one FPU tile each); every batch needs a 34×34
  read including halos.
* :class:`RowBatches` — Fig. 6: the optimised kernel works in
  1024-element-wide chunks, sweeping *down* each chunk column so that
  every DRAM read is one contiguous 1026-element row.
* :func:`split_domain` — Table VIII: the multi-core systolic split of the
  global domain over a ``cores_y × cores_x`` grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

from repro.dtypes.tiles import TILE_DIM, TILE_ELEMS

__all__ = [
    "TileBatch",
    "TileBatches",
    "RowBatch",
    "RowBatches",
    "chunk_columns",
    "split_extent",
    "split_domain",
    "SubDomain",
    "remap_failed",
]


@dataclass(frozen=True)
class TileBatch:
    """One 32×32 batch: interior origin ``(y0, x0)`` (Fig. 4)."""

    by: int
    bx: int
    y0: int
    x0: int

    @property
    def height(self) -> int:
        return TILE_DIM

    @property
    def width(self) -> int:
        return TILE_DIM


class TileBatches:
    """Row-major 32×32 batching of an ``ny × nx`` interior (Fig. 4)."""

    def __init__(self, nx: int, ny: int):
        if nx % TILE_DIM or ny % TILE_DIM:
            raise ValueError(
                f"the tile-batch kernel needs the domain to be a multiple "
                f"of {TILE_DIM} in both dimensions; got {ny}x{nx}")
        self.nx = nx
        self.ny = ny
        self.batches_x = nx // TILE_DIM
        self.batches_y = ny // TILE_DIM

    def __len__(self) -> int:
        return self.batches_x * self.batches_y

    def __iter__(self) -> Iterator[TileBatch]:
        for by in range(self.batches_y):
            for bx in range(self.batches_x):
                yield TileBatch(by, bx, by * TILE_DIM, bx * TILE_DIM)

    def render(self, max_batches: int = 4) -> str:
        """Text rendering of the batch grid (regenerates Fig. 4)."""
        n = min(self.batches_x, max_batches)
        m = min(self.batches_y, max_batches)
        cell = "+--------" * n + "+"
        lines = [f"{self.ny}x{self.nx} domain as "
                 f"{self.batches_y}x{self.batches_x} batches of "
                 f"{TILE_DIM}x{TILE_DIM} BF16 elements:"]
        for by in range(m):
            lines.append(cell)
            lines.append("".join(
                f"| b{by},{bx:<4}" for bx in range(n)) + "|")
        lines.append(cell)
        return "\n".join(lines)


@dataclass(frozen=True)
class RowBatch:
    """One optimised-kernel batch: a row segment (Fig. 6).

    ``y`` is the interior row, ``x0`` the interior start column, ``width``
    the chunk width in elements (≤ 1024).
    """

    index: int
    y: int
    x0: int
    width: int


def chunk_columns(nx: int, chunk: int, x0: int = 0) -> List[tuple[int, int]]:
    """``(start, width)`` of each chunk column of an ``nx``-wide run
    starting at ``x0``: full ``chunk``-wide columns, then the remainder."""
    return [(x0 + x, min(chunk, nx - x)) for x in range(0, nx, chunk)]


class RowBatches:
    """Column-of-rows batching of a sub-domain (Fig. 6).

    Batches sweep *down* each chunk column (batch 0..h−1 in the first
    1024-wide column, then the next column), so consecutive reads walk
    forward through DRAM one row at a time.
    """

    def __init__(self, nx: int, ny: int, x0: int = 0, y0: int = 0,
                 chunk: int = TILE_ELEMS):
        if nx <= 0 or ny <= 0:
            raise ValueError("sub-domain must be non-empty")
        if chunk <= 0:
            raise ValueError("chunk width must be positive")
        self.nx = nx
        self.ny = ny
        self.x0 = x0
        self.y0 = y0
        self.chunk = chunk
        self.columns = chunk_columns(nx, chunk, x0)

    def __len__(self) -> int:
        return len(self.columns) * self.ny

    def __iter__(self) -> Iterator[RowBatch]:
        i = 0
        for cx, w in self.columns:
            for r in range(self.ny):
                yield RowBatch(i, self.y0 + r, cx, w)
                i += 1

    def render(self, max_rows: int = 6) -> str:
        """Text rendering of the column-sweep order (regenerates Fig. 6)."""
        rows = min(self.ny, max_rows)
        lines = [f"{self.ny}x{self.nx} sub-domain as {len(self)} row "
                 f"batches of up to {self.chunk} elements "
                 f"({len(self.columns)} chunk column(s)):"]
        for r in range(rows):
            cells = []
            for c, (cx, w) in enumerate(self.columns):
                cells.append(f" batch {c * self.ny + r:<4}")
            lines.append("|" + "|".join(cells) + "|")
        if self.ny > rows:
            lines.append("| ... " * len(self.columns) + "|")
        return "\n".join(lines)


def split_extent(n: int, parts: int) -> List[tuple[int, int]]:
    """Split ``n`` elements into ``parts`` near-equal ``(start, size)`` runs."""
    if n <= 0 or parts <= 0:
        raise ValueError("n and parts must be positive")
    if parts > n:
        raise ValueError(f"cannot split {n} elements into {parts} parts")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, size))
        start += size
    return out


@dataclass(frozen=True)
class SubDomain:
    """One core's share of the global interior."""

    iy: int
    ix: int
    y0: int
    x0: int
    ny: int
    nx: int


def split_domain(nx: int, ny: int, cores_y: int, cores_x: int
                 ) -> List[List[SubDomain]]:
    """Table-VIII systolic decomposition: ``grid[iy][ix]`` of sub-domains."""
    ys = split_extent(ny, cores_y)
    xs = split_extent(nx, cores_x)
    return [[SubDomain(iy, ix, y0, x0, h, w)
             for ix, (x0, w) in enumerate(xs)]
            for iy, (y0, h) in enumerate(ys)]


def remap_failed(grid: List[List[SubDomain]],
                 failed) -> dict[tuple[int, int], tuple[int, int]]:
    """Reassign failed cores' sub-domains to surviving cores.

    ``grid`` is a :func:`split_domain` result; ``failed`` an iterable of
    ``(iy, ix)`` decomposition coordinates.  Returns
    ``{failed_coord: survivor_coord}``.  The assignment is deterministic:
    failed coordinates are processed in sorted order, each going to the
    survivor with (1) the lowest accumulated element load, (2) the
    smallest Manhattan distance, (3) the smallest coordinate — so a
    degraded run replays identically.  Raises ``ValueError`` when every
    core failed.
    """
    owners = {(s.iy, s.ix): s for row in grid for s in row}
    failed_set = {tuple(f) for f in failed}
    for f in failed_set:
        if f not in owners:
            raise ValueError(f"unknown decomposition coordinate {f}")
    survivors = sorted(k for k in owners if k not in failed_set)
    if not survivors:
        raise ValueError("no surviving cores to remap onto")
    load = {k: owners[k].ny * owners[k].nx for k in survivors}
    assignment: dict[tuple[int, int], tuple[int, int]] = {}
    for f in sorted(failed_set):
        best = min(survivors, key=lambda k: (
            load[k], abs(k[0] - f[0]) + abs(k[1] - f[1]), k))
        assignment[f] = best
        load[best] += owners[f].ny * owners[f].nx
    return assignment
