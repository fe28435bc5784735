"""The Grayskull e150: 120 Tensix cores, 8 DRAM banks, PCIe host link.

Geometry: a 12-wide × 10-high grid of Tensix cores.  As on the real card,
only 108 are *workers* (may run kernels); the remaining 12 are
storage-only.  We designate the top row as the storage row, which leaves a
12 × 9 worker grid — exactly the maximal decomposition the paper uses in
Table VIII.

The device owns the simulator clock, both NoCs, the DRAM, an energy meter
and the PCIe link used by host enqueue operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.dram import Dram
from repro.arch.energy import EnergyMeter
from repro.arch.noc import Noc
from repro.arch.tensix import TensixCore
from repro.perfmodel.calibration import DEFAULT_COSTS, CostModel
from repro.sim import Simulator
from repro.sim.resources import FifoServer

__all__ = ["GrayskullDevice"]


class GrayskullDevice:
    """One e150 card plus its private simulated clock."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS,
                 dram_bank_capacity: Optional[int] = None,
                 device_id: int = 0):
        self.costs = costs
        self.device_id = device_id
        self.sim = Simulator()
        self.dram = Dram(self.sim, costs, bank_capacity=dram_bank_capacity)
        self.noc0 = Noc(self.sim, 0, self.dram, costs)
        self.noc1 = Noc(self.sim, 1, self.dram, costs)
        self.energy = EnergyMeter(self.sim, costs)
        #: the tt-metal debug print server: attaching it lets kernels
        #: DPRINT (at a heavy per-message cost — the paper disabled it
        #: for production runs).  Messages land in :attr:`dprint_log`.
        self.print_server_enabled = False
        self.dprint_log: list = []
        self.pcie = FifoServer(self.sim, rate=costs.pcie_bw,
                               overhead=costs.pcie_latency, name="pcie")

        self.grid_width = costs.grid_width
        self.grid_height = costs.grid_height
        storage_row = self.grid_height - 1  # top row: storage-only cores
        self._cores: Dict[Tuple[int, int], TensixCore] = {}
        for y in range(self.grid_height):
            for x in range(self.grid_width):
                self._cores[(x, y)] = TensixCore(
                    self.sim, x, y, self.noc0, self.noc1, costs,
                    is_worker=(y != storage_row))
        self._workers = [c for c in self._cores.values() if c.is_worker]
        if len(self._workers) != costs.n_worker_cores:
            raise AssertionError(
                f"worker count {len(self._workers)} != {costs.n_worker_cores}")

    # -- core lookup -----------------------------------------------------
    def core(self, x: int, y: int) -> TensixCore:
        try:
            return self._cores[(x, y)]
        except KeyError:
            raise KeyError(f"no core at ({x},{y}) on a "
                           f"{self.grid_width}x{self.grid_height} grid") from None

    @property
    def workers(self) -> List[TensixCore]:
        return list(self._workers)

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def release_launch_state(self) -> None:
        """Tear down the previous program so another can launch.

        Frees every core's CBs/semaphores/L1 and rewinds the DRAM
        allocator — what destroying a tt-metal Program plus its buffers
        does.  The simulated clock, energy meter and utilisation counters
        keep accumulating across launches; injected faults survive.
        """
        for core in self._cores.values():
            core.release_launch_state()
        self.dram.reset_allocator()

    def worker_grid(self, cores_y: int, cores_x: int) -> List[List[TensixCore]]:
        """Place a ``cores_y × cores_x`` decomposition onto physical cores.

        Returns ``grid[iy][ix]``.  The larger decomposition dimension is
        laid along the physical 12-wide axis when it would not otherwise
        fit (the paper's 12×9 placement requires this; see
        :func:`repro.perfmodel.scaling.columns_used`).
        """
        if cores_y * cores_x > self.n_workers:
            raise ValueError(
                f"{cores_y}x{cores_x} exceeds {self.n_workers} workers")
        swap = cores_y > (self.grid_height - 1)
        py, px = (cores_x, cores_y) if swap else (cores_y, cores_x)
        if py > self.grid_height - 1 or px > self.grid_width:
            raise ValueError(
                f"{cores_y}x{cores_x} cannot be placed on the "
                f"{self.grid_width}x{self.grid_height - 1} worker grid")
        grid: List[List[TensixCore]] = []
        for iy in range(cores_y):
            row = []
            for ix in range(cores_x):
                # physical (x, y): decomposition X along the grid width,
                # unless swapped, in which case decomposition Y runs along it.
                phys_x, phys_y = (iy, ix) if swap else (ix, iy)
                row.append(self.core(phys_x, phys_y))
            grid.append(row)
        return grid

    # -- DRAM geometry ------------------------------------------------------
    def dram_bank_noc_coords(self, bank_id: int) -> Tuple[int, int]:
        """NoC coordinates of a DRAM bank (banks sit along the grid edge).

        Kernels address banks via ``get_noc_addr(noc_x, noc_y, addr)``; we
        place bank *b* at ``(b + grid_width, 0)`` — a distinct, reserved
        coordinate space so core and bank addresses can't collide.
        """
        if not 0 <= bank_id < self.dram.n_banks:
            raise ValueError(f"bank {bank_id} out of range")
        return (self.grid_width + bank_id, 0)

    def bank_from_noc_coords(self, noc_x: int, noc_y: int) -> int:
        bank = noc_x - self.grid_width
        if noc_y != 0 or not 0 <= bank < self.dram.n_banks:
            raise ValueError(f"({noc_x},{noc_y}) is not a DRAM bank location")
        return bank

    def describe(self) -> str:
        """Text block diagram of the card (supports the Fig.-1 rendering)."""
        return (
            f"Grayskull e150 #{self.device_id}: "
            f"{self.grid_width}x{self.grid_height} Tensix cores "
            f"({self.n_workers} workers @ {self.costs.clock_hz / 1e9:.1f} GHz), "
            f"{self.dram.n_banks} DRAM banks, 2 NoCs, PCIe Gen4")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GrayskullDevice {self.device_id}>"
