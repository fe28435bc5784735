"""Grayskull e150 hardware model.

Functional + timing simulation of the parts of the card the paper's
kernels touch:

* :mod:`repro.arch.dram` — 8 DDR banks, byte-accurate, with the 256-bit
  alignment behaviour discovered in Section IV-B of the paper.
* :mod:`repro.arch.noc` — the two networks-on-chip as calibrated
  bandwidth servers (per data-mover link, per-bank port).
* :mod:`repro.arch.sram` — 1 MB L1 per Tensix core with a bump allocator.
* :mod:`repro.arch.cb` — circular buffers (paged FIFOs) including the
  paper's ``cb_set_rd_ptr`` read-pointer aliasing extension.
* :mod:`repro.arch.fpu` — the 16384-bit tile engine (BF16 math on
  1024-element tiles, destination registers, pack/unpack).
* :mod:`repro.arch.tensix` — a Tensix core: two data-mover baby cores and
  the logical compute core, semaphores, CBs.
* :mod:`repro.arch.device` — the e150 (120 cores, 108 workers, PCIe host
  link).  Multi-card machines are :mod:`repro.cluster`: one device per
  card, with the wall/stall/energy ledger kept by its solver.
* :mod:`repro.arch.energy` — TT-SMI-style energy accounting.
"""

from repro.arch.cb import CircularBuffer
from repro.arch.device import GrayskullDevice
from repro.arch.dram import Dram, DramBank
from repro.arch.energy import EnergyMeter
from repro.arch.fpu import Fpu
from repro.arch.noc import Noc, NocTransferStats
from repro.arch.sram import Sram
from repro.arch.tensix import TensixCore

__all__ = [
    "CircularBuffer",
    "Dram",
    "DramBank",
    "EnergyMeter",
    "Fpu",
    "GrayskullDevice",
    "Noc",
    "NocTransferStats",
    "Sram",
    "TensixCore",
]
