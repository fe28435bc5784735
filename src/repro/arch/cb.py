"""Circular buffers: the FIFO pipes between baby cores in a Tensix core.

tt-metal semantics (Section II-A of the paper):

* A CB is a wrap-around queue of fixed-size **pages** in L1.
* The producer calls ``cb_reserve_back(n)`` (blocks until ``n`` pages are
  free), fills them (often by pointing a NoC read straight at
  ``get_write_ptr()``), then ``cb_push_back(n)`` commits them.
* The consumer calls ``cb_wait_front(n)`` (blocks until ``n`` pages are
  committed), uses them, then ``cb_pop_front(n)`` recycles them.

Two read-side extensions from the paper are modelled:

* :meth:`set_rd_ptr` — the ``cb_set_rd_ptr``/``llk_set_read_ptr`` API the
  authors *added to tt-metal* (Section VI) so the unpacker reads tile data
  from an arbitrary L1 address instead of the CB's own pages, eliminating
  the expensive data-mover memcpy.
* Data-mover-side and compute-side pointer state are **separate** (the
  paper found data movers and compute cores keep private copies of the CB
  structure, so a pointer poked by the data mover is invisible to
  compute): the alias is installed on the consumer side only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.arch.sram import Sram
from repro.sim import Event, SimulationError, Simulator
from repro.sim.engine import _PENDING

__all__ = ["CircularBuffer", "CBError"]

#: page views one CB keeps (see ``_new_page``): every page of every CB
#: in the perfbench workloads (at most 767 per CB, FFT's operand CB at
#: n=256) and the FFT's whole working set up to n=1024 (3n-1 per CB).
#: A longer sweep of distinct aliases keeps the first ones and slices
#: the rest afresh at each lookup.
MAX_PAGE_VIEWS = 4096


class CBError(RuntimeError):
    """Protocol violation on a circular buffer (over-push, over-pop, ...)."""


class _Handshake(Event):
    """A blocked ``reserve``/``wait`` on one CB.

    Every blocking handshake builds one, so the display name
    (``<cb>.wait(<n>)``) is formatted only when a deadlock or watchdog
    report reads it.
    """

    __slots__ = ("_cb", "_op", "_n")

    def __init__(self, cb: "CircularBuffer", op: str, n: int):
        self.sim = cb.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._cb = cb
        self._op = op
        self._n = n

    @property
    def name(self) -> str:
        return f"{self._cb.name}.{self._op}({self._n})"


class CircularBuffer:
    """A paged FIFO in one core's L1."""

    #: supported element formats: BF16 (2 B) and FP32 (4 B — Wormhole mode).
    DTYPES = {"bf16": 2, "fp32": 4}

    def __init__(self, sim: Simulator, sram: Sram, cb_id: int,
                 page_size: int, n_pages: int, name: str = "",
                 dtype: str = "bf16"):
        if page_size <= 0 or n_pages <= 0:
            raise ValueError("page_size and n_pages must be positive")
        if dtype not in self.DTYPES:
            raise ValueError(f"dtype must be one of {sorted(self.DTYPES)}")
        if page_size % self.DTYPES[dtype]:
            raise ValueError(
                f"page_size {page_size} not a multiple of the {dtype} "
                "element size")
        self.sim = sim
        self.sram = sram
        self.cb_id = cb_id
        self.page_size = page_size
        self.n_pages = n_pages
        self.dtype = dtype
        self.elem_bytes = self.DTYPES[dtype]
        self.name = name or f"cb{cb_id}"
        self.base = sram.allocate(page_size * n_pages, align=32,
                                  label=self.name)
        # A page of either width, own or aliased, is one slice of the
        # Sram array for that width (``sram.u16`` for BF16, ``sram.f32``
        # for FP32), made once per L1 address and kept in ``_pages``
        # (a NumPy slice costs ~6 times a dict hit).  Own pages are
        # aligned and inside the allocation; aliases are checked for
        # alignment when set and for L1 bounds when first viewed.
        self._words = sram.u16 if dtype == "bf16" else sram.f32
        self._page_words = page_size // self.elem_bytes
        self._pages: dict = {}

        # Queue state: absolute page counters (never wrap; modulo for slots).
        self._reserved = 0   # pages handed to the producer (reserve_back)
        self._pushed = 0     # pages committed (push_back)
        self._popped = 0     # pages recycled (pop_front)
        self._wait_q: Deque[tuple[int, Event]] = deque()
        self._reserve_q: Deque[tuple[int, Event]] = deque()
        #: fault injection: a wedged CB stops waking waiters (a hardware
        #: flow-control lock-up) — producers and consumers hang exactly as
        #: they would on silicon, until a watchdog intervenes.
        self.wedged = False
        # Consumer-side read-pointer alias (cb_set_rd_ptr), in L1 address.
        self._rd_alias: Optional[int] = None
        # Producer-side write-pointer alias (cb_set_wr_ptr) — the CB-alias
        # flexibility the paper *recommends* tt-metal add (Section VIII);
        # used by the SRAM-resident extension so pack_tile writes straight
        # into a local slab.
        self._wr_alias: Optional[int] = None

    # -- invariant helpers -------------------------------------------------
    @property
    def pages_committed(self) -> int:
        """Pages the consumer may wait_front on right now."""
        return self._pushed - self._popped

    @property
    def pages_free(self) -> int:
        """Pages the producer may still reserve."""
        return self.n_pages - (self._reserved - self._popped)

    def _slot_addr(self, abs_page: int) -> int:
        return self.base + (abs_page % self.n_pages) * self.page_size

    # -- synchronous fast paths ----------------------------------------------
    # The kernel API consults these before building a blocking event: a
    # satisfiable handshake commits in one call, with no Event, no heap
    # entry and no extra resume of the calling process.  FIFO fairness is
    # preserved because the fast path refuses whenever earlier requests are
    # still queued (the caller then lines up behind them via the event
    # path), and a wedged CB always refuses so injected flow-control faults
    # still hang producers and consumers exactly as before.  These run on
    # every handshake, so they read the page counters directly rather
    # than through the properties above.
    def try_reserve(self, n: int = 1) -> bool:
        """Reserve ``n`` pages immediately if possible; never blocks."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot reserve {n} of {self.n_pages} pages")
        if self.wedged or self._reserve_q \
                or self.n_pages - self._reserved + self._popped < n:
            return False
        self._reserved += n
        return True

    def try_wait(self, n: int = 1) -> bool:
        """``True`` iff ``n`` pages are committed and a wait would not block."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot wait for {n} of {self.n_pages} pages")
        return not self.wedged and not self._wait_q \
            and self._pushed - self._popped >= n

    # -- producer side -------------------------------------------------------
    def reserve_back(self, n: int = 1) -> Event:
        """Block until ``n`` pages are free, then reserve them."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot reserve {n} of {self.n_pages} pages")
        ev = _Handshake(self, "reserve", n)
        self._reserve_q.append((n, ev))
        self._drain()
        return ev

    def push_back(self, n: int = 1) -> None:
        """Commit ``n`` previously reserved pages to the consumer."""
        if n <= 0:
            raise CBError("push count must be positive")
        if self._pushed + n > self._reserved:
            raise CBError(
                f"{self.name}: push_back({n}) without matching reserve_back "
                f"(pushed={self._pushed}, reserved={self._reserved})")
        self._pushed += n
        if self._wait_q or self._reserve_q:
            self._drain()

    def get_write_ptr(self) -> int:
        """L1 address of the next page to fill (after reserve_back)."""
        if self._reserved == self._pushed:
            raise CBError(f"{self.name}: get_write_ptr without reserved pages")
        return self._slot_addr(self._pushed)

    def _new_page(self, addr: int, page_offset: int) -> np.ndarray:
        """Slice the page at (element-aligned) L1 address ``addr`` and keep
        it while fewer than ``MAX_PAGE_VIEWS`` are kept; ``IndexError`` if
        it runs outside L1."""
        word = addr // self.elem_bytes
        if word < 0 or word + self._page_words > self._words.size:
            raise IndexError(
                f"{self.name}: page {page_offset} at L1 [{addr}, "
                f"{addr + self.page_size}) outside {self.sram.capacity}")
        view = self._words[word:word + self._page_words]
        if len(self._pages) < MAX_PAGE_VIEWS:
            self._pages[addr] = view
        return view

    def back_page(self, page_offset: int = 0) -> np.ndarray:
        """Producer view of back page ``page_offset`` in the CB's element
        width: ``uint16`` words for BF16, ``float32`` lanes for FP32.

        With a write-pointer alias installed, the view targets the alias
        instead (no reservation needed — the pages are not used).
        """
        alias = self._wr_alias
        if alias is None:
            page = self._pushed + page_offset
            if page >= self._reserved:
                raise CBError(
                    f"{self.name}: back page {page_offset} not reserved")
            addr = self.base + page % self.n_pages * self.page_size
        else:
            addr = alias + page_offset * self.page_size
        try:
            return self._pages[addr]
        except KeyError:
            return self._new_page(addr, page_offset)

    def set_wr_ptr(self, l1_addr: int) -> None:
        """Alias the producer write pointer to ``l1_addr`` (extension).

        Implements the API flexibility the paper's conclusions ask for:
        "enabling CBs to alias local memory".  Unlike ``set_rd_ptr`` the
        alias persists until replaced or cleared with ``clear_wr_ptr``
        (each batch installs a fresh one anyway).
        """
        if l1_addr < 0 or l1_addr + self.page_size > self.sram.capacity:
            raise CBError(f"{self.name}: wr_ptr alias {l1_addr} out of L1")
        if l1_addr % self.elem_bytes:
            raise CBError(
                f"{self.name}: wr_ptr alias {l1_addr} must be "
                f"{self.elem_bytes}-byte aligned for its {self.dtype} "
                "elements")
        self._wr_alias = l1_addr

    def clear_wr_ptr(self) -> None:
        self._wr_alias = None

    # -- consumer side -------------------------------------------------------
    def wait_front(self, n: int = 1) -> Event:
        """Block until ``n`` pages are committed (does not consume them)."""
        if not 0 < n <= self.n_pages:
            raise CBError(f"{self.name}: cannot wait for {n} of {self.n_pages} pages")
        ev = _Handshake(self, "wait", n)
        self._wait_q.append((n, ev))
        self._drain()
        return ev

    def pop_front(self, n: int = 1) -> None:
        """Recycle ``n`` consumed pages back to the producer."""
        if n <= 0:
            raise CBError("pop count must be positive")
        if self._popped + n > self._pushed:
            raise CBError(
                f"{self.name}: pop_front({n}) exceeds committed pages "
                f"({self.pages_committed})")
        self._popped += n
        self._rd_alias = None  # an alias is valid for one wait/pop window
        if self._wait_q or self._reserve_q:
            self._drain()

    def get_read_ptr(self) -> int:
        """L1 address the unpacker will read from (honours set_rd_ptr)."""
        if self._rd_alias is not None:
            return self._rd_alias
        if self._pushed == self._popped:
            raise CBError(f"{self.name}: get_read_ptr with no committed pages")
        return self._slot_addr(self._popped)

    def front_page(self, page_offset: int = 0) -> np.ndarray:
        """Consumer view of committed page ``page_offset`` (or of the rd
        alias) in the CB's element width, as :meth:`back_page`."""
        alias = self._rd_alias
        if alias is None:
            if page_offset >= self._pushed - self._popped:
                raise CBError(
                    f"{self.name}: front page {page_offset} beyond committed "
                    f"{self.pages_committed}")
            addr = self.base + ((self._popped + page_offset) % self.n_pages
                                * self.page_size)
        else:
            addr = alias + page_offset * self.page_size
        try:
            return self._pages[addr]
        except KeyError:
            return self._new_page(addr, page_offset)

    def set_rd_ptr(self, l1_addr: int) -> None:
        """``cb_set_rd_ptr``: alias the consumer read pointer to ``l1_addr``.

        The paper's zero-copy trick: the unpacker reads tile data straight
        out of the data mover's local buffer.  The alias is cleared by the
        next ``pop_front`` (each batch re-installs it after
        ``cb_wait_front`` completes, exactly as Section VI describes).
        """
        if l1_addr < 0 or l1_addr + self.page_size > self.sram.capacity:
            raise CBError(f"{self.name}: rd_ptr alias {l1_addr} out of L1")
        if l1_addr % self.elem_bytes:
            raise CBError(
                f"{self.name}: rd_ptr alias {l1_addr} must be "
                f"{self.elem_bytes}-byte aligned for its {self.dtype} "
                "elements")
        self._rd_alias = l1_addr

    # -- fault injection -------------------------------------------------------
    def wedge(self) -> None:
        """Lock up the CB: queued and future waits never complete."""
        self.wedged = True

    def unwedge(self) -> None:
        """Release an injected wedge and wake whatever is now satisfiable."""
        self.wedged = False
        self._drain()

    # -- scheduling ----------------------------------------------------------
    def _drain(self) -> None:
        if self.wedged:
            return
        progressed = True
        while progressed:
            progressed = False
            if self._reserve_q:
                n, ev = self._reserve_q[0]
                if self.n_pages - self._reserved + self._popped >= n:
                    self._reserved += n
                    self._reserve_q.popleft()
                    ev.succeed()
                    progressed = True
            if self._wait_q:
                n, ev = self._wait_q[0]
                if self._pushed - self._popped >= n:
                    self._wait_q.popleft()
                    ev.succeed()
                    progressed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CB {self.name} pages={self.n_pages}x{self.page_size}B "
                f"committed={self.pages_committed} free={self.pages_free}>")
