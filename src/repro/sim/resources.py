"""Synchronisation and contention primitives built on the event engine.

These are the building blocks the hardware model uses:

* :class:`Semaphore` — counting semaphore with both *consuming* acquires
  and tt-metal style non-consuming ``wait_at_least`` (the paper's green
  dashed reader/writer semaphore in Fig. 3).
* :class:`Mutex` — binary convenience wrapper.
* :class:`Channel` — bounded FIFO of Python objects (host↔device queues).
* :class:`Resource` — SimPy-style capacity resource with FIFO queueing.
* :class:`FifoServer` — a process-free serial server with a service rate;
  models a NoC link, DMA engine or DRAM bank port cheaply: a transfer of
  ``n`` bytes completes at ``max(now, busy_until) + overhead + n/rate``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Event, SimulationError, Simulator, Timeout

__all__ = ["Semaphore", "Mutex", "Channel", "Resource", "FifoServer"]


class Semaphore:
    """Counting semaphore with FIFO wakeup.

    Two waiting disciplines are offered:

    * ``acquire(n)`` — consuming: waits until the value is at least ``n``
      then subtracts ``n`` (classic semaphore).
    * ``wait_at_least(v)`` — non-consuming: waits until the value reaches
      ``v`` without modifying it.  This matches tt-metal's
      ``noc_semaphore_wait`` where a data-mover core blocks until a peer
      has advanced a counter.
    """

    def __init__(self, sim: Simulator, value: int = 0, name: str = ""):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self.sim = sim
        self.value = value
        self.name = name
        self._acquirers: Deque[tuple[int, Event]] = deque()
        self._watchers: list[tuple[int, Event]] = []

    def try_acquire(self, n: int = 1) -> bool:
        """Consume ``n`` immediately if possible; never blocks.

        FIFO discipline is preserved: with acquirers queued, even a
        satisfiable request must line up behind them, so this returns
        ``False`` and the caller falls back to :meth:`acquire`.
        """
        if n <= 0:
            raise ValueError("acquire count must be positive")
        if self._acquirers or self.value < n:
            return False
        self.value -= n
        return True

    def try_wait_at_least(self, v: int) -> bool:
        """Non-consuming threshold test; ``True`` iff a wait would not block.

        Watchers are broadcast (no queue-order concerns), so a satisfied
        threshold can always be answered synchronously.
        """
        return self.value >= v

    def acquire(self, n: int = 1) -> Event:
        if n <= 0:
            raise ValueError("acquire count must be positive")
        ev = self.sim.event(name=f"sem.acquire({self.name})")
        self._acquirers.append((n, ev))
        self._drain()
        return ev

    def wait_at_least(self, v: int) -> Event:
        ev = self.sim.event(name=f"sem.wait({self.name}>={v})")
        self._watchers.append((v, ev))
        self._drain()
        return ev

    def release(self, n: int = 1) -> None:
        if n <= 0:
            raise ValueError("release count must be positive")
        self.value += n
        self._drain()

    def set_value(self, v: int) -> None:
        """tt-metal ``noc_semaphore_set``: overwrite the counter."""
        if v < 0:
            raise ValueError("semaphore value must be non-negative")
        self.value = v
        self._drain()

    def _drain(self) -> None:
        # Watchers are broadcast: every satisfied threshold fires, whatever
        # the arrival order (barrier semantics).  Acquirers are strict
        # FIFO: the head blocks until satisfiable (no overtaking).
        fired = [w for w in self._watchers if self.value >= w[0]]
        if fired:
            self._watchers = [w for w in self._watchers
                              if self.value < w[0]]
            for _v, ev in fired:
                ev.succeed(self.value)
        while self._acquirers:
            n, ev = self._acquirers[0]
            if self.value < n:
                return
            self.value -= n
            self._acquirers.popleft()
            ev.succeed()
            # consuming may unblock watchers? no — value only decreased.

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Semaphore {self.name!r} value={self.value} "
                f"waiters={len(self._acquirers) + len(self._watchers)}>")


class Mutex:
    """Binary lock; ``yield mutex.acquire()`` ... ``mutex.release()``."""

    def __init__(self, sim: Simulator, name: str = ""):
        self._sem = Semaphore(sim, value=1, name=name or "mutex")

    def acquire(self) -> Event:
        return self._sem.acquire(1)

    def release(self) -> None:
        if self._sem.value != 0:
            raise SimulationError("mutex released while not held")
        self._sem.release(1)

    @property
    def locked(self) -> bool:
        return self._sem.value == 0


class Channel:
    """Bounded FIFO of items with blocking put/get.

    ``capacity=None`` gives an unbounded channel (puts never block).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError("channel capacity must be positive or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event(name=f"chan.put({self.name})")
        self._putters.append((item, ev))
        self._drain()
        return ev

    def get(self) -> Event:
        ev = self.sim.event(name=f"chan.get({self.name})")
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and (
                    self.capacity is None or len(self._items) < self.capacity):
                item, ev = self._putters.popleft()
                self._items.append(item)
                ev.succeed()
                progressed = True
            while self._getters and self._items:
                self._getters.popleft().succeed(self._items.popleft())
                progressed = True


class Resource:
    """Capacity-limited resource with FIFO queueing.

    Usage from a process::

        yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError("resource capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        ev = self.sim.event(name=f"res.request({self.name})")
        self._waiters.append(ev)
        self._drain()
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"resource {self.name!r} over-released")
        self.in_use -= 1
        self._drain()

    def _drain(self) -> None:
        while self._waiters and self.in_use < self.capacity:
            self.in_use += 1
            self._waiters.popleft().succeed()

    def using(self, duration: float) -> Generator[Event, Any, None]:
        """Helper: hold the resource for ``duration`` (composable via yield from)."""
        yield self.request()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class _JobDone(Timeout):
    """A :class:`FifoServer` completion: a timeout at the job's end time,
    named after its server for stall and deadlock reports."""

    __slots__ = ("label",)

    @property
    def name(self) -> str:
        return self.label


class FifoServer:
    """Process-free serial server with a byte rate and fixed per-job overhead.

    Models a unidirectional NoC link, a DMA engine queue, or a DRAM bank
    port: jobs are served strictly in submission order, each taking
    ``overhead + nbytes / rate`` seconds of exclusive server time.  The
    implementation keeps only a ``busy_until`` watermark, so a million-job
    burst costs O(1) events when submitted as one call.

    Statistics (``busy_time``, ``bytes_served``, ``jobs``) support
    utilisation reporting in the experiments.
    """

    def __init__(self, sim: Simulator, rate: float, overhead: float = 0.0,
                 name: str = ""):
        if rate <= 0:
            raise ValueError("rate must be positive (bytes/second)")
        if overhead < 0:
            raise ValueError("overhead must be non-negative")
        self.sim = sim
        self.rate = float(rate)
        self.overhead = float(overhead)
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.bytes_served = 0
        self.jobs = 0
        self._done_name = f"fifo.done({name})"

    def service_time(self, nbytes: float, jobs: int = 1) -> float:
        return jobs * self.overhead + nbytes / self.rate

    def submit(self, nbytes: float, jobs: int = 1,
               extra_time: float = 0.0) -> Event:
        """Enqueue ``jobs`` back-to-back jobs totalling ``nbytes`` bytes.

        Returns an event that triggers at service completion.  ``extra_time``
        adds a fixed latency that occupies the server (e.g. a DRAM row
        activation).
        """
        if nbytes < 0 or jobs < 0:
            raise ValueError("nbytes and jobs must be non-negative")
        now = self.sim.now
        start = now if now >= self.busy_until else self.busy_until
        duration = self.service_time(nbytes, jobs) + extra_time
        self.busy_until = done = start + duration
        self.busy_time += duration
        self.bytes_served += int(nbytes)
        self.jobs += jobs
        ev = _JobDone(self.sim, done - now, done)
        ev.label = self._done_name
        return ev

    @property
    def utilisation(self) -> float:
        """Fraction of elapsed simulated time the server has been busy."""
        return self.busy_time / self.sim.now if self.sim.now > 0 else 0.0
