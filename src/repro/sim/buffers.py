"""SRAM buffers with per-entry valid counters (paper Section V).

Each buffer entry carries a small valid counter tracking how many
asynchronous consumers have yet to read it.  Producers write with a
``valid_count``; consumers block until the entry is valid and optionally
decrement the counter on read.  When the counter reaches zero the entry's
bytes are released.  This is the data-dependent synchronization that lets
the memory, compute and network pipelines run decoupled without global
barriers.

Capacity is enforced in bytes: a producer blocks when the write would
overflow the buffer -- that back-pressure is exactly what bounds how far
the memory pipeline can prefetch ahead (Fig 8's lookahead window).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Signal, Simulator


class BufferError(RuntimeError):
    """Raised on protocol violations (double-write, read of absent entry)."""


@dataclass
class _Entry:
    nbytes: float
    valid_count: int
    written: Signal


class SramBuffer:
    """A byte-budgeted buffer of keyed entries with valid counters."""

    def __init__(
        self, sim: Simulator, name: str, capacity_bytes: float, *, trace: bool = False
    ):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.occupancy_bytes = 0.0
        self._entries: dict[str, _Entry] = {}
        self._space_waiters: list[Signal] = []
        self._read_waiters: dict[str, list[Signal]] = {}
        # Occupancy trace: (time, bytes) samples at every change, kept
        # only when ``trace`` asks for it.
        self.occupancy_trace: list[tuple[float, float]] | None = (
            [(0.0, 0.0)] if trace else None
        )
        # Stall accounting
        self.write_stall_s = 0.0
        self.read_stall_s = 0.0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def allocate(self, key: str, nbytes: float, valid_count: int = 1):
        """Process phase: reserve space for entry ``key`` (DMA setup).

        Yields until capacity is available.  The entry is *not* yet valid:
        consumers block until :meth:`commit` (the DMA completion event).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if valid_count < 1:
            raise ValueError("valid_count must be >= 1")
        if nbytes > self.capacity_bytes:
            raise BufferError(
                f"{self.name}: entry {key!r} ({nbytes:.0f} B) exceeds buffer "
                f"capacity ({self.capacity_bytes:.0f} B)"
            )
        start = self.sim.now
        while self.occupancy_bytes + nbytes > self.capacity_bytes:
            gate = self.sim.signal()
            self._space_waiters.append(gate)
            yield gate
        self.write_stall_s += self.sim.now - start

        if key in self._entries:
            raise BufferError(f"{self.name}: double write to entry {key!r}")
        entry = _Entry(nbytes=nbytes, valid_count=valid_count, written=self.sim.signal())
        self._entries[key] = entry
        self.occupancy_bytes += nbytes
        self._record()

    def commit(self, key: str) -> None:
        """Publish entry ``key``: the data has landed; wake consumers."""
        entry = self._entries.get(key)
        if entry is None:
            raise BufferError(f"{self.name}: commit of unallocated entry {key!r}")
        entry.written.fire()
        for gate in self._read_waiters.pop(key, []):
            gate.fire()

    def write(self, key: str, nbytes: float, valid_count: int = 1):
        """Process phase: allocate + commit in one step."""
        yield from self.allocate(key, nbytes, valid_count)
        self.commit(key)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def read(self, key: str, decrement: bool = True):
        """Process phase: block until ``key`` is valid; optionally consume.

        With ``decrement`` (the paper's check-valid + decrement mode) the
        entry's valid counter drops by one and its bytes are released when
        it reaches zero.
        """
        start = self.sim.now
        while key not in self._entries or not self._entries[key].written.fired:
            gate = self.sim.signal()
            self._read_waiters.setdefault(key, []).append(gate)
            yield gate
        self.read_stall_s += self.sim.now - start
        entry = self._entries[key]
        if decrement:
            if entry.valid_count <= 0:
                raise BufferError(f"{self.name}: over-consumed entry {key!r}")
            entry.valid_count -= 1
            if entry.valid_count == 0:
                self._release(key)

    def contains(self, key: str) -> bool:
        return key in self._entries

    def _release(self, key: str) -> None:
        entry = self._entries.pop(key)
        self.occupancy_bytes -= entry.nbytes
        if self.occupancy_bytes < -1e-9:
            raise BufferError(f"{self.name}: negative occupancy")
        self.occupancy_bytes = max(self.occupancy_bytes, 0.0)
        self._record()
        waiters, self._space_waiters = self._space_waiters, []
        for gate in waiters:
            gate.fire()

    def _record(self) -> None:
        if self.occupancy_trace is not None:
            self.occupancy_trace.append((self.sim.now, self.occupancy_bytes))
