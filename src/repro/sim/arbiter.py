"""Pipeline arbiter: serialized, prioritized access to a buffer port.

The paper's pipeline arbiters enforce mutual exclusion on buffer entries:
only one DMA engine may read, write, or update a valid counter at a time,
with a software-configurable priority policy.  In a discrete-event model
the counter updates are already atomic; what the arbiter adds is the
*port serialization* (one access per cycle per port) and the priority
ordering among simultaneously-contending engines -- both of which show up
as arbitration stalls in the traces.
"""

from __future__ import annotations

import heapq

from repro.sim.kernel import Signal, Simulator, Timeout


class PipelineArbiter:
    """Serializes accesses to one buffer port with fixed priorities."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        access_time_s: float = 1e-9,
        priority: tuple[str, ...] = ("network", "compute", "memory"),
    ):
        if access_time_s < 0:
            raise ValueError("access_time_s must be non-negative")
        self.sim = sim
        self.name = name
        self.access_time_s = access_time_s
        self.priority = {engine: rank for rank, engine in enumerate(priority)}
        self._busy = False
        # One access slot, yielded by every grant.
        self._hold = Timeout(access_time_s)
        # Waiters by (rank, arrival): the heap's root is the next grant.
        self._queue: list[tuple[int, int, Signal]] = []
        self._counter = 0
        self.grants = 0
        self.conflicts = 0

    def access(self, engine: str):
        """Process phase: acquire the port, hold one access slot, release.

        Engines not named in the priority policy contend at lowest
        priority.
        """
        rank = self.priority.get(engine, len(self.priority))
        if self._busy:
            self.conflicts += 1
            gate = self.sim.signal()
            self._counter += 1
            heapq.heappush(self._queue, (rank, self._counter, gate))
            yield gate
        self._busy = True
        self.grants += 1
        yield self._hold
        self._busy = False
        if self._queue:
            heapq.heappop(self._queue)[2].fire()
