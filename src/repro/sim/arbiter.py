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
    """Serializes accesses to one buffer port with fixed priorities.

    An access is three steps: :meth:`try_grant` takes a free port,
    the holder yields :attr:`hold` (one access slot), and
    :meth:`release` hands the port to the next queued waiter or frees
    it.  :meth:`access` runs them as one process phase and queues when
    the port is taken; an engine may take the first two steps inline
    and call :meth:`access` only when :meth:`try_grant` fails.
    """

    def __init__(
        self,
        sim: Simulator,
        access_time_s: float = 1e-9,
        priority: tuple[str, ...] = ("network", "compute", "memory"),
    ):
        if access_time_s < 0:
            raise ValueError("access_time_s must be non-negative")
        self.sim = sim
        self.access_time_s = access_time_s
        self.priority = {engine: rank for rank, engine in enumerate(priority)}
        self._busy = False
        #: One access slot, yielded by every grant.
        self.hold = Timeout(access_time_s)
        # Waiters by (rank, arrival): the heap's root is the next grant.
        self._queue: list[tuple[int, int, Signal]] = []
        self._counter = 0
        self.grants = 0
        self.conflicts = 0

    def try_grant(self) -> bool:
        """Take the port if it is free and return ``True``; otherwise
        change nothing and return ``False``."""
        if self._busy:
            return False
        self._busy = True
        self.grants += 1
        return True

    def release(self) -> None:
        """End the holder's access: the port passes to the next queued
        waiter and stays busy, so an engine arriving before that waiter
        resumes queues as well; with no waiter it frees."""
        if self._queue:
            heapq.heappop(self._queue)[2].fire()
        else:
            self._busy = False

    def access(self, engine: str):
        """Process phase: acquire the port, hold one access slot, release.

        Engines not named in the priority policy contend at lowest
        priority.
        """
        if not self.try_grant():
            self.conflicts += 1
            gate = self.sim.signal()
            self._counter += 1
            rank = self.priority.get(engine, len(self.priority))
            heapq.heappush(self._queue, (rank, self._counter, gate))
            yield gate
            # The releasing holder handed the port over, still busy.
            self.grants += 1
        yield self.hold
        self.release()
