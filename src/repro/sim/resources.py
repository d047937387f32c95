"""FIFO bandwidth resources: memory channels, buses and ring links.

A transfer of N bytes over a resource of bandwidth B occupies it for N/B
seconds; concurrent requests serialize in arrival order.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator, Timeout


class BandwidthResource:
    """A serially-shared link with fixed bandwidth."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bytes_per_s: float):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_s
        self._available_at = 0.0

    def transfer(self, nbytes: float):
        """Process phase: move ``nbytes``; returns after the last byte lands.

        FIFO semantics: the transfer starts when the link frees up.
        Returns the ``(start, end)`` interval the link was occupied.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(self.sim.now, self._available_at)
        finish = start + nbytes / self.bandwidth
        self._available_at = finish
        yield Timeout(finish - self.sim.now)
        return (start, finish)
