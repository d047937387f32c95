"""FIFO bandwidth resources: memory channels, buses and ring links.

A transfer of N bytes over a resource of bandwidth B occupies it for N/B
seconds; concurrent requests serialize in arrival order.  A transfer is
:meth:`BandwidthResource.reserve` plus a wait until the slot's finish.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class BandwidthResource:
    """A serially-shared link with fixed bandwidth."""

    def __init__(self, sim: Simulator, bandwidth_bytes_per_s: float):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth_bytes_per_s
        self._available_at = 0.0

    def reserve(self, nbytes: float) -> tuple[float, float]:
        """Book the link's next FIFO slot for ``nbytes``: it starts when
        the link frees up, or now if it is idle.  Returns the slot's
        ``(start, finish)``; the caller waits until ``finish``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(self.sim.now, self._available_at)
        finish = start + nbytes / self.bandwidth
        self._available_at = finish
        return start, finish
