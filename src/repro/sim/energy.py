"""Per-component energy metering and binned power traces (Fig 8's bottom
panels).

Components follow the Fig 8 legend:

- memory: ``act``, ``mov-mem``, ``tsvs``, ``io`` (HBM-CO device),
  ``mov-si`` (IO-to-buffer wires), ``sram-w`` (memory-buffer write);
- compute: ``wei-sram_r``, ``wei-dc`` (stream decode), ``tmac``,
  ``hp-op``, ``act-sram``;
- network: ``io`` (UCIe), ``sram_w`` (network-buffer write).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.sim.kernel import Simulator
from repro.util.stats import left_sum


class EnergyMeter:
    """Accumulates joules by (group, component) and into time bins."""

    def __init__(self, sim: Simulator, bin_s: float = 1e-6):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.sim = sim
        self.bin_s = bin_s
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: joules per time bin, indexed by bin number, grown on demand.
        self._bins: dict[str, list[float]] = defaultdict(list)

    def charge(
        self,
        group: str,
        start_s: float,
        end_s: float,
        parts: Sequence[tuple[str, float]],
    ) -> None:
        """Record the ``(component, joules)`` parts ``group`` spent over
        one interval.

        Each part is spread uniformly across the interval's time bins so
        power traces integrate back to total energy.  A bin's overlap is
        computed once and shared by the parts, which are added in order:
        every bin gets the same float adds, in the same order, as
        charging the parts one at a time would give it.
        """
        if end_s < start_s:
            raise ValueError("end must not precede start")
        for _, joules in parts:
            if joules < 0:
                raise ValueError("joules must be non-negative")
        totals = self.totals[group]
        for component, joules in parts:
            totals[component] += joules
        nonzero = [joules for _, joules in parts if joules]
        if not nonzero:
            return
        bin_s = self.bin_s
        bins = self._bins[group]
        first = int(start_s / bin_s)
        instant = end_s == start_s  # simlint: ok[digest-safety] instantaneous-event sentinel, same value both sides
        last = first if instant else int(end_s / bin_s)
        if len(bins) <= last:
            bins.extend([0.0] * (last + 1 - len(bins)))
        if instant:
            for joules in nonzero:
                bins[first] += joules
            return
        duration = end_s - start_s
        for index in range(first, last + 1):
            lo = max(start_s, index * bin_s)
            hi = min(end_s, (index + 1) * bin_s)
            if hi > lo:
                width = hi - lo
                for joules in nonzero:
                    bins[index] += joules * width / duration

    # ------------------------------------------------------------------
    def total_j(self, group: str | None = None) -> float:
        if group is not None:
            return left_sum(self.totals[group].values())
        return left_sum(left_sum(components.values()) for components in self.totals.values())

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Plain nested dict of joules by group/component."""
        return {g: dict(c) for g, c in self.totals.items()}

    def power_trace(self, group: str, until_s: float) -> tuple[list[float], list[float]]:
        """(bin start times, watts) for one group up to ``until_s``."""
        num_bins = max(1, int(until_s / self.bin_s) + 1)
        times = [i * self.bin_s for i in range(num_bins)]
        watts = [joules / self.bin_s for joules in self._bins.get(group, [])[:num_bins]]
        watts.extend([0.0] * (num_bins - len(watts)))
        return times, watts
