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

from array import array
from collections import defaultdict
from collections.abc import Sequence

from repro.sim.kernel import Simulator
from repro.util.stats import left_sum


class EnergyMeter:
    """Accumulates joules by (group, component) and into time bins.

    Totals are kept as charges arrive.  Power bins are built only when a
    trace is read: each charge is logged, and :meth:`power_trace` bins
    the part of the log not yet binned.
    """

    def __init__(self, sim: Simulator, bin_s: float = 1e-6):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.sim = sim
        self.bin_s = bin_s
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: Charges not yet binned, per group: ``start, end, n`` and the
        #: interval's ``n`` nonzero joules, back to back.
        self._log: dict[str, array[float]] = defaultdict(lambda: array("d"))
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

        Totals are updated at once; the interval's nonzero parts are
        logged, in order, for :meth:`power_trace` to bin.
        """
        if end_s < start_s:
            raise ValueError("end must not precede start")
        for _, joules in parts:
            if joules < 0:
                raise ValueError("joules must be non-negative")
        totals = self.totals[group]
        entry = [start_s, end_s, 0.0]
        for component, joules in parts:
            totals[component] += joules
            if joules:
                entry.append(joules)
        if len(entry) > 3:
            entry[2] = len(entry) - 3
            self._log[group].fromlist(entry)

    def _binned(self, group: str) -> list[float]:
        """``group``'s joules per time bin, binning its logged charges.

        Each part is spread uniformly across its interval's time bins so
        power traces integrate back to total energy.  A bin's overlap is
        computed once per charge and shared by its parts, which are
        added in order: every bin gets the same float adds, in the same
        order, as charging the parts one at a time would give it.
        """
        bins = self._bins[group]
        log = self._log.get(group)
        if not log:
            return bins
        bin_s = self.bin_s
        pos = 0
        while pos < len(log):
            start_s = log[pos]
            end_s = log[pos + 1]
            count = int(log[pos + 2])
            nonzero = log[pos + 3 : pos + 3 + count]
            pos += 3 + count
            first = int(start_s / bin_s)
            instant = end_s == start_s  # simlint: ok[digest-safety] instantaneous-event sentinel, same value both sides
            last = first if instant else int(end_s / bin_s)
            if len(bins) <= last:
                bins.extend([0.0] * (last + 1 - len(bins)))
            if instant:
                for joules in nonzero:
                    bins[first] += joules
                continue
            duration = end_s - start_s
            for index in range(first, last + 1):
                lo = max(start_s, index * bin_s)
                hi = min(end_s, (index + 1) * bin_s)
                if hi > lo:
                    width = hi - lo
                    for joules in nonzero:
                        bins[index] += joules * width / duration
        del log[:]
        return bins

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
        watts = [joules / self.bin_s for joules in self._binned(group)[:num_bins]]
        watts.extend([0.0] * (num_bins - len(watts)))
        return times, watts
