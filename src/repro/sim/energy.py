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


class EnergyRecord:
    """The ``(component, joules)`` parts of one energy shape, validated
    once, when the record is built by :meth:`EnergyMeter.record`.

    ``index`` is the record's place in its meter's table, and
    ``nonzero`` holds its nonzero joules in part order (what binning
    adds).
    """

    __slots__ = ("index", "parts", "nonzero")

    def __init__(self, index: int, parts: tuple[tuple[str, float], ...]):
        self.index = index
        self.parts = parts
        self.nonzero = tuple(joules for _, joules in parts if joules)


class EnergyMeter:
    """Accumulates joules by (group, component) and into time bins.

    Charges come as records: a record is built once per energy shape
    and charged once per interval of that shape.  Totals are kept as
    charges arrive.  Power bins are built only when a trace is read:
    each charge is logged as its interval and record index, and
    :meth:`power_trace` bins the part of the log not yet binned.
    """

    def __init__(self, sim: Simulator, bin_s: float = 1e-6):
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        self.sim = sim
        self.bin_s = bin_s
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: Every record built for this meter, by index.
        self.records: list[EnergyRecord] = []
        #: Charges not yet binned, per group: ``start, end, index``
        #: back to back.
        self._log: dict[str, array[float]] = defaultdict(lambda: array("d"))
        #: joules per time bin, indexed by bin number, grown on demand.
        self._bins: dict[str, list[float]] = defaultdict(list)

    def record(self, parts: Sequence[tuple[str, float]]) -> EnergyRecord:
        """A new record of ``(component, joules)`` parts, for :meth:`charge`.

        A negative part raises here, before the record exists.
        """
        for _, joules in parts:
            if joules < 0:
                raise ValueError("joules must be non-negative")
        record = EnergyRecord(len(self.records), tuple(parts))
        self.records.append(record)
        return record

    def charge(self, group: str, start_s: float, end_s: float, record: EnergyRecord) -> None:
        """Charge ``record``'s parts to ``group`` over one interval.

        Totals are updated at once, in part order; the interval and the
        record's index are logged for :meth:`power_trace` to bin.
        """
        if end_s < start_s:
            raise ValueError("end must not precede start")
        totals = self.totals[group]
        for component, joules in record.parts:
            totals[component] += joules
        self._log[group].extend((start_s, end_s, record.index))

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
        records = self.records
        for pos in range(0, len(log), 3):
            start_s = log[pos]
            end_s = log[pos + 1]
            nonzero = records[int(log[pos + 2])].nonzero
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
