"""Per-component energy metering (Fig 8's energy breakdown).

Components follow the Fig 8 legend:

- memory: ``act``, ``mov-mem``, ``tsvs``, ``io`` (HBM-CO device),
  ``mov-si`` (IO-to-buffer wires), ``sram-w`` (memory-buffer write);
- compute: ``wei-sram_r``, ``wei-dc`` (stream decode), ``tmac``,
  ``hp-op``, ``act-sram``;
- network: ``io`` (UCIe), ``sram_w`` (network-buffer write).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.util.stats import left_sum


class EnergyRecord:
    """The ``(component, joules)`` parts of one energy shape, validated
    once, when the record is built: a negative joule raises here."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[str, float]]):
        parts = tuple(parts)
        for _, joules in parts:
            if joules < 0:
                raise ValueError("joules must be non-negative")
        self.parts = parts


class EnergyMeter:
    """Accumulates joules by (group, component).

    Charges come as records: a record is built once per energy shape
    and charged once per interval of that shape.
    """

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def charge(self, group: str, start_s: float, end_s: float, record: EnergyRecord) -> None:
        """Charge ``record``'s parts to ``group`` over one interval,
        adding them to the totals in part order, zero parts included."""
        if end_s < start_s:
            raise ValueError("end must not precede start")
        totals = self.totals[group]
        for component, joules in record.parts:
            totals[component] += joules

    def total_j(self, group: str | None = None) -> float:
        """Joules charged to ``group``, or to every group; ``0`` for a
        group never charged, which reading does not add."""
        if group is not None:
            return left_sum(self.totals.get(group, {}).values())
        return left_sum(left_sum(components.values()) for components in self.totals.values())

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Plain nested dict of joules by group/component."""
        return {g: dict(c) for g, c in self.totals.items()}
