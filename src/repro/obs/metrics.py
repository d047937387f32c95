"""Time-series metrics: the run timeline and its exports.

A :class:`Timeline` is a list of samples taken at event boundaries --
each sample a timestamp plus a flat ``name -> value`` mapping of
gauges (queue depth, KV occupancy, fleet pressure, pool sizes,
per-tenant in-flight) and cumulative counters (completed / shed /
rejected so far).  Series are ragged by construction (a tenant's
in-flight gauge first appears when its first request arrives); exports
densify against the union of names, padding missing cells with 0.0.

Exports: ``to_json()`` (schema-versioned dict), ``to_csv()`` (one row
per sample), and ``summary_table()`` -- an ASCII sparkline per series
for terminal-side inspection without leaving the REPL.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping, Sequence

from repro.util.stats import mean
from repro.util.tables import Table

__all__ = ["TIMELINE_SCHEMA_VERSION", "Timeline", "sparkline"]

TIMELINE_SCHEMA_VERSION = 1

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render ``values`` as a fixed-width run of Unicode block glyphs.

    Longer series are bucket-averaged down to ``width`` cells; the
    glyph scale is normalized to the series' own min..max (a flat
    series renders as a flat mid-height line).
    """
    if not values:
        return ""
    if len(values) > width:
        cells = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            cells.append(mean(chunk))
    else:
        cells = list(values)
    low, high = min(cells), max(cells)
    span = high - low
    if span <= 0.0:
        return _BLOCKS[4] * len(cells)
    top = len(_BLOCKS) - 1
    return "".join(
        _BLOCKS[1 + round((v - low) / span * (top - 1))] for v in cells
    )


class Timeline:
    """Event-boundary samples of fleet gauges and counters."""

    __slots__ = ("sample_period_s", "_times", "_rows", "_names")

    def __init__(self, sample_period_s: float) -> None:
        if not sample_period_s >= 0.0:
            raise ValueError(
                f"sample_period_s must be >= 0, got {sample_period_s}"
            )
        #: Minimum spacing between samples (0.0 = every event boundary).
        self.sample_period_s = sample_period_s
        self._times: list[float] = []
        self._rows: list[dict[str, float]] = []
        self._names: list[str] = []  # union of series names, first-seen order

    def record(self, t_s: float, values: Mapping[str, float]) -> None:
        """Append one sample (timestamps must arrive non-decreasing --
        the event loop's clock is monotone)."""
        row = dict(values)
        self._times.append(t_s)
        self._rows.append(row)
        for name in row:
            if name not in self._names:
                self._names.append(name)

    # -- reads ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def start_s(self) -> float:
        return self._times[0] if self._times else 0.0

    @property
    def end_s(self) -> float:
        return self._times[-1] if self._times else 0.0

    def series(self, name: str) -> tuple[float, ...]:
        """One series densified over every sample (missing cells 0.0)."""
        return tuple(row.get(name, 0.0) for row in self._rows)

    def last(self, name: str) -> float:
        """The series' value at the final sample."""
        return self._rows[-1].get(name, 0.0) if self._rows else 0.0

    # -- exports -------------------------------------------------------
    def to_json(self) -> dict:
        """Schema-versioned dict: parallel ``t_s`` and per-series
        value arrays."""
        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "sample_period_s": self.sample_period_s,
            "samples": len(self._times),
            "t_s": list(self._times),
            "series": {name: list(self.series(name)) for name in self._names},
        }

    def to_json_str(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=False)

    def to_csv(self) -> str:
        """One header row (``t_s`` + series names), one line per
        sample, missing cells 0.0."""
        out = io.StringIO()
        out.write(",".join(["t_s", *self._names]) + "\n")
        for t, row in zip(self._times, self._rows):
            cells = [repr(t)] + [repr(row.get(n, 0.0)) for n in self._names]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def summary_table(self, width: int = 40) -> Table:
        """Min/mean/max plus an ASCII sparkline per series."""
        table = Table(
            f"Timeline ({len(self._times)} samples, "
            f"{self.start_s:.1f}-{self.end_s:.1f} s)",
            ["series", "min", "mean", "max", f"trend ({width} cells)"],
        )
        for name in self._names:
            values = self.series(name)
            table.add_row(
                [
                    name,
                    min(values),
                    mean(values),
                    max(values),
                    sparkline(values, width),
                ]
            )
        return table
