"""Pipeline timelines: busy intervals, kernel spans, binned utilization.

These produce the Fig 8 panels: per-pipeline utilization over time with
per-kernel average utilization (the figure's red lines), and ASCII
rendering for the benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.stats import left_sum


@dataclass
class Interval:
    start: float
    end: float
    kernel: str
    work: float = 0.0  # e.g. FLOPs, for work-based utilization

    @property
    def duration(self) -> float:
        return self.end - self.start


class PipelineTrace:
    """Busy-interval log of one pipeline (memory / compute / network)."""

    def __init__(self, name: str):
        self.name = name
        self.intervals: list[Interval] = []

    def add(self, start: float, end: float, kernel: str = "", work: float = 0.0) -> None:
        if end < start:
            raise ValueError(f"{self.name}: interval ends before it starts")
        self.intervals.append(Interval(start, end, kernel, work))

    @property
    def busy_s(self) -> float:
        return left_sum(interval.duration for interval in self.intervals)

    @property
    def total_work(self) -> float:
        return left_sum(interval.work for interval in self.intervals)

    def utilization(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            return 0.0
        return min(self.busy_s / elapsed_s, 1.0)

    def kernel_spans(self) -> dict[str, tuple[float, float, float]]:
        """kernel -> (first start, last end, busy seconds).

        The per-kernel average utilization (busy / span) is Fig 8's red
        line for that kernel's window.
        """
        spans: dict[str, tuple[float, float, float]] = {}
        for interval in self.intervals:
            key = interval.kernel or "?"
            if key in spans:
                first, last, busy = spans[key]
                spans[key] = (
                    min(first, interval.start),
                    max(last, interval.end),
                    busy + interval.duration,
                )
            else:
                spans[key] = (interval.start, interval.end, interval.duration)
        return spans

    def binned_utilization(self, bin_s: float, until_s: float) -> list[float]:
        """Busy fraction per time bin (for plotting/ASCII timelines)."""
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        num_bins = max(1, int(until_s / bin_s) + 1)
        busy = [0.0] * num_bins
        for interval in self.intervals:
            first = int(interval.start / bin_s)
            last = min(int(interval.end / bin_s), num_bins - 1)
            for index in range(first, last + 1):
                lo = max(interval.start, index * bin_s)
                hi = min(interval.end, (index + 1) * bin_s)
                if hi > lo:
                    busy[index] += hi - lo
        return [min(b / bin_s, 1.0) for b in busy]

    def render_ascii(self, bin_s: float, until_s: float, width_limit: int = 100) -> str:
        """One-line ASCII utilization strip (' ' = idle .. '#' = saturated)."""
        bins = self.binned_utilization(bin_s, until_s)
        if len(bins) > width_limit:
            stride = len(bins) / width_limit
            bins = [
                max(bins[int(i * stride) : max(int((i + 1) * stride), int(i * stride) + 1)])
                for i in range(width_limit)
            ]
        glyphs = " .:-=+*#"
        cells = [glyphs[min(int(b * (len(glyphs) - 1) + 0.5), len(glyphs) - 1)] for b in bins]
        return f"{self.name:>7} |{''.join(cells)}|"
