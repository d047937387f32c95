"""The trace recorder: opt-in, bounded, and incapable of perturbation.

:class:`TraceRecorder` is the object the simulator threads through its
event handlers when a :class:`TraceConfig` is set.  Its contract is
the same one ``REPRO_CHECK`` enforces for probes: the recorder only
*reads* simulator state and only *writes* its own buffers, so a traced
run's digest is bit-identical to an untraced one.  Every emit call in
the simulator sits behind an ``if obs is not None`` guard (the
``obs_hygiene`` simlint checker pins this), so the disabled path costs
one attribute read per handler.

Bounded when on: spans land in a ring (:class:`~repro.obs.spans.SpanLog`,
honest ``dropped`` counter), metric samples are rate-limited by
``sample_period_s``.  After the run, :meth:`TraceRecorder.recording`
freezes the span side into a :class:`TraceRecording` (the report's
``.trace``) while the timeline is surfaced as-is (the report's
``.timeline``).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from repro.obs.chrome import to_chrome_trace
from repro.obs.metrics import Timeline
from repro.obs.spans import (
    REJECTED,
    REQUEST,
    SHED,
    Span,
    SpanLog,
)
from repro.util.stats import left_sum
from repro.util.tables import Table

__all__ = ["TraceConfig", "TraceRecorder", "TraceRecording"]


@dataclass(frozen=True)
class TraceConfig:
    """Knobs for the opt-in observability layer.

    The recorder only exists when a config is set
    (``ClusterConfig.trace`` / ``Scenario.trace``); ``None`` is the
    zero-cost default.
    """

    #: Record lifecycle spans (the Chrome-trace side).
    spans: bool = True
    #: Sample gauges/counters at event boundaries (the timeline side).
    metrics: bool = True
    #: Minimum sim-time spacing between timeline samples; 0.0 samples
    #: at every event boundary (bounded by the event count, not time).
    sample_period_s: float = 0.05
    #: Span ring capacity; overflow drops the *oldest* spans and counts
    #: them in ``report.trace.dropped_spans`` (never silent).
    max_spans: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.sample_period_s >= 0.0:
            raise ValueError(
                f"sample_period_s must be >= 0, got {self.sample_period_s}"
            )
        if self.max_spans <= 0:
            raise ValueError(
                f"max_spans must be positive, got {self.max_spans}"
            )


@dataclass(frozen=True)
class TraceRecording:
    """Frozen span-side result of a traced run (``report.trace``)."""

    spans: tuple[Span, ...]
    #: Spans ever emitted (``len(spans) + dropped_spans``).
    emitted_spans: int
    #: Oldest spans overwritten by the ring bound.
    dropped_spans: int
    #: Cumulative named counters (completed / shed / rejected /
    #: preempted / swapped / scale_up / scale_down / ...).
    counters: Mapping[str, int]
    #: Handled events per engine event kind index.
    event_counts: tuple[int, ...]

    def to_chrome_trace(self) -> dict:
        """The ``trace_event`` object (see :mod:`repro.obs.chrome`)."""
        return to_chrome_trace(self.spans, dropped=self.dropped_spans)

    def to_chrome_json(self, indent: int | None = None) -> str:
        """Chrome-trace JSON; load it in ``chrome://tracing`` or
        Perfetto."""
        return json.dumps(self.to_chrome_trace(), indent=indent)

    def stage_counts(self) -> dict[str, int]:
        """Retained spans per stage name."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.stage] = counts.get(span.stage, 0) + 1
        return counts

    def summary_table(self) -> Table:
        table = Table(
            f"Trace ({len(self.spans)} spans retained, "
            f"{self.dropped_spans} dropped)",
            ["stage", "spans", "total_s", "mean_s", "max_s"],
        )
        totals: dict[str, list[float]] = {}
        for span in self.spans:
            totals.setdefault(span.stage, []).append(span.duration_s)
        for stage, durations in sorted(totals.items()):
            total = left_sum(durations)
            table.add_row(
                [
                    stage,
                    len(durations),
                    total,
                    total / len(durations),
                    max(durations),
                ]
            )
        return table


class TraceRecorder:
    """Pure observer the simulator emits spans and samples into.

    Mutates nothing but its own buffers; reads of simulator state
    happen in the *caller* (the cluster builds the gauge dict), so the
    recorder cannot reach into the simulation at all.
    """

    __slots__ = (
        "config",
        "spans",
        "timeline",
        "counters",
        "event_counts",
        "_open_roots",
        "_inflight",
        "_last_sample_s",
    )

    def __init__(self, config: TraceConfig) -> None:
        self.config = config
        self.spans = SpanLog(config.max_spans)
        self.timeline = Timeline(config.sample_period_s)
        self.counters: dict[str, int] = {}
        self.event_counts = [0] * 16
        #: Open root spans: request_id -> (arrival_s, tenant).
        self._open_roots: dict[int, tuple[float, str]] = {}
        #: In-flight (arrived, unresolved) requests per tenant.
        self._inflight: dict[str, int] = {}
        self._last_sample_s = float("-inf")

    # -- span side -----------------------------------------------------
    def span(
        self,
        request_id: int,
        stage: str,
        start_s: float,
        end_s: float,
        *,
        pod: str = "",
        tenant: str = "",
        detail: str = "",
    ) -> None:
        """Record one closed lifecycle span."""
        if self.config.spans:
            self.spans.append(
                Span(request_id, stage, start_s, end_s, pod, tenant, detail)
            )

    def instant(
        self,
        request_id: int,
        stage: str,
        t_s: float,
        *,
        pod: str = "",
        tenant: str = "",
    ) -> None:
        """Record a zero-length marker (shed / rejected / preempted)."""
        self.span(request_id, stage, t_s, t_s, pod=pod, tenant=tenant)

    def arrival(self, request_id: int, t_s: float, tenant: str) -> None:
        """Open the request's root span and bump its tenant's
        in-flight gauge."""
        self._open_roots[request_id] = (t_s, tenant)
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self.count("arrivals")

    def close_root(self, request_id: int, t_s: float, outcome: str) -> None:
        """Close the root span with its terminal ``outcome``
        (completed / shed / rejected) and count it."""
        opened = self._open_roots.pop(request_id, None)
        if opened is None:
            return
        start_s, tenant = opened
        self._inflight[tenant] -= 1
        self.count(outcome)
        self.span(
            request_id, REQUEST, start_s, t_s, tenant=tenant, detail=outcome
        )
        if outcome == SHED or outcome == REJECTED:
            self.instant(request_id, outcome, t_s, tenant=tenant)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- timeline side -------------------------------------------------
    def event(self, kind: int) -> None:
        """Tally one handled engine event by kind index."""
        self.event_counts[kind] += 1

    def want_sample(self, now: float) -> bool:
        """Whether a timeline sample is due at ``now`` (rate-limited by
        ``sample_period_s``; callers skip building the gauge dict when
        False)."""
        return (
            self.config.metrics
            and now - self._last_sample_s >= self.config.sample_period_s
        )

    def record_sample(self, now: float, gauges: Mapping[str, float]) -> None:
        """Append one timeline sample: the caller's gauges plus the
        recorder's own cumulative counters and per-tenant in-flight."""
        self._last_sample_s = now
        row = dict(gauges)
        for tenant, n in self._inflight.items():
            row[f"inflight.{tenant}" if tenant else "inflight"] = float(n)
        for name in ("completed", "shed", "rejected", "preempted"):
            row[name] = float(self.counters.get(name, 0))
        self.timeline.record(now, row)

    def finish(self, now: float, gauges: Mapping[str, float]) -> None:
        """Force a final sample so the timeline covers the full run
        window regardless of the sampling period."""
        if self.config.metrics:
            self.record_sample(now, gauges)

    # -- freeze --------------------------------------------------------
    @property
    def open_roots(self) -> int:
        """Root spans still open (0 after a fully drained run)."""
        return len(self._open_roots)

    def recording(self) -> TraceRecording:
        return TraceRecording(
            spans=self.spans.spans(),
            emitted_spans=self.spans.emitted,
            dropped_spans=self.spans.dropped,
            counters=dict(self.counters),
            event_counts=tuple(self.event_counts),
        )
