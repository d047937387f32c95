"""Unit tests for the ``repro.obs`` building blocks: the span ring,
the metrics timeline, the Chrome-trace exporter/validator, and the
recorder's bookkeeping -- all without running a simulation."""

import json

import pytest

from repro.obs import (
    DECODE,
    DURATION_STAGES,
    INSTANT_STAGES,
    PREFILL,
    QUEUED,
    REQUEST,
    SHED,
    TIMELINE_SCHEMA_VERSION,
    Span,
    SpanLog,
    Timeline,
    TraceConfig,
    TraceRecorder,
    sparkline,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.util.tables import format_cell


class TestSpan:
    def test_duration(self):
        span = Span(7, DECODE, 1.0, 3.5)
        assert span.duration_s == 2.5
        assert span.pod == "" and span.tenant == "" and span.detail == ""

    def test_stage_vocabulary_is_disjoint(self):
        assert not set(DURATION_STAGES) & set(INSTANT_STAGES)
        assert REQUEST not in DURATION_STAGES
        assert REQUEST not in INSTANT_STAGES


class TestSpanLog:
    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="cap"):
            SpanLog(0)

    def test_append_below_cap_keeps_everything(self):
        log = SpanLog(4)
        for i in range(3):
            log.append(Span(i, QUEUED, float(i), float(i)))
        assert len(log) == 3
        assert log.emitted == 3
        assert log.dropped == 0
        assert [s.request_id for s in log] == [0, 1, 2]

    def test_ring_overwrites_oldest_and_counts_drops(self):
        log = SpanLog(3)
        for i in range(7):
            log.append(Span(i, QUEUED, float(i), float(i)))
        assert len(log) == 3
        assert log.emitted == 7
        assert log.dropped == 4
        # Oldest-emission-first iteration of the newest survivors.
        assert [s.request_id for s in log.spans()] == [4, 5, 6]


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_is_mid_height(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▄▄▄"

    def test_ramp_spans_the_glyph_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_long_series_is_bucketed_to_width(self):
        line = sparkline(list(range(1000)), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"


class TestTimeline:
    def test_period_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="sample_period_s"):
            Timeline(-0.1)

    def test_ragged_series_densify_to_zero(self):
        tl = Timeline(0.0)
        tl.record(0.0, {"queue_depth": 1.0})
        tl.record(1.0, {"queue_depth": 2.0, "inflight.batch": 3.0})
        assert tl.names == ("queue_depth", "inflight.batch")
        assert tl.series("inflight.batch") == (0.0, 3.0)
        assert tl.last("queue_depth") == 2.0
        assert tl.last("missing") == 0.0
        assert (tl.start_s, tl.end_s) == (0.0, 1.0)
        assert len(tl) == 2

    def test_to_json_schema(self):
        tl = Timeline(0.5)
        tl.record(0.0, {"a": 1.0})
        tl.record(2.0, {"a": 4.0})
        blob = tl.to_json()
        assert blob["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert blob["sample_period_s"] == 0.5
        assert blob["samples"] == 2
        assert blob["t_s"] == [0.0, 2.0]
        assert blob["series"] == {"a": [1.0, 4.0]}
        # Round-trips through json.dumps (no exotic values).
        assert json.loads(tl.to_json_str()) == blob

    def test_to_csv_round_trips_floats(self):
        tl = Timeline(0.0)
        tl.record(0.1, {"a": 1.0 / 3.0})
        tl.record(0.2, {"a": 2.0, "b": 5.0})
        lines = tl.to_csv().strip().splitlines()
        assert lines[0] == "t_s,a,b"
        first = lines[1].split(",")
        # repr() floats: bit-exact on parse-back.
        assert float(first[1]) == 1.0 / 3.0
        assert lines[2].split(",")[2] == "5.0"

    def test_summary_table_renders_every_series(self):
        tl = Timeline(0.0)
        for t in range(5):
            tl.record(float(t), {"a": float(t), "b": 1.0})
        rendered = tl.summary_table(width=8).render()
        assert "a" in rendered and "b" in rendered
        assert "▄" in rendered  # the flat series' mid-height line


class TestTraceConfig:
    def test_rejects_negative_period(self):
        with pytest.raises(ValueError, match="sample_period_s"):
            TraceConfig(sample_period_s=-1.0)

    def test_rejects_nonpositive_span_cap(self):
        with pytest.raises(ValueError, match="max_spans"):
            TraceConfig(max_spans=0)


class TestTraceRecorder:
    def test_root_span_lifecycle(self):
        rec = TraceRecorder(TraceConfig())
        rec.arrival(1, 0.0, "chat")
        rec.arrival(2, 0.5, "chat")
        rec.close_root(1, 2.0, "completed")
        rec.close_root(2, 3.0, "shed")
        assert rec.open_roots == 0
        recording = rec.recording()
        roots = [s for s in recording.spans if s.stage == REQUEST]
        assert {(s.request_id, s.detail) for s in roots} == {
            (1, "completed"),
            (2, "shed"),
        }
        # A shed close also drops a terminal instant marker.
        assert [s.request_id for s in recording.spans if s.stage == SHED] == [2]
        assert recording.counters["arrivals"] == 2
        assert recording.counters["completed"] == 1
        assert recording.counters["shed"] == 1

    def test_close_root_without_arrival_is_a_noop(self):
        rec = TraceRecorder(TraceConfig())
        rec.close_root(99, 1.0, "completed")
        assert rec.recording().spans == ()
        assert "completed" not in rec.recording().counters

    def test_spans_off_still_counts(self):
        rec = TraceRecorder(TraceConfig(spans=False))
        rec.arrival(1, 0.0, "chat")
        rec.span(1, QUEUED, 0.0, 1.0)
        rec.close_root(1, 2.0, "completed")
        recording = rec.recording()
        assert recording.spans == ()
        assert recording.emitted_spans == 0
        assert recording.counters["completed"] == 1

    def test_sampling_is_rate_limited(self):
        rec = TraceRecorder(TraceConfig(sample_period_s=1.0))
        assert rec.want_sample(0.0)
        rec.record_sample(0.0, {"g": 1.0})
        assert not rec.want_sample(0.5)
        assert rec.want_sample(1.0)
        rec.finish(1.25, {"g": 2.0})  # forced despite the period
        assert len(rec.timeline) == 2
        assert rec.timeline.end_s == 1.25

    def test_metrics_off_records_nothing(self):
        rec = TraceRecorder(TraceConfig(metrics=False))
        assert not rec.want_sample(10.0)
        rec.finish(10.0, {"g": 1.0})
        assert len(rec.timeline) == 0

    def test_samples_merge_inflight_and_counters(self):
        rec = TraceRecorder(TraceConfig(sample_period_s=0.0))
        rec.arrival(1, 0.0, "chat")
        rec.arrival(2, 0.0, "")
        rec.record_sample(0.0, {"queue_depth": 4.0})
        rec.close_root(1, 1.0, "completed")
        rec.record_sample(1.0, {"queue_depth": 0.0})
        assert rec.timeline.series("inflight.chat") == (1.0, 0.0)
        assert rec.timeline.series("inflight") == (1.0, 1.0)
        assert rec.timeline.series("completed") == (0.0, 1.0)
        assert rec.timeline.last("queue_depth") == 0.0

    def test_event_tally(self):
        rec = TraceRecorder(TraceConfig())
        rec.event(3)
        rec.event(3)
        rec.event(0)
        assert rec.recording().event_counts[3] == 2
        assert rec.recording().event_counts[0] == 1

    def test_stage_counts_and_summary_table(self):
        rec = TraceRecorder(TraceConfig())
        rec.span(1, QUEUED, 0.0, 1.0)
        rec.span(1, PREFILL, 1.0, 2.0)
        rec.span(2, QUEUED, 0.0, 3.0)
        recording = rec.recording()
        assert recording.stage_counts() == {QUEUED: 2, PREFILL: 1}
        rendered = recording.summary_table().render()
        assert "queued" in rendered and "prefill" in rendered


class TestSummarySums:
    """Summary floats are plain left-to-right sums, the same on every
    interpreter: Python 3.12's compensated builtin ``sum()`` turns the
    cancelling series below into 1.0 instead of 0.0."""

    CANCELLING = (1e16, 1.0, -1e16)

    def test_sparkline_cell_means(self):
        # The first cell averages the cancelling series to 0.0, like the
        # second's zeros, so the line is flat.
        assert sparkline([*self.CANCELLING, 0.0, 0.0, 0.0], width=2) == "▄▄"

    def test_timeline_summary_mean(self):
        tl = Timeline(0.0)
        for t, value in enumerate(self.CANCELLING):
            tl.record(float(t), {"a": value})
        (row,) = tl.summary_table().rows
        assert row[2] == format_cell(0.0)

    def test_trace_summary_total_and_mean(self):
        rec = TraceRecorder(TraceConfig())
        rec.span(1, QUEUED, 0.0, 1e16)
        rec.span(2, QUEUED, 0.0, 1.0)
        rec.span(3, QUEUED, 1e16, 0.0)
        (row,) = rec.recording().summary_table().rows
        assert row[2] == row[3] == format_cell(0.0)


class TestChromeTrace:
    def _spans(self):
        return [
            Span(1, REQUEST, 0.0, 4.0, tenant="chat", detail="completed"),
            Span(1, QUEUED, 0.0, 1.0, tenant="chat"),
            Span(1, PREFILL, 1.0, 2.0, pod="gpu-0", tenant="chat"),
            Span(1, DECODE, 2.0, 4.0, pod="rpu-0", tenant="chat"),
            Span(2, REQUEST, 0.5, 0.5, tenant="chat", detail="shed"),
            Span(2, SHED, 0.5, 0.5, tenant="chat"),
        ]

    def test_export_is_valid(self):
        trace = to_chrome_trace(self._spans(), dropped=3)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"] == {"spans": 6, "dropped_spans": 3}

    def test_one_process_per_pod_plus_requests(self):
        trace = to_chrome_trace(self._spans())
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {"requests", "pod gpu-0", "pod rpu-0"}

    def test_overlapping_pod_spans_use_separate_lanes(self):
        spans = [
            Span(1, DECODE, 0.0, 2.0, pod="rpu-0"),
            Span(2, DECODE, 1.0, 3.0, pod="rpu-0"),  # overlaps span 1
            Span(3, DECODE, 2.5, 4.0, pod="rpu-0"),  # lane 0 is free again
        ]
        trace = to_chrome_trace(spans)
        assert validate_chrome_trace(trace) == []
        begin_lanes = {
            e["args"]["request_id"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "B"
        }
        assert begin_lanes[1] != begin_lanes[2]
        assert begin_lanes[3] == begin_lanes[1]

    def test_instants_and_async_pairs(self):
        trace = to_chrome_trace(self._spans())
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases.count("n") == 1  # the shed marker
        assert phases.count("b") == phases.count("e")

    def test_validator_flags_missing_keys(self):
        problems = validate_chrome_trace({"traceEvents": [{"ph": "B"}]})
        assert any("missing key" in p for p in problems)

    def test_validator_flags_nonmonotonic_ts(self):
        events = [
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 0},
            {"name": "b", "ph": "i", "ts": 1.0, "pid": 1, "tid": 0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("precedes" in p for p in problems)

    def test_validator_flags_unbalanced_duration_pairs(self):
        events = [
            {"name": "x", "ph": "B", "ts": 0.0, "pid": 1, "tid": 0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("unclosed B" in p for p in problems)
        events = [
            {"name": "x", "ph": "E", "ts": 0.0, "pid": 1, "tid": 0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("empty stack" in p for p in problems)

    def test_validator_flags_unmatched_async(self):
        events = [
            {"name": "r1", "ph": "b", "ts": 0.0, "pid": 1, "tid": 0, "id": 1},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("unclosed" in p for p in problems)
        events = [
            {"name": "r1", "ph": "e", "ts": 0.0, "pid": 1, "tid": 0, "id": 1},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("without open b" in p for p in problems)

    def test_not_a_trace(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
