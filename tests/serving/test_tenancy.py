"""Multi-tenant fleet operations: SLO classes, arrival traces, admission
control (shedding conservation), the autoscaler control loop, the
per-tenant report surface, and the scenario registry."""

import json
import math
import re

import pytest
from fleets import fleet

from repro.api import (
    SCENARIOS,
    PodGroup,
    Scenario,
    TrafficSpec,
    multi_tenant_prod,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import PrefillPolicy, simulate
from repro.serving.requests import (
    ArrivalTrace,
    Request,
    TraceRow,
    TrafficClass,
    merge_requests,
    reasoning_traffic,
)
from repro.serving.tenancy import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    AdmissionConfig,
    AutoscalerConfig,
    CostModel,
    SloClass,
    TenantSpec,
    TokenBucket,
    fairness,
)


# ----------------------------------------------------------------------
# SLO classes, tenants, buckets: the pure-configuration layer
# ----------------------------------------------------------------------
class TestSloClass:
    def test_attained_checks_every_finite_target(self):
        slo = SloClass("chat", ttft_s=1.0, tpot_s=0.1)
        assert slo.attained(0.5, 0.05, 100.0)  # e2e unbounded
        assert not slo.attained(1.5, 0.05, 100.0)
        assert not slo.attained(0.5, 0.2, 100.0)

    def test_batch_class_attains_any_completion(self):
        assert BATCH.attained(1e9, 1e9, 1e9)

    def test_presets_are_ordered_by_strictness(self):
        assert INTERACTIVE.ttft_s < STANDARD.ttft_s
        assert math.isinf(BATCH.ttft_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            SloClass("")
        with pytest.raises(ValueError):
            SloClass("x", ttft_s=0.0)
        with pytest.raises(ValueError):
            SloClass("x", tpot_s=-1.0)
        with pytest.raises(ValueError):
            SloClass("x", e2e_s=float("nan"))


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("t", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("t", weight=-1.0)

    def test_anonymous_tenant_allowed_outside_rosters(self):
        # The flat single-mix shorthand denotes this tenant...
        assert TenantSpec("").name == ""
        # ... but a roster must name everyone.
        with pytest.raises(ValueError, match="non-empty names"):
            TrafficSpec(tenants=(
                TenantSpec("", traffic=TrafficSpec(duration_s=1.0)),
            ))


class TestTokenBucket:
    def test_starts_full_and_pays_in_full_or_not_at_all(self):
        bucket = TokenBucket(rate=10.0, capacity=100.0)
        assert bucket.take(0.0, 100.0)
        # Empty now: a partial payment must not drain anything.
        assert not bucket.take(0.0, 1.0)
        assert bucket.peek(0.0) == 0.0

    def test_refills_continuously_and_clamps_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=100.0)
        assert bucket.take(0.0, 100.0)
        assert bucket.peek(5.0) == pytest.approx(50.0)
        assert bucket.peek(1000.0) == 100.0  # clamped
        # Time never runs backwards inside the bucket.
        assert bucket.peek(5.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


class TestAdmissionConfig:
    def test_bucket_scales_with_weight(self):
        cfg = AdmissionConfig(tokens_per_s_per_weight=100.0, burst_s=2.0)
        heavy, light = cfg.bucket(2.0), cfg.bucket(0.5)
        assert heavy.rate == 200.0 and heavy.capacity == 400.0
        assert light.rate == 50.0 and light.capacity == 100.0

    def test_validation(self):
        for bad in (
            dict(pressure_floor=0.0),
            dict(queue_depth_scale=0.0),
            dict(tokens_per_s_per_weight=0.0),
            dict(burst_s=0.0),
        ):
            with pytest.raises(ValueError):
                AdmissionConfig(**bad)


class TestAutoscalerConfig:
    def test_validation(self):
        for bad in (
            dict(control_period_s=0.0),
            dict(scale_up_pressure=0.2, scale_down_pressure=0.5),
            dict(scale_down_pressure=-0.1),
            dict(queue_depth_scale=0.0),
            dict(min_decode_pods=0),
            dict(min_prefill_pods=5, max_prefill_pods=2),
            dict(max_total_pods=1),  # cannot cover both pools' minimums
            dict(provision_s=-1.0),
        ):
            with pytest.raises(ValueError):
                AutoscalerConfig(**bad)


class TestCostModel:
    def test_rate_falls_back_to_default(self):
        model = CostModel(
            default_usd_per_pod_hour=2.0, usd_per_pod_hour={"rpu": 1.0}
        )
        assert model.rate("rpu") == 1.0
        assert model.rate("h100") == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(default_usd_per_pod_hour=-1.0)
        with pytest.raises(ValueError):
            CostModel(usd_per_pod_hour={"rpu": -0.5})


class TestFairness:
    def test_degenerate_inputs_report_one(self):
        assert fairness([]) == 1.0
        assert fairness({"a": 0.0, "b": 0.0}) == 1.0

    def test_ratio_and_starvation(self):
        assert fairness({"a": 0.5, "b": 1.0}) == pytest.approx(2.0)
        assert math.isinf(fairness({"a": 0.0, "b": 0.9}))


# ----------------------------------------------------------------------
# Arrival traces: validation, files, generators, replay
# ----------------------------------------------------------------------
class TestTraceValidation:
    def test_non_monotone_rejected_with_row_index(self):
        rows = (TraceRow(0.0), TraceRow(2.0), TraceRow(1.0))
        with pytest.raises(ValueError, match="trace row 2.*non-monotone"):
            ArrivalTrace(rows)

    def test_non_finite_and_negative_rejected(self):
        with pytest.raises(ValueError, match="trace row 0"):
            ArrivalTrace((TraceRow(-1.0),))
        with pytest.raises(ValueError, match="finite"):
            ArrivalTrace((TraceRow(float("nan")),))
        with pytest.raises(ValueError, match="finite"):
            ArrivalTrace((TraceRow(float("inf")),))

    def test_equal_timestamps_are_fine(self):
        trace = ArrivalTrace((TraceRow(1.0), TraceRow(1.0)))
        assert len(trace) == 2

    def test_empty_trace(self):
        trace = ArrivalTrace()
        assert len(trace) == 0
        assert trace.duration_s == 0.0
        spec = TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), seed=3, trace=trace
        )
        assert spec.requests(LLAMA3_70B) == []

    def test_from_times_and_duration(self):
        trace = ArrivalTrace.from_times([0.5, 1.0, 4.0])
        assert len(trace) == 3
        assert trace.duration_s == 4.0

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            TraceRow(0.0, prompt_len=0)
        with pytest.raises(ValueError):
            TraceRow(0.0, decode_len=0)


class TestTraceFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([
            {"arrival_s": 0.0, "prompt_len": 128, "decode_len": 64},
            {"arrival_s": 1.5, "priority": 3},
            {"arrival_s": 2.0},
        ]))
        trace = ArrivalTrace.from_json(str(path))
        assert len(trace) == 3
        assert trace.rows[0].prompt_len == 128
        assert trace.rows[1].priority == 3
        assert trace.rows[2].prompt_len is None

    def test_json_must_be_a_list_of_objects(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"arrival_s": 0.0}))
        with pytest.raises(ValueError, match="list of row objects"):
            ArrivalTrace.from_json(str(path))
        path.write_text(json.dumps([[0.0]]))
        with pytest.raises(ValueError, match="row 0"):
            ArrivalTrace.from_json(str(path))

    def test_csv_round_trip_with_empty_cells(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "arrival_s,prompt_len,decode_len,priority\n"
            "0.0,128,64,1\n"
            "1.5,,,\n"
        )
        trace = ArrivalTrace.from_csv(str(path))
        assert trace.rows[0] == TraceRow(0.0, 128, 64, 1)
        assert trace.rows[1] == TraceRow(1.5)  # empty cells -> sampled

    def test_json_cells_must_be_integral_numbers(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([{"arrival_s": 0.0, "prompt_len": 3.0}]))
        assert ArrivalTrace.from_json(str(path)).rows[0].prompt_len == 3
        for cells, column in (
            ({"prompt_len": 3.7}, "prompt_len"),
            ({"decode_len": True}, "decode_len"),
            ({"priority": "high"}, "priority"),
            ({"arrival_s": "soon"}, "arrival_s"),
        ):
            path.write_text(json.dumps([
                {"arrival_s": 0.0},
                {"arrival_s": 1.0, **cells},
            ]))
            with pytest.raises(
                ValueError, match=re.escape(f"{path}: row 1 column {column}")
            ):
                ArrivalTrace.from_json(str(path))
        path.write_text(json.dumps([{"arrival_s": 0.0, "decode_len": 0}]))
        with pytest.raises(ValueError, match=re.escape(f"{path}: row 0: decode_len")):
            ArrivalTrace.from_json(str(path))

    def test_csv_cells_must_be_integral_numbers(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "arrival_s,prompt_len,decode_len,priority\n"
            "0.0,3.0,64,1\n"
        )
        assert ArrivalTrace.from_csv(str(path)).rows[0] == TraceRow(0.0, 3, 64, 1)
        for row, column in (
            ("1.0,3.7,64,", "prompt_len"),
            ("1.0,128,True,", "decode_len"),
            ("1.0,128,64,high", "priority"),
            ("soon,128,64,", "arrival_s"),
        ):
            path.write_text(
                "arrival_s,prompt_len,decode_len,priority\n"
                f"0.0,,,\n{row}\n"
            )
            with pytest.raises(
                ValueError, match=re.escape(f"{path}: row 1 column {column}")
            ):
                ArrivalTrace.from_csv(str(path))

    def test_csv_requires_arrival_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("prompt_len,decode_len\n128,64\n")
        with pytest.raises(ValueError, match="arrival_s column"):
            ArrivalTrace.from_csv(str(path))
        path.write_text("arrival_s,prompt_len\n,128\n")
        with pytest.raises(ValueError, match="row 0 missing arrival_s"):
            ArrivalTrace.from_csv(str(path))

    def test_non_monotone_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("arrival_s\n2.0\n1.0\n")
        with pytest.raises(ValueError, match="non-monotone"):
            ArrivalTrace.from_csv(str(path))


class TestTraceGenerators:
    def test_diurnal_is_monotone_bounded_and_seeded(self):
        trace = ArrivalTrace.diurnal(4.0, 30.0, seed=5)
        times = [row.arrival_s for row in trace.rows]
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)
        assert trace.rows == ArrivalTrace.diurnal(4.0, 30.0, seed=5).rows
        assert trace.rows != ArrivalTrace.diurnal(4.0, 30.0, seed=6).rows

    def test_flash_crowd_concentrates_in_the_spike(self):
        trace = ArrivalTrace.flash_crowd(
            1.0, 60.0, peak_rps=10.0, spike_start_s=20.0,
            spike_duration_s=10.0, seed=5,
        )
        times = [row.arrival_s for row in trace.rows]
        assert times == sorted(times)
        in_spike = sum(1 for t in times if 20.0 <= t < 30.0)
        before = sum(1 for t in times if t < 20.0)
        # 10 s at 10 rps dwarfs 20 s at 1 rps.
        assert in_spike > 2 * before

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ArrivalTrace.diurnal(0.0, 10.0)
        with pytest.raises(ValueError):
            ArrivalTrace.diurnal(1.0, 10.0, amplitude=1.5)
        with pytest.raises(ValueError):
            ArrivalTrace.diurnal(1.0, 10.0, period_s=0.0)
        with pytest.raises(ValueError):
            ArrivalTrace.flash_crowd(1.0, 0.0)
        with pytest.raises(ValueError):
            ArrivalTrace.flash_crowd(2.0, 10.0, peak_rps=1.0)
        with pytest.raises(ValueError):
            ArrivalTrace.flash_crowd(1.0, 10.0, spike_duration_s=0.0)


class TestReplay:
    def replay(self, trace, seed=0):
        return TrafficSpec(
            classes=(TrafficClass(LLAMA3_70B, prompt_mean=512,
                                  decode_mean=128),),
            seed=seed,
            trace=trace,
        ).requests(LLAMA3_70B)

    def test_fully_specified_rows_pass_through(self):
        trace = ArrivalTrace((
            TraceRow(0.0, prompt_len=100, decode_len=50),
            TraceRow(2.0, prompt_len=200, decode_len=60, priority=7),
        ))
        requests = self.replay(trace)
        assert [r.arrival_s for r in requests] == [0.0, 2.0]
        assert [(r.prompt_len, r.decode_len) for r in requests] == [
            (100, 50), (200, 60),
        ]
        # Row priority overrides the class priority.
        assert requests[1].priority == 7

    def test_missing_lengths_sampled_deterministically(self):
        trace = ArrivalTrace.from_times([0.0, 1.0, 2.0])
        a = self.replay(trace, seed=9)
        b = self.replay(trace, seed=9)
        assert a == b
        assert all(r.prompt_len >= 1 and r.decode_len >= 1 for r in a)


class TestMergeRequests:
    def test_orders_renumbers_and_breaks_ties_by_stream(self):
        model = LLAMA3_70B
        first = [
            Request(0, 1.0, model, prompt_len=10, decode_len=5),
            Request(1, 3.0, model, prompt_len=11, decode_len=5),
        ]
        second = [Request(0, 1.0, model, prompt_len=20, decode_len=5)]
        merged = merge_requests(first, second)
        assert [r.request_id for r in merged] == [0, 1, 2]
        assert [r.arrival_s for r in merged] == [1.0, 1.0, 3.0]
        # Tie at t=1.0 breaks toward the earlier stream.
        assert merged[0].prompt_len == 10 and merged[1].prompt_len == 20

    def test_empty_streams(self):
        assert merge_requests() == []
        assert merge_requests([], []) == []


# ----------------------------------------------------------------------
# The one-tenant shorthand is the PR 5 path, bit for bit
# ----------------------------------------------------------------------
class TestOneTenantDigest:
    """The degenerate path (flat TrafficSpec, no roster, admission off,
    no autoscaler) must stay identical to the pre-tenancy pipeline."""

    def test_default_knobs_reproduce_the_pr5_digest(self):
        """Same fleet/traffic as TestPrefillQueueRegression (PAGED row):
        the tenancy fields at their defaults must not perturb a single
        event."""
        spec = TrafficSpec(
            rate_rps=3.0, duration_s=20.0, seed=7,
            classes=(reasoning_traffic(LLAMA3_70B),),
        )
        config = Scenario(LLAMA3_70B, kv_budget_bytes=3e9).cluster()
        assert config.tenants == ()
        assert not config.admission.enabled
        assert config.autoscaler is None
        report = simulate(config, spec.requests(LLAMA3_70B))
        digest = (
            report.duration_s,
            len(report.completed),
            report.total_preemptions,
            sum(r.completed_s for r in report.completed),
            sum(r.first_token_s for r in report.completed),
            sum(r.queue_wait_s for r in report.completed),
            report.total_energy_j,
            report.mean_decode_kv_occupancy,
        )
        expected = (  # pinned on the PR 5 checkout
            24.111887658602285, 71, 64, 913.0464670562149,
            680.7634173863541, 81.17722702445074, 99905.24898366275,
            0.7607098476289832,
        )
        assert digest[1:3] == expected[1:3]
        for got, want in zip(digest, expected):
            assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# Tenant rosters on TrafficSpec
# ----------------------------------------------------------------------
def quick_tenant(name, *, rate=2.0, trace=None, **kwargs):
    spec = TrafficSpec(
        rate_rps=rate, duration_s=5.0, prompt_mean=256, decode_mean=64,
        seed=sum(map(ord, name)), trace=trace,
    )
    return TenantSpec(name, traffic=spec, **kwargs)


class TestRosterValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TrafficSpec(tenants=(quick_tenant("a"), quick_tenant("a")))

    def test_tenant_needs_a_traffic_spec(self):
        with pytest.raises(ValueError, match="needs a TrafficSpec"):
            TrafficSpec(tenants=(TenantSpec("a"),))

    def test_rosters_are_one_level_deep(self):
        nested = TrafficSpec(tenants=(quick_tenant("inner"),))
        with pytest.raises(ValueError, match="one level deep"):
            TrafficSpec(tenants=(TenantSpec("outer", traffic=nested),))

    def test_roster_rejects_top_level_trace(self):
        with pytest.raises(ValueError, match="top-level trace"):
            TrafficSpec(
                trace=ArrivalTrace.from_times([0.0]),
                tenants=(quick_tenant("a"),),
            )


class TestRosterRequests:
    def test_requests_tagged_merged_and_priority_offset(self):
        roster = TrafficSpec(tenants=(
            quick_tenant("chat", priority=2),
            quick_tenant("batch"),
        ))
        requests = roster.requests(LLAMA3_70B)
        names = {r.tenant for r in requests}
        assert names == {"chat", "batch"}
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert all(r.priority == 2 for r in requests if r.tenant == "chat")

    def test_trace_and_generator_tenants_mix(self):
        """One tenant replays a fixed trace while another samples
        Poisson arrivals; the merged stream carries both."""
        trace = ArrivalTrace.from_times([0.5, 1.0, 1.5])
        roster = TrafficSpec(tenants=(
            quick_tenant("replayed", trace=trace),
            quick_tenant("sampled", rate=3.0),
        ))
        requests = roster.requests(LLAMA3_70B)
        replayed = [r for r in requests if r.tenant == "replayed"]
        sampled = [r for r in requests if r.tenant == "sampled"]
        assert [r.arrival_s for r in replayed] == [0.5, 1.0, 1.5]
        assert len(sampled) > 0
        assert len(replayed) + len(sampled) == len(requests)


# ----------------------------------------------------------------------
# Shedding: conservation and who pays
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shed_run():
    """Three tenants, tight single-pod fleet, flash crowd, shedding on."""
    spike = ArrivalTrace.flash_crowd(
        1.0, 20.0, peak_rps=12.0, spike_start_s=5.0, spike_duration_s=8.0,
        seed=7,
    )
    roster = TrafficSpec(tenants=(
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                trace=spike, prompt_mean=512, decode_mean=256, seed=11
            ),
            slo=INTERACTIVE, priority=2, weight=2.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=2.0, duration_s=20.0, prompt_mean=1024,
                decode_mean=4096, seed=13,
            ),
            slo=BATCH, priority=0, weight=0.5,
        ),
    ))
    fleet = Scenario(
        model=LLAMA3_70B,
        traffic=roster,
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=1, options={"num_cus": 128}),),
        kv_budget_bytes=1e9,
        admission=AdmissionConfig(enabled=True),
    )
    return fleet.run()


class TestShedding:
    def test_conservation_per_tenant_and_fleet_wide(self, shed_run):
        tenants = shed_run.per_tenant()
        for tenant in tenants.values():
            assert (
                tenant.completed + tenant.shed + tenant.rejected
                == tenant.offered
            )
        assert (
            sum(t.offered for t in tenants.values())
            == shed_run.num_submitted
        )
        assert (
            len(shed_run.completed) + len(shed_run.shed)
            + len(shed_run.rejected)
            == shed_run.num_submitted
        )

    def test_low_weight_tenant_pays_first(self, shed_run):
        tenants = shed_run.per_tenant()
        assert tenants["batch"].shed > 0
        assert tenants["interactive"].shed == 0
        assert 0.0 < tenants["batch"].shed_fraction <= 1.0

    def test_shed_records_are_flagged_and_never_served(self, shed_run):
        assert shed_run.shed
        for record in shed_run.shed:
            assert record.shed
            assert record.completed_s is None

    def test_calm_fleet_sheds_nothing(self):
        """Below the pressure floor admission is free: light load on a
        big fleet must be untouched even with shedding enabled."""
        fleet = Scenario(
            model=LLAMA3_70B,
            traffic=TrafficSpec(tenants=(
                quick_tenant("a", rate=0.5), quick_tenant("b", rate=0.5),
            )),
            admission=AdmissionConfig(enabled=True),
        )
        report = fleet.run()
        assert not report.shed
        assert report.fairness == 1.0

    def test_admission_disabled_never_sheds(self):
        """Same saturating roster shape, admission at its default
        (disabled): nothing may be dropped at the door."""
        spike_fleet = Scenario(
            model=LLAMA3_70B,
            traffic=TrafficSpec(tenants=(
                quick_tenant("a", rate=6.0), quick_tenant("b", rate=6.0),
            )),
            decode=(PodGroup("rpu", count=1, options={"num_cus": 128}),),
            kv_budget_bytes=1e9,
        )
        report = spike_fleet.run()
        assert not report.shed


# ----------------------------------------------------------------------
# Autoscaler control loop
# ----------------------------------------------------------------------
class TestAutoscaler:
    def spiky_fleet(self, **overrides):
        settings: dict = dict(
            model=LLAMA3_70B,
            traffic=TrafficSpec(
                trace=ArrivalTrace.flash_crowd(
                    1.0, 20.0, peak_rps=6.0, spike_start_s=5.0,
                    spike_duration_s=6.0, seed=7,
                ),
                prompt_mean=2048, decode_mean=4096, seed=3,
            ),
            prefill=(PodGroup("gpu", count=2),),
            decode=(PodGroup("rpu", count=1, options={"num_cus": 128}),),
            kv_budget_bytes=2e9,
            autoscaler=AutoscalerConfig(
                min_decode_pods=1, max_decode_pods=4
            ),
        )
        settings.update(overrides)
        return Scenario(**settings)

    def test_scales_up_through_the_spike_and_back_down(self):
        report = self.spiky_fleet().run()
        actions = [(e.pool, e.action) for e in report.scaling_events]
        assert ("decode", "up") in actions
        assert ("decode", "down") in actions
        # The audit trail carries the triggering pressure and pod ids.
        for event in report.scaling_events:
            assert event.pressure >= 0.0
            assert event.pod_id
        # Added pods appear in the stats with bounded active time.
        decode_stats = [p for p in report.pod_stats if p.kind == "decode"]
        assert len(decode_stats) > 1
        for pod in decode_stats:
            assert 0.0 <= pod.active_s <= report.duration_s + 1e-9
            assert pod.cost_usd >= 0.0

    def test_respects_max_decode_pods(self):
        report = self.spiky_fleet(
            autoscaler=AutoscalerConfig(min_decode_pods=1, max_decode_pods=2)
        ).run()
        decode_stats = [p for p in report.pod_stats if p.kind == "decode"]
        assert len(decode_stats) <= 2

    def test_static_fleet_has_no_events_and_full_time_cost(self):
        report = self.spiky_fleet(autoscaler=None).run()
        assert report.scaling_events == ()
        for pod in report.pod_stats:
            assert pod.active_s == pytest.approx(report.duration_s)
        assert report.cost_usd > 0.0

    def test_elastic_fleet_is_cheaper_than_peak_provisioned(self):
        elastic = self.spiky_fleet().run()
        static = self.spiky_fleet(
            decode=(PodGroup("rpu", count=4, options={"num_cus": 128}),),
            autoscaler=None,
        ).run()
        assert elastic.cost_usd < static.cost_usd
        assert elastic.usd_per_mtok < static.usd_per_mtok

    def test_reallocation_under_a_total_pod_budget(self):
        """With the fleet capped at its current size, a hot decode pool
        can only grow by draining the cold prefill pool."""
        report = self.spiky_fleet(
            prefill=(PodGroup("gpu", count=3),),
            autoscaler=AutoscalerConfig(
                min_decode_pods=1, max_decode_pods=4,
                min_prefill_pods=1, max_prefill_pods=3,
                max_total_pods=4,
            ),
        ).run()
        actions = [(e.pool, e.action) for e in report.scaling_events]
        if ("decode", "up") in actions:
            assert ("prefill", "down") in actions
        decode_stats = [p for p in report.pod_stats if p.kind == "decode"]
        prefill_stats = [p for p in report.pod_stats if p.kind == "prefill"]
        assert len(decode_stats) + len(prefill_stats) >= 4


# ----------------------------------------------------------------------
# Adaptive PREFIX_AFFINE deferral
# ----------------------------------------------------------------------
class TestAdaptiveAffineDeferral:
    """The adaptive deadline extends a too-short fixed window to the
    founder's completion estimate, so siblings recover hits the fixed
    window gives up on."""

    def fanout(self):
        founder = Request(0, 0.0, LLAMA3_70B, prompt_len=4096,
                          decode_len=32, prefix_id=1, prefix_len=4096)
        sibling = Request(1, 0.01, LLAMA3_70B, prompt_len=4096,
                          decode_len=32, prefix_id=1, prefix_len=4096)
        filler = Request(2, 0.02, LLAMA3_70B, prompt_len=16384,
                         decode_len=32)
        return [founder, sibling, filler]

    def config(self, **overrides):
        settings: dict = dict(
            prefix_caching=True,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            affine_defer_s=0.05,
        )
        settings.update(overrides)
        return fleet(LLAMA3_70B, decode=1, **settings)

    def test_adaptive_recovers_hits_the_fixed_window_loses(self):
        fixed = simulate(self.config(affine_adaptive=False), self.fanout())
        adaptive = simulate(self.config(affine_adaptive=True), self.fanout())
        # The 0.05 s window expires long before the founder finishes,
        # so the fixed policy serves the sibling cold ...
        assert fixed.late_hit_tokens == 0
        # ... while the founder-completion estimate holds it until the
        # prefix is resident.
        assert adaptive.late_hit_tokens > 0
        assert adaptive.prefix_hit_rate > fixed.prefix_hit_rate
        assert adaptive.prefill_queue.founder_deferrals >= 1

    def test_zero_window_disables_deferral_even_when_adaptive(self):
        report = simulate(
            self.config(affine_defer_s=0.0, affine_adaptive=True),
            self.fanout(),
        )
        assert report.prefill_queue.founder_deferrals == 0

    def test_completions_conserved_under_adaptive_deferral(self):
        for adaptive in (False, True):
            report = simulate(
                self.config(affine_adaptive=adaptive), self.fanout()
            )
            assert len(report.completed) == 3


# ----------------------------------------------------------------------
# Report surface: per_tenant, fairness, to_json, tenant table
# ----------------------------------------------------------------------
class TestReportSurface:
    def test_per_tenant_without_roster_uses_default_tenant(self):
        fleet = Scenario(
            model=LLAMA3_70B,
            traffic=TrafficSpec(rate_rps=1.0, duration_s=5.0,
                                prompt_mean=256, decode_mean=64),
        )
        report = fleet.run()
        tenants = report.per_tenant()
        assert set(tenants) == {""}
        default = tenants[""]
        # The pseudo-class scores against the report's own e2e SLO.
        assert default.slo.e2e_s == report.slo_s
        assert default.offered == report.num_submitted
        assert report.fairness == 1.0

    def test_to_json_round_trips_and_carries_fleet_ops(self, shed_run):
        payload = shed_run.to_json()
        json.loads(json.dumps(payload))  # JSON-safe end to end
        assert payload["submitted"] == shed_run.num_submitted
        assert payload["shed"] == len(shed_run.shed)
        assert set(payload["tenants"]) == {"interactive", "batch"}
        batch = payload["tenants"]["batch"]
        assert batch["slo"] == "batch"
        assert batch["offered"] == batch["completed"] + batch["shed"] + (
            batch["rejected"]
        )
        assert payload["cost_usd"] > 0.0
        assert isinstance(payload["scaling_events"], list)
        assert payload["pods"][0]["active_s"] > 0.0

    def test_to_json_maps_non_finite_to_none(self):
        fleet = Scenario(
            model=LLAMA3_70B,
            traffic=TrafficSpec(rate_rps=1.0, duration_s=5.0,
                                prompt_mean=256, decode_mean=64),
            slo_s=float("inf"),
        )
        payload = fleet.run().to_json()
        assert payload["slo_s"] is None
        json.dumps(payload)

    def test_tenant_summary_table(self, shed_run):
        rendered = shed_run.summary_table(
            "flash crowd", group_by="tenant"
        ).render()
        assert "interactive" in rendered and "batch" in rendered
        assert "fleet" in rendered
        assert "/Mtok" in rendered

    def test_unknown_group_by_rejected(self, shed_run):
        with pytest.raises(ValueError, match="group_by"):
            shed_run.summary_table(group_by="pod")


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
class TestScenarioRegistry:
    def test_builtins_registered(self):
        names = scenario_names()
        for name in ("chatbot", "agentic_fanout", "batch_offline",
                     "multi_tenant_prod"):
            assert name in names
        assert names == tuple(sorted(names))

    def test_register_and_resolve_custom_preset(self):
        def tiny(model, **overrides):
            settings: dict = dict(
                model=model, name="tiny",
                traffic=TrafficSpec(rate_rps=0.5, duration_s=2.0),
            )
            settings.update(overrides)
            return Scenario(**settings)

        register_scenario("tiny", tiny)
        try:
            built = scenario("tiny", LLAMA3_70B, slo_s=5.0)
            assert built.name == "tiny" and built.slo_s == 5.0
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("tiny", tiny)
            register_scenario("tiny", tiny, overwrite=True)  # explicit wins
        finally:
            SCENARIOS.pop("tiny", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_scenario("", lambda model, **kw: None)

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(ValueError, match="chatbot"):
            scenario("nope", LLAMA3_70B)

    def test_multi_tenant_prod_preset_shape(self):
        preset = multi_tenant_prod(LLAMA3_70B)
        names = [t.name for t in preset.traffic.tenants]
        assert names == ["interactive", "agentic", "batch"]
        assert preset.admission.enabled
        assert preset.autoscaler is not None
        slos = {t.name: t.slo for t in preset.traffic.tenants}
        assert slos["interactive"] is INTERACTIVE
        assert slos["batch"] is BATCH
        # Overrides pass through like every other preset.
        quiet = multi_tenant_prod(LLAMA3_70B, autoscaler=None)
        assert quiet.autoscaler is None
        # And its requests are tagged with all three tenants.
        requests = preset.requests()
        assert {r.tenant for r in requests} == set(names)
