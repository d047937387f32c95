"""Scenario runner: ISO-TDP parity with hand-built fleets, hybrid
fleets, presets, and knob threading."""

import dataclasses

import pytest

import repro.api

from repro.analysis.cluster_sweep import sweep
from repro.analysis.perf_model import iso_tdp_system
from repro.api import (
    SCENARIOS,
    PodGroup,
    Scenario,
    TrafficSpec,
    comparison_table,
    scenario,
)
from repro.gpu.system import GpuSystem
from repro.models.dtypes import DType
from repro.models.llama3 import LLAMA3_70B
from repro.models.workload import Workload
from repro.obs import TraceConfig
from repro.platform import GpuPlatform, RpuPlatform, build_platform
from repro.serving.cluster import (
    ClusterConfig,
    DecodePodSpec,
    PrefillPolicy,
    ServingOptions,
    simulate,
)
from repro.serving.engine import report_digest
from repro.serving.kvstore import SwapPolicy
from repro.serving.requests import reasoning_traffic
from repro.serving.scheduler import Policy, Reservation
from repro.serving.tenancy import AdmissionConfig, AutoscalerConfig, CostModel
from repro.specdec import SpecDecConfig


def reasoning_spec(rate_rps=1.0, duration_s=20.0, seed=0):
    """TrafficSpec matching the sweeps' reasoning mix exactly."""
    return TrafficSpec(
        rate_rps=rate_rps,
        duration_s=duration_s,
        seed=seed,
        classes=(reasoning_traffic(LLAMA3_70B),),
    )


class TestIsoTdpParity:
    """Scenario.run() must reproduce the hand-built ISO-TDP fleets of
    the pre-platform API -- the declarative path pinned to the old."""

    @pytest.fixture(scope="class")
    def reference(self):
        """(GPU-only, disaggregated) reports from hand-built configs:
        colocated 2xH100 decode pods, and RPU decode pods sized to
        their TDP, behind identical prefill pods."""
        requests = reasoning_spec().requests(LLAMA3_70B)
        sizing = Workload(LLAMA3_70B, batch_size=32, seq_len=8192)
        rpu_pod = iso_tdp_system(GpuSystem(count=2), sizing)
        prefill = tuple(GpuPlatform(GpuSystem(count=2)) for _ in range(2))
        gpu_config = ClusterConfig(
            prefill_engines=prefill,
            decode_pods=tuple(
                DecodePodSpec(GpuPlatform(GpuSystem(count=2)), LLAMA3_70B)
                for _ in range(2)
            ),
            kv_transfer_bytes_per_s=float("inf"),
        )
        disagg_config = ClusterConfig(
            prefill_engines=prefill,
            decode_pods=tuple(
                DecodePodSpec(RpuPlatform(rpu_pod), LLAMA3_70B) for _ in range(2)
            ),
        )
        return simulate(gpu_config, requests), simulate(disagg_config, requests)

    def test_disaggregated_fleet_matches(self, reference):
        _, disaggregated = reference
        report = Scenario(
            model=LLAMA3_70B,
            traffic=reasoning_spec(),
            prefill=(PodGroup("gpu", count=2),),
            decode=(PodGroup("rpu_iso_tdp", count=2, options={"gpus": 2}),),
        ).run()
        assert report.goodput == pytest.approx(disaggregated.goodput)
        assert report.tokens_per_s == pytest.approx(
            disaggregated.tokens_per_s, rel=1e-9
        )
        assert report.total_energy_j == pytest.approx(
            disaggregated.total_energy_j, rel=1e-9
        )
        assert report_digest(report) == report_digest(disaggregated)

    def test_gpu_only_fleet_matches(self, reference):
        gpu_only, _ = reference
        report = Scenario(
            model=LLAMA3_70B,
            traffic=reasoning_spec(),
            prefill=(PodGroup("gpu", count=2),),
            decode=(PodGroup("gpu", count=2),),
            colocated=True,
        ).run()
        assert report.goodput == pytest.approx(gpu_only.goodput)
        assert report.tokens_per_s == pytest.approx(
            gpu_only.tokens_per_s, rel=1e-9
        )
        assert report_digest(report) == report_digest(gpu_only)


class TestHybridFleets:
    """Topologies only the platform API can express."""

    @pytest.fixture(scope="class")
    def pressure_traffic(self):
        return TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0,
            duration_s=15.0,
        ).requests(LLAMA3_70B)

    def test_rpu_prefill_gpu_decode_conserves_requests(self, pressure_traffic):
        """Inverted fleet under the paged scheduler with a tight budget:
        preemption storms must not lose or duplicate requests."""
        inverted = Scenario(
            model=LLAMA3_70B,
            prefill=(PodGroup("rpu", count=2, options={"num_cus": 64}),),
            decode=(PodGroup("gpu", count=1, options={"gpus": 2}),),
            reservation=Reservation.PAGED,
            kv_budget_bytes=3e9,
        )
        report = inverted.run(pressure_traffic)
        assert report.num_submitted == len(pressure_traffic)
        assert len(report.completed) + len(report.rejected) == len(pressure_traffic)
        assert len(report.completed) == len(pressure_traffic)
        assert report.total_preemptions > 0  # the budget really was tight
        prefill = [p for p in report.pod_stats if p.kind == "prefill"]
        assert all(p.platform.startswith("rpu-") for p in prefill)
        assert all(p.busy_s > 0 for p in prefill)

    def test_three_way_mixed_decode_pool(self, pressure_traffic):
        """RPU + H100 + H200 decode pods side by side, one model."""
        mixed = Scenario(
            model=LLAMA3_70B,
            prefill=(PodGroup("gpu", count=2),),
            decode=(
                PodGroup("rpu", options={"num_cus": 128}),
                PodGroup("h100", options={"gpus": 2}),
                PodGroup("h200", options={"gpus": 2}),
            ),
        )
        report = mixed.run(pressure_traffic)
        assert len(report.completed) == len(pressure_traffic)
        decode = [p for p in report.pod_stats if p.kind == "decode"]
        assert sorted(p.platform for p in decode) == [
            "2xH100-SXM", "2xH200-SXM", "rpu-128cu",
        ]
        # The router load-balances: every platform kind does real work.
        assert all(p.busy_s > 0 for p in decode)

    def test_fleet_layout_comparison_sweep(self):
        """A sweep over decode-pool layouts: identical traffic, identical
        prefill pods, homogeneous and mixed pools side by side."""
        sizing = Workload(LLAMA3_70B, batch_size=32, seq_len=8192)
        rpu = build_platform("rpu", sizing=sizing)
        layouts = {
            "rpu-only": (PodGroup(rpu, count=2),),
            "mixed": (PodGroup(rpu), PodGroup(build_platform("h100"))),
        }
        rows = sweep(
            Scenario(model=LLAMA3_70B, traffic=reasoning_spec(rate_rps=0.5, duration_s=8.0)),
            [{"decode": pods} for pods in layouts.values()],
        )
        assert [point.decode for point, _ in rows] == list(layouts.values())
        (_, rpu_only), (_, mixed) = rows
        for report in (rpu_only, mixed):
            assert report.num_submitted == len(rpu_only.completed) + len(
                rpu_only.rejected
            )
        decode = [p.platform for p in mixed.pod_stats if p.kind == "decode"]
        assert decode == ["rpu-128cu", "2xH100-SXM"]


class TestPresets:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_preset_runs_end_to_end(self, name):
        entry = scenario(
            name, LLAMA3_70B, traffic=TrafficSpec(rate_rps=1.0, duration_s=5.0)
        )
        assert entry.name == name
        report = entry.run()
        assert report.num_submitted > 0
        assert len(report.completed) == report.num_submitted

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("nope", LLAMA3_70B)

    def test_batch_offline_has_no_interactive_slo(self):
        entry = scenario("batch_offline", LLAMA3_70B)
        assert entry.slo_s == float("inf")
        report = entry.run(
            scenario(
                "batch_offline",
                LLAMA3_70B,
                traffic=TrafficSpec(rate_rps=0.5, duration_s=5.0),
            ).requests()
        )
        # Everything completed => goodput degenerates to completion rate.
        assert report.goodput == 1.0
        assert report.slo_s == float("inf")

    def test_slo_threads_through_to_goodput(self):
        tight = Scenario(
            model=LLAMA3_70B,
            traffic=reasoning_spec(duration_s=5.0),
            slo_s=1e-3,  # nothing finishes a reasoning query in 1 ms
        )
        report = tight.run()
        assert report.slo_s == 1e-3
        assert report.goodput == 0.0
        assert len(report.completed) == report.num_submitted


#: field -> knob settings its check rejects, naming that field.
INCOHERENT_KNOBS = {
    "prefix_caching": {"prefix_caching": True, "reservation": Reservation.FULL},
    "slo_s": {"slo_s": 0},
    "kv_budget_bytes": {"kv_budget_bytes": 0.0},
    "host_kv_bytes": {"host_kv_bytes": -1.0},
    "swap_bytes_per_s": {"swap_bytes_per_s": float("nan")},
    "affine_defer_s": {"affine_defer_s": float("inf")},
    "prefill_aging_s": {"prefill_aging_s": 0.0},
    "late_binding": {
        "prefill_policy": PrefillPolicy.PREFIX_AFFINE,
        "late_binding": False,
    },
}


class TestScenarioValidation:
    def test_needs_pod_groups(self):
        with pytest.raises(ValueError, match="pod group"):
            Scenario(model=LLAMA3_70B, prefill=())
        with pytest.raises(ValueError, match="pod group"):
            Scenario(model=LLAMA3_70B, decode=())

    def test_pod_group_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            PodGroup("rpu", count=0)

    def test_options_rejected_on_concrete_platform(self):
        pod = build_platform("h100")
        with pytest.raises(ValueError, match="options"):
            PodGroup(pod, options={"gpus": 4})

    def test_requests_are_replayable(self):
        entry = scenario(
            "chatbot", LLAMA3_70B, traffic=TrafficSpec(duration_s=5.0)
        )
        a = entry.requests()
        b = entry.requests()
        assert [(r.request_id, r.arrival_s, r.prompt_len) for r in a] == [
            (r.request_id, r.arrival_s, r.prompt_len) for r in b
        ]

    def test_comparison_table_renders(self):
        entries = [
            scenario(
                name, LLAMA3_70B, traffic=TrafficSpec(rate_rps=0.5, duration_s=4.0)
            )
            for name in sorted(SCENARIOS)
        ]
        rendered = comparison_table(entries).render()
        for name in SCENARIOS:
            assert name in rendered

    def test_comparison_table_labels_equal_unnamed_scenarios_apart(self):
        """One unnamed fleet tabulated with reports from two seeds: each
        row is labelled by its position, not by the first equal
        scenario's."""
        fleet = Scenario(model=LLAMA3_70B)
        reports = [
            fleet.run(
                TrafficSpec(rate_rps=0.5, duration_s=4.0, seed=seed).requests(
                    LLAMA3_70B
                )
            )
            for seed in (0, 1)
        ]
        table = comparison_table([fleet, fleet], reports=reports)
        assert [row[0] for row in table.rows] == ["scenario-0", "scenario-1"]

    @pytest.mark.parametrize("field", list(INCOHERENT_KNOBS))
    def test_incoherent_knob_fails_when_the_scenario_is_built(self, field):
        with pytest.raises(ValueError, match=field):
            Scenario(model=LLAMA3_70B, **INCOHERENT_KNOBS[field])

    def test_sweep_rejects_an_incoherent_point_before_simulating(
        self, monkeypatch
    ):
        simulated = []
        monkeypatch.setattr(
            repro.api, "simulate",
            lambda config, requests: simulated.append(config),
        )
        base = Scenario(model=LLAMA3_70B, traffic=TrafficSpec(duration_s=4.0))
        for axis, field in (
            ([{"slo_s": 5.0}, {"slo_s": 0.0}], "slo_s"),
            (
                [{"traffic.seed": 0}, {"traffic.prefix_share_prob": 1.5}],
                "prefix_share_prob",
            ),
        ):
            with pytest.raises(ValueError, match=field):
                sweep(base, axis)
        assert simulated == []


class TestTopLevelExports:
    def test_serving_api_exported_from_repro(self):
        import repro

        for name in (
            "simulate",
            "ClusterConfig",
            "ClusterReport",
            "Scenario",
            "PodGroup",
            "TrafficSpec",
            "Platform",
            "RpuPlatform",
            "GpuPlatform",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_docstring_module_list_is_current(self):
        import repro

        for module in ("repro.platform", "repro.api", "repro.serving"):
            assert module in repro.__doc__


#: A coherent non-default value for every :class:`ServingOptions` knob.
NON_DEFAULT_KNOBS = {
    "policy": Policy.SJF,
    "prefill_policy": PrefillPolicy.PREFIX_AFFINE,
    "late_binding": False,
    "affine_defer_s": 0.5,
    "affine_adaptive": False,
    "prefill_aging_s": 3.0,
    "max_batch": 64,
    "weight_dtype": DType.FP8,
    "kv_dtype": DType.BF16,
    "reservation": Reservation.FULL,
    "block_tokens": 32,
    "chunk_tokens": 128,
    "kv_budget_bytes": 3e9,
    "slo_s": 5.0,
    "prefix_caching": True,
    "swap_policy": SwapPolicy.AUTO,
    "host_kv_bytes": 32e9,
    "swap_bytes_per_s": 25e9 / 8,
    "admission": AdmissionConfig(enabled=True),
    "autoscaler": AutoscalerConfig(),
    "cost_model": CostModel(default_usd_per_pod_hour=4.0),
    "specdec": SpecDecConfig(),
    "trace": TraceConfig(),
}


class TestKvHierarchyKnobs:
    def test_knobs_thread_through_to_cluster_config(self):
        """Every serving knob, set alone to a non-default value on a
        Scenario, arrives unchanged on its cluster -- and leaves every
        other knob where the scenario had it."""
        knobs = [f.name for f in dataclasses.fields(ServingOptions)]
        assert sorted(knobs) == sorted(NON_DEFAULT_KNOBS)
        default = Scenario(model=LLAMA3_70B)
        for name, value in NON_DEFAULT_KNOBS.items():
            assert value != getattr(default, name), name
            entry = Scenario(model=LLAMA3_70B, **{name: value})
            config = entry.cluster()
            assert getattr(config, name) == value, name
            for knob in knobs:
                assert getattr(config, knob) == getattr(entry, knob), knob

    def test_defaults_are_off(self):
        config = Scenario(model=LLAMA3_70B).cluster()
        assert config.prefix_caching is False
        assert config.swap_policy is SwapPolicy.NEVER

    def test_traffic_spec_threads_prefix_structure(self):
        spec = TrafficSpec(
            prefix_share_prob=0.8, prefix_fanout=6, prefix_frac=0.6
        )
        (cls,) = spec.traffic_classes(LLAMA3_70B)
        assert cls.prefix_share_prob == 0.8
        assert cls.prefix_fanout == 6
        assert cls.prefix_frac == 0.6

    def test_agentic_fanout_preset_shares_prefixes(self):
        entry = scenario("agentic_fanout", LLAMA3_70B)
        assert entry.prefix_caching is True
        assert entry.traffic.prefix_share_prob > 0.5
        requests = scenario(
            "agentic_fanout",
            LLAMA3_70B,
            traffic=TrafficSpec(
                rate_rps=4.0, duration_s=10.0, prefix_share_prob=0.85
            ),
        ).requests()
        assert any(r.prefix_id is not None for r in requests)

    def test_agentic_fanout_caching_pays_at_equal_budget(self):
        """The acceptance scenario: identical fan-out traffic, equal KV
        budget, caching off vs on -- measurably higher goodput and
        lower TTFT with the cache."""
        kwargs = dict(
            kv_budget_bytes=2e9, prefill=(PodGroup("gpu", count=1),)
        )
        cached_scenario = scenario("agentic_fanout", LLAMA3_70B, **kwargs)
        requests = cached_scenario.requests()
        uncached = scenario(
            "agentic_fanout", LLAMA3_70B, prefix_caching=False, **kwargs
        ).run(requests)
        cached = cached_scenario.run(requests)
        assert cached.prefix_hit_rate > 0.0
        assert cached.goodput > uncached.goodput + 0.02
        assert cached.ttft_percentile(50) < uncached.ttft_percentile(50)


class TestPrefillQueueKnobs:
    """PR 5: the prefill service queue plumbs through Scenario and
    TrafficSpec."""

    def test_scenario_threads_queue_knobs(self):
        entry = Scenario(
            model=LLAMA3_70B,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            affine_defer_s=0.5,
            prefill_aging_s=3.0,
        )
        config = entry.cluster()
        assert config.prefill_policy is PrefillPolicy.PREFIX_AFFINE
        assert config.affine_defer_s == 0.5
        assert config.prefill_aging_s == 3.0
        arrival = Scenario(model=LLAMA3_70B, late_binding=False).cluster()
        assert arrival.late_binding is False
        # The silently-degenerate combo is rejected at scenario build.
        with pytest.raises(ValueError):
            Scenario(
                model=LLAMA3_70B,
                prefill_policy=PrefillPolicy.PREFIX_AFFINE,
                late_binding=False,
            )

    def test_defaults_are_fifo_late_bound(self):
        config = Scenario(model=LLAMA3_70B).cluster()
        assert config.prefill_policy is PrefillPolicy.FIFO
        assert config.late_binding is True

    def test_traffic_spec_priority_mix(self):
        spec = TrafficSpec(priorities=(0, 2, 5))
        classes = spec.traffic_classes(LLAMA3_70B)
        assert [cls.priority for cls in classes] == [0, 2, 5]
        assert len({cls.weight for cls in classes}) == 1  # equal weight
        # The mix reaches the generated requests.
        requests = TrafficSpec(
            priorities=(0, 5), rate_rps=8.0, duration_s=10.0, seed=1
        ).requests(LLAMA3_70B)
        assert {r.priority for r in requests} == {0, 5}

    def test_priority_mix_defaults_to_single_class(self):
        spec = TrafficSpec(priority=3)
        (cls,) = spec.traffic_classes(LLAMA3_70B)
        assert cls.priority == 3

    def test_late_binding_recovers_hits_on_agentic_fanout(self):
        """The PR 5 acceptance scenario at API level: identical
        prefill-bound fan-out traffic, hits bound at service start vs
        at arrival."""
        kwargs = dict(
            kv_budget_bytes=2e9, prefill=(PodGroup("gpu", count=1),)
        )
        late_scenario = scenario("agentic_fanout", LLAMA3_70B, **kwargs)
        requests = late_scenario.requests()
        arrival = scenario(
            "agentic_fanout", LLAMA3_70B, late_binding=False, **kwargs
        ).run(requests)
        late = late_scenario.run(requests)
        assert late.prefix_hit_rate > arrival.prefix_hit_rate
        assert late.late_hits > 0
        assert arrival.late_hits == 0
        assert len(late.completed) == len(arrival.completed)
