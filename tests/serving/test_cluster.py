"""Fleet simulator: single-request limit, conservation, routing, SLOs,
and the shared prefill service queue (policies, late-bound hits)."""

import dataclasses

import pytest

from fleets import fleet

from repro.analysis.perf_model import system_for
from repro.api import PodGroup, Scenario
from repro.gpu.system import GpuSystem
from repro.models.dtypes import DType
from repro.models.kv_cache import kv_bytes_per_token
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.models.workload import Workload
from repro.platform import GpuPlatform, RpuPlatform
from repro.serving.cluster import (
    ClusterConfig,
    ClusterSim,
    DecodePodSpec,
    PrefillPolicy,
    RequestRecord,
    SimulationStalled,
    simulate,
)
from repro.serving.disaggregated import DisaggregatedSystem
from repro.serving.engine import report_digest
from repro.serving.requests import (
    Request,
    TrafficClass,
    TrafficSpec,
    prefix_founders,
    reasoning_traffic,
)
from repro.serving.scheduler import ContinuousBatchScheduler, Policy, Reservation


def single_pod_config(model, *, num_cus=128, decode_len=2048, seq_len=8192):
    sizing = Workload(model, batch_size=1, seq_len=seq_len, decode_len=decode_len)
    return ClusterConfig(
        prefill_engines=(GpuPlatform(GpuSystem(count=2)),),
        decode_pods=(DecodePodSpec(RpuPlatform(system_for(num_cus, sizing)), model),),
    )


@pytest.fixture(scope="module")
def traffic_70b():
    return TrafficSpec(
        classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=1.0, seed=11,
        duration_s=15.0,
    ).requests(LLAMA3_70B)


class TestSingleRequestLimit:
    """With one idle pod of each kind and one query, the fleet simulator
    must collapse to the single-query pipeline model."""

    def test_matches_disaggregated_query(self):
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=4096)
        config = single_pod_config(LLAMA3_70B, decode_len=4096, seq_len=6144)
        report = simulate(config, [request])
        assert len(report.completed) == 1
        record = report.completed[0]

        reference = DisaggregatedSystem(
            prefill_engine=config.prefill_engines[0],
            decode_engine=config.decode_pods[0].engine,
        ).query(request.workload())

        assert record.end_to_end_s == pytest.approx(
            reference.end_to_end_s, rel=0.10
        )
        assert record.ttft_s == pytest.approx(reference.ttft_s, rel=0.10)
        assert record.tpot_s == pytest.approx(reference.tpot_s, rel=0.10)

    def test_no_queueing_when_alone(self):
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=512)
        report = simulate(single_pod_config(LLAMA3_70B), [request])
        assert report.completed[0].queueing_delay_s == pytest.approx(0.0, abs=1e-9)

    def test_aggregate_throughput_matches_tpot(self):
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=4096)
        report = simulate(single_pod_config(LLAMA3_70B, decode_len=4096), [request])
        record = report.completed[0]
        # One query: delivered tok/s over the decode phase is 1/TPOT.
        decode_span = record.completed_s - record.admitted_s
        assert 4096 / decode_span == pytest.approx(1.0 / record.tpot_s, rel=0.01)


class TestConservationAndDeterminism:
    def test_every_request_completes_or_rejects(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        assert report.num_submitted == len(traffic_70b)
        assert len(report.completed) + len(report.rejected) == len(traffic_70b)
        done_ids = {r.request.request_id for r in report.completed}
        rejected_ids = {r.request.request_id for r in report.rejected}
        assert not done_ids & rejected_ids
        for record in report.completed:
            assert record.first_token_s is not None
            assert (
                record.request.arrival_s
                <= record.prefill_start_s
                <= record.prefill_end_s
                <= record.transfer_end_s
                <= record.admitted_s
                < record.first_token_s
                <= record.completed_s
            )

    def test_seeded_rerun_is_identical(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        a = simulate(config, traffic_70b)
        b = ClusterSim(config).run(traffic_70b)
        assert a.duration_s == b.duration_s
        assert [r.completed_s for r in a.completed] == [
            r.completed_s for r in b.completed
        ]
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_oversized_request_rejected(self):
        config = single_pod_config(LLAMA3_8B, num_cus=2)
        huge = Request(0, 0.0, LLAMA3_8B, prompt_len=16384, decode_len=8192)
        small = Request(1, 0.0, LLAMA3_8B, prompt_len=256, decode_len=64)
        report = simulate(config, [huge, small])
        assert [r.request.request_id for r in report.rejected] == [0]
        assert [r.request.request_id for r in report.completed] == [1]

    def test_duplicate_request_id_rejected(self):
        """Records, pinned prefixes and block-store leases are keyed by
        request id, so a run refuses a shared id before any event."""
        first = Request(3, 0.0, LLAMA3_8B, prompt_len=256, decode_len=64)
        twin = Request(3, 1.0, LLAMA3_8B, prompt_len=128, decode_len=32)
        with pytest.raises(ValueError, match="unique"):
            simulate(single_pod_config(LLAMA3_8B), [first, twin])
        sim = ClusterSim(single_pod_config(LLAMA3_8B))
        with pytest.raises(ValueError, match="unique"):
            sim.run([first, twin])
        assert not sim._calendar  # a fresh calendar: nothing was pushed

    def test_refused_run_leaves_sim_reusable(self):
        """The uniqueness check fires before any state is stamped: the
        same simulator then runs valid traffic exactly like a fresh one."""
        config = single_pod_config(LLAMA3_8B)
        sim = ClusterSim(config)
        with pytest.raises(ValueError, match="unique"):
            sim.run([
                Request(i % 2, 0.1 * i, LLAMA3_8B, prompt_len=256, decode_len=32)
                for i in range(3)
            ])
        requests = [
            Request(i, 0.1 * i, LLAMA3_8B, prompt_len=256, decode_len=32)
            for i in range(3)
        ]
        assert report_digest(sim.run(requests)) == report_digest(
            simulate(config, requests)
        )

    def test_request_ids_are_keys_not_positions(self):
        """Sparse ids submitted out of arrival order each keep their own
        record, and relabelling the ids changes no timing."""
        shape = ((0.5, 256, 48), (0.0, 512, 32), (0.25, 128, 64))
        config = single_pod_config(LLAMA3_8B)

        def run(ids):
            requests = [
                Request(rid, arrival, LLAMA3_8B, prompt_len=p, decode_len=d)
                for rid, (arrival, p, d) in zip(ids, shape)
            ]
            report = simulate(config, requests)
            by_id = {r.request.request_id: r for r in report.completed}
            assert sorted(by_id) == sorted(ids)
            for request in requests:
                assert by_id[request.request_id].request is request
            return [
                (by_id[rid].first_token_s, by_id[rid].completed_s) for rid in ids
            ]

        assert run((40, 7, 1000)) == run((0, 1, 2))


class TestRequestRecord:
    """Per-request lifecycle state is one plain ``__slots__`` object
    per request; the report reads its fields directly."""

    def record(self, decode_len=64, arrival=2.0):
        return RequestRecord(
            Request(0, arrival, LLAMA3_8B, prompt_len=256, decode_len=decode_len)
        )

    def test_fresh_record_defaults(self):
        record = self.record()
        assert record.request.request_id == 0
        assert (record.rejected, record.shed, record.group_inflight) == (
            False, False, False
        )
        assert (record.prefill_pod, record.decode_pod) == ("", "")
        assert (
            record.prefill_start_s,
            record.prefill_end_s,
            record.transfer_end_s,
            record.admitted_s,
            record.queue_wait_s,
        ) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert record.first_token_s is None and record.completed_s is None
        assert not record.done
        assert (
            record.num_preemptions,
            record.num_swaps,
            record.cached_prefix_tokens,
            record.resume_tokens,
        ) == (0, 0, 0, 0)

    def test_slots_refuse_unknown_fields(self):
        """A misspelt lifecycle field raises instead of silently
        creating a new attribute the report never reads."""
        record = self.record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.first_token = 1.0

    def test_records_hold_independent_state(self):
        request = Request(5, 0.0, LLAMA3_8B, prompt_len=256, decode_len=64)
        a, b = RequestRecord(request), RequestRecord(request)
        a.num_preemptions += 2
        a.first_token_s = 3.0
        a.decode_pod = "decode0"
        assert a.request is b.request
        assert b.num_preemptions == 0
        assert b.first_token_s is None
        assert b.decode_pod == ""

    def test_latency_metrics_follow_timestamps(self):
        record = self.record(decode_len=5, arrival=2.0)
        record.first_token_s = 2.5
        record.completed_s = 4.5
        record.queue_wait_s = 0.125
        assert record.done
        assert record.ttft_s == 0.5
        assert record.tpot_s == 0.5  # 2.0 s over the 4 tokens after the first
        assert record.end_to_end_s == 2.5
        assert record.queueing_delay_s == 0.125
        single = self.record(decode_len=1)
        single.first_token_s = single.completed_s = 3.0
        assert single.tpot_s == 0.0


class TestLiveness:
    """A run whose calendar drains with requests still unresolved must
    raise :class:`SimulationStalled` (a real exception, not an
    ``assert`` that ``python -O`` strips), naming where the stranded
    requests stood.  Each test forces a stall by breaking one actor."""

    @staticmethod
    def _stall(monkeypatch, target, name, replacement):
        monkeypatch.setattr(target, name, replacement)
        requests = [
            Request(i, 0.1 * i, LLAMA3_8B, prompt_len=256, decode_len=32)
            for i in range(12)
        ]
        config = Scenario(LLAMA3_8B, kv_budget_bytes=2e8).cluster()
        with pytest.raises(SimulationStalled) as info:
            simulate(config, requests)
        return str(info.value)

    def test_admit_that_never_admits(self, monkeypatch):
        message = self._stall(
            monkeypatch, ContinuousBatchScheduler, "admit",
            lambda self, now: [],
        )
        assert message.startswith(
            "simulation stalled: 12 of 12 requests unresolved (tally 12), "
            "0 jobs left in the prefill queue"
        )
        stranded = [line for line in message.splitlines()
                    if line.startswith("  request ")]
        assert len(stranded) == 10
        assert all(" hand-off to decode" in line for line in stranded)
        assert "  ... and 2 more" in message
        assert "  decode0: queue 6, batch 0, parked 0" in message
        assert "  decode1: queue 6, batch 0, parked 0" in message
        # Nothing was admitted, so neither pod's KV store holds a byte.
        assert message.count(
            " parked 0, KV 0.0 leased + 0.0 shared + 0.0 cached "
            "of 200000000.0 B, host 0.0 B"
        ) == 2

    def test_prefill_queue_that_never_drains(self, monkeypatch):
        message = self._stall(
            monkeypatch, ClusterSim, "_drain_prefill_queue",
            lambda self, now: None,
        )
        assert "12 jobs left in the prefill queue" in message
        assert "  request 0: queued at 0.0 s" in message

    def test_batch_that_never_steps(self, monkeypatch):
        def admit_only(self, now, pod):
            pod.scheduler.admit(now)
            pod.stepping = False

        message = self._stall(monkeypatch, ClusterSim, "_on_step", admit_only)
        assert "  request 0: admitted on decode0 at " in message
        assert "  decode0: queue 0, batch 6, parked 0" in message
        # The six admitted 256-token prompts lease 16 MiB of KV each.
        assert (
            "  decode0: queue 0, batch 6, parked 0, KV 100663296.0 leased "
            "+ 0.0 shared + 0.0 cached of 200000000.0 B, host 0.0 B"
        ) in message

    def test_request_lost_after_prefill(self, monkeypatch):
        message = self._stall(
            monkeypatch, ClusterSim, "_on_kv_arrive",
            lambda self, now, pod, record: None,
        )
        assert "then in no queue, batch or parked list" in message


class TestRoutingAndPolicies:
    def test_multi_model_requests_reach_their_pods(self):
        sizing_8b = Workload(LLAMA3_8B, batch_size=1, seq_len=8192)
        sizing_70b = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        config = ClusterConfig(
            prefill_engines=(GpuPlatform(GpuSystem(count=2)),),
            decode_pods=(
                DecodePodSpec(RpuPlatform(system_for(64, sizing_8b)), LLAMA3_8B),
                DecodePodSpec(RpuPlatform(system_for(128, sizing_70b)), LLAMA3_70B),
            ),
        )
        requests = [
            Request(0, 0.0, LLAMA3_8B, 1024, 256),
            Request(1, 0.1, LLAMA3_70B, 1024, 256),
            Request(2, 0.2, LLAMA3_8B, 1024, 256),
        ]
        report = simulate(config, requests)
        pods = {r.request.request_id: r.decode_pod for r in report.completed}
        assert pods == {0: "decode0", 1: "decode1", 2: "decode0"}

    def test_load_balances_across_pods(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        counts = {"decode0": 0, "decode1": 0}
        for record in report.completed:
            counts[record.decode_pod] += 1
        assert min(counts.values()) > 0

    @pytest.mark.parametrize("policy", list(Policy))
    def test_policies_both_complete(self, traffic_70b, policy):
        config = fleet(LLAMA3_70B, decode=1, policy=policy)
        report = simulate(config, traffic_70b)
        assert len(report.completed) == len(traffic_70b)


class TestReport:
    def test_slo_metrics_sane(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        assert 0.0 <= report.goodput <= 1.0
        assert report.ttft_percentile(50) <= report.ttft_percentile(99)
        assert report.tpot_percentile(50) > 0
        assert report.tokens_per_s > 0
        assert report.total_energy_j > 0
        for pod in report.pod_stats:
            assert 0.0 <= pod.utilization(report.duration_s) <= 1.0
        rendered = report.summary_table().render()
        assert "goodput" in rendered

    def test_percentiles_come_from_one_cached_sort(self, traffic_70b):
        """The report caches one sorted array per metric; every quantile
        reads it, and the values match a from-scratch interpolation."""
        from repro.util.stats import percentile

        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        p95 = report.ttft_percentile(95)
        cached = report._memo["ttft_s"]
        assert cached is report._memo["ttft_s"]
        assert cached == sorted(r.ttft_s for r in report.completed)
        assert p95 == percentile([r.ttft_s for r in report.completed], 95)
        assert report.tpot_percentile(50) == percentile(
            [r.tpot_s for r in report.completed], 50
        )

    def test_per_tenant_is_memoized(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        assert report.per_tenant() is report.per_tenant()

    def test_colocated_gpu_fleet_runs(self):
        requests = TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=0.5, seed=3,
            duration_s=8.0,
        ).requests(LLAMA3_70B)
        gpu_only = Scenario(
            LLAMA3_70B, decode=(PodGroup("gpu", count=2),), colocated=True
        )
        report = simulate(gpu_only.cluster(), requests)
        assert len(report.completed) == len(requests)
        # GPU decode pays no KV hand-off in the colocated baseline.
        assert all(
            r.transfer_end_s == pytest.approx(r.prefill_end_s)
            for r in report.completed
        )


class TestPagedCluster:
    """Paged-KV serving at fleet scale: preemption re-routing,
    occupancy stats, and the dual throughput metrics."""

    def tight_fleet(self, reservation):
        return fleet(
            LLAMA3_70B,
            decode=1,
            reservation=reservation,
            kv_budget_bytes=3e9,  # ~3 mean full-context reservations
        )

    @pytest.fixture(scope="class")
    def pressure_traffic(self):
        return TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0,
            duration_s=20.0,
        ).requests(LLAMA3_70B)

    def test_preemption_storm_loses_no_requests(self, pressure_traffic):
        report = simulate(self.tight_fleet(Reservation.PAGED), pressure_traffic)
        assert report.total_preemptions > 0
        assert len(report.completed) + len(report.rejected) == len(
            pressure_traffic
        )
        assert len(report.completed) == len(pressure_traffic)
        preempted = [r for r in report.completed if r.num_preemptions > 0]
        assert preempted
        # Every preempted request went back through a prefill pod with
        # its decode progress intact.
        for record in preempted:
            assert record.resume_tokens >= 0
            assert record.prefill_end_s <= record.transfer_end_s

    def test_queueing_delay_excludes_service_time(self, pressure_traffic):
        """Preemption resumes overwrite the per-pass timestamps; the
        accumulated wait must never swallow prefill/decode service time
        (it is bounded by end-to-end minus the last pass's prefill)."""
        report = simulate(self.tight_fleet(Reservation.PAGED), pressure_traffic)
        for record in report.completed:
            assert record.queueing_delay_s >= 0.0
            prefill_s = record.prefill_end_s - record.prefill_start_s
            assert (
                record.queueing_delay_s + prefill_s <= record.end_to_end_s + 1e-9
            )

    def test_paged_beats_full_at_equal_budget(self, pressure_traffic):
        full = simulate(self.tight_fleet(Reservation.FULL), pressure_traffic)
        paged = simulate(self.tight_fleet(Reservation.PAGED), pressure_traffic)
        assert paged.goodput >= full.goodput
        assert paged.tokens_per_s > full.tokens_per_s

    def test_occupancy_and_preemption_stats_reported(self, pressure_traffic):
        report = simulate(self.tight_fleet(Reservation.PAGED), pressure_traffic)
        assert 0.0 < report.mean_decode_kv_occupancy <= 1.0
        for pod in report.pod_stats:
            if pod.kind == "decode":
                assert 0.0 <= pod.kv_occupancy <= 1.0
            else:
                assert pod.preemptions == 0 and pod.kv_occupancy == 0.0
        assert report.total_preemptions == sum(
            p.preemptions for p in report.pod_stats
        )

    def test_full_reservation_never_preempts(self, pressure_traffic):
        report = simulate(self.tight_fleet(Reservation.FULL), pressure_traffic)
        assert report.total_preemptions == 0
        assert all(r.num_preemptions == 0 for r in report.completed)

    def test_seeded_rerun_identical_under_preemption(self, pressure_traffic):
        config = self.tight_fleet(Reservation.PAGED)
        a = simulate(config, pressure_traffic)
        b = simulate(config, pressure_traffic)
        assert a.duration_s == b.duration_s
        assert a.total_preemptions == b.total_preemptions
        assert [r.completed_s for r in a.completed] == [
            r.completed_s for r in b.completed
        ]


class TestThroughputWindows:
    def test_both_windows_reported(self, traffic_70b):
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        assert report.last_arrival_s == max(
            r.arrival_s for r in traffic_70b
        )
        assert report.last_arrival_s <= report.duration_s
        # Steady traffic on an uncongested fleet: the drain tail
        # dilutes the drain-inclusive rate below the in-window rate.
        assert (
            report.arrival_window_tokens_per_s > report.tokens_per_s
        )
        assert report.arrival_window_rps > 0

    def test_window_tokens_are_interpolated_not_inflated(self, traffic_70b):
        """Only tokens generated inside the window count: the naive
        decode_tokens / last_arrival_s (which attributes drain-tail
        tokens to the window) must strictly exceed the honest rate."""
        config = Scenario(LLAMA3_70B).cluster()
        report = simulate(config, traffic_70b)
        window = report.last_arrival_s
        assert 0 < report.decode_tokens_before(window) < report.decode_tokens
        assert report.arrival_window_tokens_per_s < (
            report.decode_tokens / window
        )
        # decode_tokens_before is monotone and exact at the drain end.
        third = report.decode_tokens_before(window / 3)
        assert 0 <= third <= report.decode_tokens_before(window)
        assert report.decode_tokens_before(
            report.duration_s
        ) == pytest.approx(report.decode_tokens)

    def test_overload_window_rate_plateaus(self):
        """Under heavy overload the arrival-window rate must report the
        fleet's physical rate, not offered-load-scaled inflation."""
        requests = TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=8.0, seed=1,
            duration_s=12.0,
        ).requests(LLAMA3_70B)
        config = fleet(LLAMA3_70B, decode=1, kv_budget_bytes=3e9)
        report = simulate(config, requests)
        assert report.duration_s > 1.5 * report.last_arrival_s  # long drain
        # The old definition reported ~4x the drain rate here.
        assert report.arrival_window_tokens_per_s < 1.5 * report.tokens_per_s

    def test_single_instant_traffic_falls_back(self):
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=64)
        report = simulate(single_pod_config(LLAMA3_70B), [request])
        assert report.last_arrival_s == 0.0
        assert report.arrival_window_tokens_per_s == report.tokens_per_s


class TestZeroCompletionReport:
    def test_summary_renders_na_not_zeros(self):
        config = single_pod_config(LLAMA3_8B, num_cus=2)
        huge = Request(0, 0.0, LLAMA3_8B, prompt_len=16384, decode_len=8192)
        report = simulate(config, [huge])
        assert not report.completed
        rendered = report.summary_table().render()
        assert "n/a" in rendered
        assert "0.00 / 0.00" not in rendered


class TestAllShedReport:
    """Denominator guards when admission control sheds (nearly)
    everything: ``usd_per_mtok``, ``fairness``, the summary tables and
    ``to_json`` must all stay finite instead of dividing by zero."""

    @pytest.fixture(scope="class")
    def starved_run(self):
        # A bucket that refills ~nothing: the seed arrival is admitted
        # free at zero pressure, everything behind it in the queue pays
        # an empty bucket and is shed at the door.
        from repro.serving.tenancy import AdmissionConfig

        config = Scenario(
            LLAMA3_70B,
            kv_budget_bytes=3e9,
            admission=AdmissionConfig(
                enabled=True,
                pressure_floor=0.01,
                queue_depth_scale=0.5,
                tokens_per_s_per_weight=1e-6,
                burst_s=1e-3,
            ),
        ).cluster()
        requests = [
            Request(i, 0.0, LLAMA3_70B, prompt_len=512, decode_len=256)
            for i in range(8)
        ]
        return simulate(config, requests)

    def test_everything_behind_the_seed_sheds(self, starved_run):
        assert len(starved_run.shed) >= 5
        assert 1 <= len(starved_run.completed) <= 3
        assert starved_run.num_submitted == 8

    def test_fairness_and_unit_economics_stay_finite(self, starved_run):
        import math

        assert starved_run.usd_per_mtok >= 0.0
        assert not math.isnan(starved_run.fairness)
        rendered = starved_run.summary_table(group_by="tenant").render()
        assert "shed" in rendered.lower() or starved_run.shed

    def test_all_shed_report_divides_by_nothing(self, starved_run):
        """The fully-starved degenerate: zero completions with a
        non-empty shed list (a report shape external simulators can
        hand-build).  Every guarded denominator must report its
        sentinel, not raise."""
        report = dataclasses.replace(
            starved_run, completed=(), _memo={}
        )
        assert not report.completed
        assert report.shed
        assert report.decode_tokens == 0
        assert report.usd_per_mtok == 0.0  # no tokens -> no unit econ
        assert report.goodput == 0.0
        assert report.tokens_per_s == 0.0
        assert report.fairness == 1.0  # all-zero attainment degenerate
        rendered = report.summary_table().render()
        assert "n/a" in rendered
        assert "shed (admission control)" in rendered
        tenant_view = report.summary_table(group_by="tenant").render()
        assert "0.0%" in tenant_view

    def test_all_shed_report_round_trips_json(self, starved_run):
        import json

        report = dataclasses.replace(
            starved_run, completed=(), _memo={}
        )
        payload = json.dumps(report.to_json())
        decoded = json.loads(payload)
        assert decoded["usd_per_mtok"] == 0.0
        assert decoded["fairness"] == 1.0


class TestPrefillDtypeThreading:
    def test_prefill_pods_charge_cluster_dtypes(self):
        from repro.models.dtypes import DType

        config = ClusterConfig(
            prefill_engines=(GpuPlatform(GpuSystem(count=2)),),
            decode_pods=(
                DecodePodSpec(
                    RpuPlatform(system_for(128, Workload(LLAMA3_70B, seq_len=8192))),
                    LLAMA3_70B,
                ),
            ),
            weight_dtype=DType.BF16,
            kv_dtype=DType.BF16,
            # BF16 weights overflow the MXFP4-sized pod; pin the KV
            # budget so pod construction is decoupled from sizing.
            kv_budget_bytes=8e9,
        )
        pod = ClusterSim(config).prefill_pods[0]
        assert pod.weight_dtype is DType.BF16
        assert pod.kv_dtype is DType.BF16
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=64)
        workload = request.workload(
            weight_dtype=pod.weight_dtype, kv_dtype=pod.kv_dtype
        )
        assert workload.weight_dtype is DType.BF16
        assert workload.kv_dtype is DType.BF16


class TestConfigValidation:
    """Fleet knob validation, incl. the kv_transfer sentinel contract:
    None = decode platform ingest rate, inf = colocated, and zero /
    negative / NaN rates are configuration errors."""

    def config(self, **overrides):
        import dataclasses

        base = Scenario(LLAMA3_70B).cluster()
        return dataclasses.replace(base, **overrides)

    def test_kv_transfer_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                self.config(kv_transfer_bytes_per_s=bad)

    def test_kv_transfer_accepts_sentinels(self):
        assert self.config().kv_transfer_bytes_per_s is None
        assert self.config(
            kv_transfer_bytes_per_s=float("inf")
        ).kv_transfer_bytes_per_s == float("inf")
        self.config(kv_transfer_bytes_per_s=12.5e9)  # plain override ok

    def test_none_sentinel_charges_platform_ingest_rate(self):
        sim = ClusterSim(self.config())
        pod = sim.decode_pods[0]
        assert sim._kv_ingest_rate(pod) == pod.platform.kv_ingest_bytes_per_s

    def test_swap_rate_rejects_nonpositive(self):
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                self.config(swap_bytes_per_s=bad)

    def test_host_capacity_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self.config(host_kv_bytes=0.0)

    def test_paged_budget_below_one_block_rejected(self):
        """A PAGED pod whose budget cannot hold one KV block of its
        model would reject every request; the fleet refuses to build."""
        block = 128 * kv_bytes_per_token(LLAMA3_8B, DType.FP8)
        assert block == 8_388_608
        for budget in (1e6, block - 1.0):
            config = Scenario(LLAMA3_8B, kv_budget_bytes=budget).cluster()
            with pytest.raises(ValueError, match="kv_budget_bytes"):
                ClusterSim(config)
        ClusterSim(Scenario(LLAMA3_8B, kv_budget_bytes=block).cluster())
        ClusterSim(Scenario(
            LLAMA3_8B, kv_budget_bytes=1e6, reservation=Reservation.FULL
        ).cluster())

    def test_prefix_caching_requires_paged(self):
        with pytest.raises(ValueError):
            self.config(
                reservation=Reservation.FULL, prefix_caching=True
            )

    def test_raw_engine_rejected(self):
        """Fleets take platforms only: a raw RpuSystem/GpuSystem fails
        at config build, naming the field and the index."""
        base = self.config()
        raw_gpu = GpuSystem(count=2)
        with pytest.raises(TypeError, match=r"prefill_engines\[1\].*GpuSystem"):
            self.config(prefill_engines=(base.prefill_engines[0], raw_gpu))
        raw_rpu = base.decode_pods[1].engine.system
        with pytest.raises(TypeError, match=r"decode_pods\[1\]\.engine.*RpuSystem"):
            self.config(
                decode_pods=(
                    base.decode_pods[0],
                    DecodePodSpec(raw_rpu, LLAMA3_70B),
                )
            )


class TestReviewRegressions:
    def test_sim_instance_is_reusable(self, traffic_70b):
        """Two runs on one ClusterSim must match (pod state resets)."""
        sim = ClusterSim(Scenario(LLAMA3_70B).cluster())
        a = sim.run(traffic_70b)
        b = sim.run(traffic_70b)
        assert a.duration_s == b.duration_s
        assert a.total_energy_j == pytest.approx(b.total_energy_j)
        assert [r.completed_s for r in a.completed] == [
            r.completed_s for r in b.completed
        ]

    def test_reservations_use_cluster_kv_dtype(self):
        """Admission must budget at the pod's serving dtype, not the
        request's default, or a BF16 cluster over-admits 2x."""
        from repro.models.dtypes import DType
        from repro.serving.scheduler import request_kv_bytes

        request = Request(0, 0.0, LLAMA3_70B, prompt_len=4096, decode_len=2048)
        config = ClusterConfig(
            prefill_engines=(GpuPlatform(GpuSystem(count=2)),),
            decode_pods=(
                DecodePodSpec(
                    RpuPlatform(system_for(128, Workload(LLAMA3_70B, seq_len=8192))),
                    LLAMA3_70B,
                ),
            ),
            kv_dtype=DType.BF16,
        )
        pod = ClusterSim(config).decode_pods[0]
        assert pod.scheduler.reservation_bytes(request) == pytest.approx(
            request_kv_bytes(request, DType.BF16)
        )
        assert pod.scheduler.reservation_bytes(request) > request_kv_bytes(request)

    def test_simultaneous_handoffs_spread_across_pods(self):
        """Requests whose KV is still in flight count as pod load, so a
        burst finishing prefill together fans out instead of herding."""
        config = fleet(LLAMA3_70B, prefill=4)
        burst = [
            Request(i, 0.0, LLAMA3_70B, prompt_len=2048, decode_len=1024)
            for i in range(4)
        ]
        report = simulate(config, burst)
        pods = {r.decode_pod for r in report.completed}
        assert pods == {"decode0", "decode1"}


# ----------------------------------------------------------------------
# The shared prefill service queue (PR 5)
# ----------------------------------------------------------------------
class TestPrefillQueueRegression:
    """Digests captured on the PR 4 checkout (per-arrival greedy pod
    booking, arrival-time cache binding).  With the default knobs --
    FIFO service order, prefix caching off -- the event-driven queue
    serves jobs in arrival order at the earliest pod availability,
    which is the same schedule, so these must match to near machine
    precision.  Multi-pod and preemption-heavy on purpose: resumes
    re-enter the queue."""

    DIGESTS = {
        Reservation.FULL: (
            34.18886242401182, 71, 0, 1202.837290018014,
            1047.3834898880261, 399.3442865874941, 91162.89496130616,
            0.8200741165935838,
        ),
        Reservation.PAGED: (
            24.111887658602285, 71, 64, 913.0464670562149,
            680.7634173863541, 81.17722702445074, 99905.24898366275,
            0.7607098476289832,
        ),
    }

    @pytest.fixture(scope="class")
    def traffic(self):
        return TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=3.0, seed=7,
            duration_s=20.0,
        ).requests(LLAMA3_70B)

    @pytest.mark.parametrize("reservation", list(Reservation))
    def test_pinned_digest(self, traffic, reservation):
        config = Scenario(
            LLAMA3_70B, reservation=reservation, kv_budget_bytes=3e9
        ).cluster()
        report = simulate(config, traffic)
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
        expected = self.DIGESTS[reservation]
        assert digest[1] == expected[1] and digest[2] == expected[2]
        for got, want in zip(digest, expected):
            assert got == pytest.approx(want, rel=1e-12)


class TestDegeneratePolicyEquivalence:
    """Each fancier policy must collapse onto FIFO when its
    discriminating signal is flat (the FULL==PAGED-style pin)."""

    def queued_requests(self, *, prompt_len=2048, priorities=None):
        """Arrivals fast enough to queue behind one prefill pod."""
        priorities = priorities or [0] * 12
        return [
            Request(
                i, 0.05 * i, LLAMA3_70B,
                prompt_len=prompt_len,
                decode_len=64 + 32 * (i % 5),
                priority=priorities[i],
            )
            for i in range(len(priorities))
        ]

    def run(self, requests, **overrides):
        config = fleet(LLAMA3_70B, prefill=1, decode=1, **overrides)
        return simulate(config, requests)

    @staticmethod
    def signature(report):
        return (
            [r.prefill_start_s for r in report.completed],
            [r.first_token_s for r in report.completed],
            [r.completed_s for r in report.completed],
            report.total_energy_j,
        )

    def test_sjf_equals_fifo_with_equal_prompts(self):
        requests = self.queued_requests()
        fifo = self.run(requests, prefill_policy=PrefillPolicy.FIFO)
        sjf = self.run(requests, prefill_policy=PrefillPolicy.SJF)
        assert self.signature(fifo) == self.signature(sjf)

    def test_priority_equals_fifo_with_equal_priorities(self):
        requests = self.queued_requests()
        fifo = self.run(requests, prefill_policy=PrefillPolicy.FIFO)
        prio = self.run(requests, prefill_policy=PrefillPolicy.PRIORITY)
        assert self.signature(fifo) == self.signature(prio)

    def test_affine_equals_fifo_without_prefix_traffic(self):
        requests = self.queued_requests()
        fifo = self.run(requests, prefill_policy=PrefillPolicy.FIFO)
        affine = self.run(
            requests, prefill_policy=PrefillPolicy.PREFIX_AFFINE
        )
        assert self.signature(fifo) == self.signature(affine)

    def test_sjf_serves_short_prompt_first(self):
        requests = [
            Request(0, 0.00, LLAMA3_70B, prompt_len=2048, decode_len=64),
            Request(1, 0.01, LLAMA3_70B, prompt_len=4096, decode_len=64),
            Request(2, 0.02, LLAMA3_70B, prompt_len=512, decode_len=64),
        ]
        report = self.run(requests, prefill_policy=PrefillPolicy.SJF)
        starts = {
            r.request.request_id: r.prefill_start_s for r in report.completed
        }
        # 1 and 2 queue behind 0; the short prompt jumps the long one.
        assert starts[2] < starts[1]

    def test_priority_serves_high_priority_first(self):
        requests = [
            Request(0, 0.00, LLAMA3_70B, 2048, 64, priority=0),
            Request(1, 0.01, LLAMA3_70B, 2048, 64, priority=0),
            Request(2, 0.02, LLAMA3_70B, 2048, 64, priority=5),
        ]
        report = self.run(requests, prefill_policy=PrefillPolicy.PRIORITY)
        starts = {
            r.request.request_id: r.prefill_start_s for r in report.completed
        }
        assert starts[2] < starts[1]

    def test_priority_aging_prevents_starvation(self):
        """A low-priority job queued behind a busy pod outwaits the
        aging window and overtakes fresher high-priority arrivals."""
        occupier = Request(0, 0.0, LLAMA3_70B, 4096, 64, priority=9)
        victim = Request(1, 0.01, LLAMA3_70B, 2048, 64, priority=0)
        competitors = [
            Request(i, 0.02 + 0.05 * (i - 2), LLAMA3_70B, 2048, 64,
                    priority=1)
            for i in range(2, 11)
        ]
        requests = [occupier, victim] + competitors
        aged = self.run(
            requests,
            prefill_policy=PrefillPolicy.PRIORITY,
            prefill_aging_s=0.01,  # waiting 10 ms buys a level
        )
        starved = self.run(
            requests,
            prefill_policy=PrefillPolicy.PRIORITY,
            prefill_aging_s=1e9,  # aging effectively off
        )
        start = {
            run: next(
                r.prefill_start_s
                for r in report.completed
                if r.request.request_id == 1
            )
            for run, report in (("aged", aged), ("starved", starved))
        }
        # Aging: the victim's head start in the queue outweighs the
        # +1 priority of later arrivals.  Without aging it waits for
        # every priority-1 job.
        assert start["aged"] < start["starved"]


class TestLateBoundHits:
    """The deterministic founder + N siblings scenario the refactor
    exists for: siblings arrive while the founder's prefill is in
    flight (so arrival-time checking sees nothing), defer briefly under
    PREFIX_AFFINE, and drain as service-start cache hits."""

    N = 4
    PREFIX_LEN = 4096

    def scenario(self, **overrides):
        settings: dict = dict(
            prefix_caching=True,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
        )
        settings.update(overrides)
        config = fleet(LLAMA3_70B, prefill=1, decode=1, **settings)
        founder = Request(
            0, 0.0, LLAMA3_70B, prompt_len=self.PREFIX_LEN, decode_len=32,
            prefix_id=1, prefix_len=self.PREFIX_LEN,
        )
        siblings = [
            Request(
                i + 1, 0.01, LLAMA3_70B, prompt_len=self.PREFIX_LEN,
                decode_len=32, prefix_id=1, prefix_len=self.PREFIX_LEN,
            )
            for i in range(self.N)
        ]
        return config, [founder] + siblings

    def test_stale_deferral_wake_does_not_inflate_duration(self):
        """The wake pushed at a sibling's deferral deadline must not
        extend the run clock when the sibling was served early --
        duration_s (and every per-duration metric) ends at the last
        real completion, not at an idle deadline."""
        config, requests = self.scenario(affine_defer_s=100.0)
        report = simulate(config, requests)
        assert report.duration_s == max(
            r.completed_s for r in report.completed
        )

    def test_exactly_n_service_start_hits_and_zero_at_arrival(self):
        config, requests = self.scenario()
        report = simulate(config, requests)
        assert len(report.completed) == self.N + 1
        # Every hit token was recovered at service start: nothing was
        # resident when the siblings arrived.
        assert report.late_hits == self.N
        assert report.late_hit_tokens == self.N * self.PREFIX_LEN
        assert report.prefix_hit_tokens == report.late_hit_tokens
        # Founder misses, N siblings look up and hit in full.
        assert report.prefix_lookup_tokens == (self.N + 1) * self.PREFIX_LEN
        assert report.prefill_queue.founder_deferrals == self.N
        assert report.prefill_queue.founder_wait_s > 0.0

    def test_siblings_skip_prefill_and_beat_founder_ttft(self):
        config, requests = self.scenario()
        report = simulate(config, requests)
        records = {r.request.request_id: r for r in report.completed}
        founder = records[0]
        for i in range(1, self.N + 1):
            sibling = records[i]
            assert sibling.cached_prefix_tokens == self.PREFIX_LEN
            assert sibling.prefill_pod == ""  # never touched a pod
            assert sibling.prefill_start_s == sibling.prefill_end_s
            assert sibling.ttft_s < founder.ttft_s

    def test_arrival_binding_misses_all_of_them(self):
        """The PR 4 baseline on the identical scenario: every sibling
        arrives before the founder's prefix is resident, so the cache
        serves nothing and everyone pays a full prefill."""
        config, requests = self.scenario(
            late_binding=False, prefill_policy=PrefillPolicy.FIFO
        )
        report = simulate(config, requests)
        assert len(report.completed) == self.N + 1
        assert report.prefix_hit_tokens == 0
        assert report.late_hits == 0
        assert all(
            r.cached_prefix_tokens == 0 and r.prefill_pod == "prefill0"
            for r in report.completed
        )

    def test_affine_deferral_is_bounded(self):
        """With a zero deferral window PREFIX_AFFINE degenerates to
        FIFO: siblings are never held back."""
        config, requests = self.scenario(affine_defer_s=0.0)
        report = simulate(config, requests)
        assert report.prefill_queue.founder_deferrals == 0
        assert len(report.completed) == self.N + 1

    def test_fully_cached_job_bypasses_busy_pods(self):
        """A job whose whole context is resident needs no prefill pod:
        it must drain the moment the prefix lands, even while every
        pod is busy with unrelated work."""
        config, _ = self.scenario(prefill_policy=PrefillPolicy.FIFO)
        founder = Request(
            0, 0.0, LLAMA3_70B, prompt_len=1024, decode_len=32,
            prefix_id=1, prefix_len=1024,
        )
        # Occupies the only prefill pod long past the founder's ingest.
        long_job = Request(1, 0.01, LLAMA3_70B, prompt_len=16384,
                           decode_len=32)
        sibling = Request(
            2, 0.02, LLAMA3_70B, prompt_len=1024, decode_len=32,
            prefix_id=1, prefix_len=1024,
        )
        report = simulate(config, [founder, long_job, sibling])
        records = {r.request.request_id: r for r in report.completed}
        assert records[2].prefill_pod == ""  # never touched a pod
        assert records[2].cached_prefix_tokens == 1024
        # It started service while the long prefill was still running.
        assert records[2].prefill_start_s < records[1].prefill_end_s
        assert report.late_hits == 1

    def test_arrival_bound_fully_cached_job_skips_pods_too(self):
        """PR 4 forwarded a fully cached request at arrival without
        waiting for a prefill pod; the arrival-bound ablation baseline
        must keep that semantics or the late-binding comparison is
        rigged."""
        config, _ = self.scenario(
            late_binding=False, prefill_policy=PrefillPolicy.FIFO
        )
        founder = Request(
            0, 0.0, LLAMA3_70B, prompt_len=1024, decode_len=32,
            prefix_id=1, prefix_len=1024,
        )
        long_job = Request(1, 5.0, LLAMA3_70B, prompt_len=16384,
                           decode_len=32)
        # Arrives mid-long-prefill with its prefix already resident.
        sibling = Request(
            2, 5.5, LLAMA3_70B, prompt_len=1024, decode_len=32,
            prefix_id=1, prefix_len=1024,
        )
        report = simulate(config, [founder, long_job, sibling])
        records = {r.request.request_id: r for r in report.completed}
        assert records[2].cached_prefix_tokens == 1024
        assert records[2].prefill_pod == ""
        # Forwarded at arrival, not when the long prefill finished.
        assert records[2].prefill_start_s == 5.5
        assert report.late_hits == 0  # resident at arrival: not "late"

    def test_preempted_lone_founder_never_defers_on_itself(self):
        """A preempted group member's own record keeps the group's
        in-flight tally non-zero; its resume must not be deferred
        waiting for itself to publish the prefix."""
        config = fleet(
            LLAMA3_70B,
            decode=1,
            kv_budget_bytes=2e9,  # tight: fillers preempt the founder
            prefix_caching=True,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            affine_defer_s=5.0,
        )
        founder = Request(0, 0.0, LLAMA3_70B, prompt_len=2048,
                          decode_len=2048, priority=0,
                          prefix_id=1, prefix_len=1024)
        fillers = [
            Request(i, 0.2 + 0.05 * i, LLAMA3_70B, prompt_len=2048,
                    decode_len=2048, priority=5)
            for i in range(1, 5)
        ]
        report = simulate(config, [founder] + fillers)
        record = next(
            r for r in report.completed if r.request.request_id == 0
        )
        assert record.num_preemptions > 0  # the resume happened
        assert report.prefill_queue.founder_deferrals == 0
        assert report.prefill_queue.founder_wait_s == 0.0

    def test_group_inflight_tally_drains(self):
        """PREFIX_AFFINE's in-flight tally empties once every group
        member completes, so later cache-missing members of a finished
        group are not deferred waiting for a publisher that is gone."""
        config, requests = self.scenario()
        sim = ClusterSim(config)
        report = sim.run(requests)
        assert len(report.completed) == self.N + 1
        assert sim._group_inflight == {}


class TestPrefillQueueProperties:
    """Hypothesis-style conservation sweep: shared-prefix traffic with
    mixed priorities under a preemption storm, across every prefill
    policy -- nothing lost, nothing duplicated, no KV-pool overflow."""

    def storm_traffic(self, seed):
        classes = tuple(
            TrafficClass(
                LLAMA3_70B, prompt_mean=2048, decode_mean=2048,
                priority=priority, prefix_share_prob=0.8,
                prefix_fanout=6, prefix_frac=0.75,
            )
            for priority in (0, 2)
        )
        return TrafficSpec(
            classes=classes, rate_rps=3.0, seed=seed, duration_s=12.0
        ).requests(LLAMA3_70B)

    @pytest.mark.parametrize("policy", list(PrefillPolicy))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_conservation_and_no_overflow(self, policy, seed):
        requests = self.storm_traffic(seed)
        config = fleet(
            LLAMA3_70B,
            prefill=1,
            decode=1,
            kv_budget_bytes=2e9,  # tight: forces a storm
            prefix_caching=True,
            prefill_policy=policy,
        )
        sim = ClusterSim(config)
        report = sim.run(requests)
        # Conservation: every request completes or is rejected, never
        # both, never lost.
        assert report.total_preemptions > 0  # the storm happened
        assert len(report.completed) + len(report.rejected) == len(requests)
        done = {r.request.request_id for r in report.completed}
        rejected = {r.request.request_id for r in report.rejected}
        assert not done & rejected
        assert done | rejected == {r.request_id for r in requests}
        for record in report.completed:
            # Stage timestamps reflect the *last* pass through the
            # pipeline; the first token may come from an earlier pass
            # of a preempted request, so it is only bounded globally.
            assert (
                record.request.arrival_s
                <= record.prefill_start_s
                <= record.prefill_end_s
                <= record.transfer_end_s
                <= record.admitted_s
                <= record.completed_s
            )
            assert (
                record.request.arrival_s
                < record.first_token_s
                <= record.completed_s
            )
            if record.num_preemptions == 0:
                assert record.admitted_s < record.first_token_s
        # No overflow: occupancy stays within the budget and the pools
        # drain clean (cached ref-0 prefix blocks may stay resident).
        assert 0.0 <= report.mean_decode_kv_occupancy <= 1.0
        for pod in sim.decode_pods:
            store = pod.scheduler.store
            assert store.bytes_in_use == 0.0
            assert store.host_bytes == 0.0
            assert store.device_bytes <= store.budget_bytes + 1e-3
            assert store.idle
        # Hit accounting is internally consistent.
        assert (
            0
            <= report.late_hit_tokens
            <= report.prefix_hit_tokens
            <= report.prefix_lookup_tokens
        )

    def test_deterministic_across_policies(self):
        requests = self.storm_traffic(3)
        for policy in PrefillPolicy:
            config = fleet(
                LLAMA3_70B,
                prefill=1,
                decode=1,
                kv_budget_bytes=3e9,
                prefix_caching=True,
                prefill_policy=policy,
            )
            a = simulate(config, requests)
            b = simulate(config, requests)
            assert [r.completed_s for r in a.completed] == [
                r.completed_s for r in b.completed
            ]
            assert a.late_hit_tokens == b.late_hit_tokens


class TestPrefillQueueReport:
    def test_queue_depth_reported(self):
        requests = [
            Request(i, 0.02 * i, LLAMA3_70B, prompt_len=2048, decode_len=64)
            for i in range(8)
        ]
        config = fleet(LLAMA3_70B, prefill=1, decode=1)
        report = simulate(config, requests)
        assert report.prefill_queue.jobs == 8
        assert report.prefill_queue.peak_depth >= 1
        assert 0.0 < report.prefill_queue.mean_depth
        rendered = report.summary_table().render()
        assert "prefill queue depth" in rendered

    def test_hit_rate_renders_na_with_zero_lookups(self):
        """Zero lookups = undefined rate: the summary must say n/a, not
        0% (the zero-completion bug class)."""
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=64)
        report = simulate(single_pod_config(LLAMA3_70B), [request])
        assert report.prefix_lookup_tokens == 0
        for line in report.summary_table().render().splitlines():
            if "prefix cache hit rate" in line:
                assert "n/a" in line
                assert "0%" not in line
                break
        else:
            raise AssertionError("hit-rate row missing from summary")

    def test_validation_of_queue_knobs(self):
        base = Scenario(LLAMA3_70B).cluster()
        with pytest.raises(ValueError):
            dataclasses.replace(base, affine_defer_s=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(base, affine_defer_s=float("nan"))
        for bad in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                dataclasses.replace(base, prefill_aging_s=bad)
        # The deferral deadline is a heap event: an infinite window
        # would stall the clock at time inf.
        with pytest.raises(ValueError):
            dataclasses.replace(base, affine_defer_s=float("inf"))
        # PREFIX_AFFINE + arrival binding would silently degenerate to
        # FIFO and poison ablations: reject it.
        with pytest.raises(ValueError):
            dataclasses.replace(
                base,
                prefill_policy=PrefillPolicy.PREFIX_AFFINE,
                late_binding=False,
            )

    def test_founder_wait_capped_by_deferral_window(self):
        """Deferral cannot delay a job past its deadline: wait beyond
        it is ordinary pod scarcity, so the booked founder wait per
        deferral never exceeds affine_defer_s.  Pins the fixed-window
        fallback (``affine_adaptive=False``); the adaptive default
        extends the deadline to the founder's completion estimate and
        has its own coverage in test_tenancy.py."""
        config = fleet(
            LLAMA3_70B,
            decode=1,
            prefix_caching=True,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            affine_defer_s=0.05,
            affine_adaptive=False,
        )
        founder = Request(0, 0.0, LLAMA3_70B, prompt_len=4096, decode_len=32,
                          prefix_id=1, prefix_len=4096)
        # Deferred at 0.01 (second pod is idle, founder in flight)...
        sibling = Request(1, 0.01, LLAMA3_70B, prompt_len=4096,
                          decode_len=32, prefix_id=1, prefix_len=4096)
        # ... then the filler takes that pod, so the sibling's service
        # start lands long after its 0.06 deadline.
        filler = Request(2, 0.02, LLAMA3_70B, prompt_len=16384,
                         decode_len=32)
        report = simulate(config, [founder, sibling, filler])
        queue = report.prefill_queue
        assert queue.founder_deferrals == 1
        assert 0.0 < queue.founder_wait_s <= 0.05 + 1e-9
        # The sibling really waited much longer than the window.
        record = next(
            r for r in report.completed if r.request.request_id == 1
        )
        assert record.queue_wait_s > 0.05

    def test_prefix_founders_helper(self):
        requests = [
            Request(0, 0.0, LLAMA3_70B, 512, 64, prefix_id=1, prefix_len=256),
            Request(1, 0.1, LLAMA3_70B, 512, 64, prefix_id=1, prefix_len=256),
            Request(2, 0.2, LLAMA3_70B, 512, 64),
            Request(3, 0.3, LLAMA3_70B, 512, 64, prefix_id=2, prefix_len=128),
            # Same id on another model is a *different* group (the
            # simulator's prefix index keys on (model, prefix_id)).
            Request(4, 0.4, LLAMA3_8B, 512, 64, prefix_id=1, prefix_len=256),
        ]
        assert prefix_founders(requests) == {0, 3, 4}
        assert prefix_founders([]) == set()
