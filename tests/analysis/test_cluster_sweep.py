"""Cluster sweeps: the generic ``sweep()`` engine, the named specs
pinned bit for bit, saturation behaviour, pod scaling, ISO-power claim,
the KV hierarchy levers and the prefill service queue."""

import dataclasses
import hashlib

import pytest

from repro.analysis import cluster_sweep
from repro.analysis.cluster_sweep import swap_costs, sweep
from repro.api import PodGroup, Scenario, TrafficSpec
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.serving.cluster import ClusterSim, PrefillPolicy
from repro.serving.engine import report_digest
from repro.serving.requests import prefix_founders, sibling_ttft_mean
from repro.serving.scheduler import Reservation

#: sha256 over each named sweep's ordered per-point ``report_digest``s
#: at the size its fixture below runs.  Captured from the hand-written
#: sweeps these specs replaced, by re-simulating each of their
#: (ClusterConfig, requests) pairs: the specs do the same work bit for
#: bit.
SWEEP_DIGESTS = {
    "throughput_latency_curve":
        "bcec14b9bf2cbea1f1338e168110c26e4ec660c5f5f63a6a385410d27d764fc4",
    "pod_scaling_curve":
        "c285ed87dffd98c91a8fb0715a238e6f391ce412dd557a3120d58538ac4b0169",
    "gpu_vs_disaggregated":
        "d3be0113b66b87631111edf6847b230e1d4fc1d6c4f1769cada1ef95ea0907ba",
    "reservation_sweep":
        "dc34eb73037446d1aad85bfbbded2a615a53862c65aee00f07f30ef25b601e07",
    "prefix_hit_sweep":
        "01b17d132392fcd93175fd1acd6eea9262c89f61c70be562c2dd01e756a31d3e",
    "swap_crossover_sweep":
        "19ede086de4f8cb3334ee6156898a32c6847d34670ded48b78b2f46875cbbe4a",
    "prefill_policy_sweep":
        "6f5c4271b0abca092614901eac17cf3f72cc8b3251ddaafdc6434e8aa9d4a73f",
}


@pytest.fixture(scope="module")
def throughput_latency_curve():
    return cluster_sweep.throughput_latency_curve(
        LLAMA3_70B, rates_rps=(0.25, 1.0, 4.0), duration_s=15.0
    )


@pytest.fixture(scope="module")
def pod_scaling_curve():
    return cluster_sweep.pod_scaling_curve(
        LLAMA3_70B, pod_counts=(1, 2, 4), rate_rps=4.0, duration_s=12.0
    )


@pytest.fixture(scope="module")
def gpu_vs_disaggregated():
    return cluster_sweep.gpu_vs_disaggregated(LLAMA3_70B, duration_s=15.0)


@pytest.fixture(scope="module")
def reservation_sweep():
    # Budgets chosen so KV admission binds for FULL at this load
    # (at generous budgets both policies tie, trivially).
    return cluster_sweep.reservation_sweep(
        LLAMA3_70B, kv_budgets_gb=(3.0, 4.0), duration_s=20.0
    )


@pytest.fixture(scope="module")
def prefix_hit_sweep():
    return cluster_sweep.prefix_hit_sweep(
        LLAMA3_70B, share_probs=(0.0, 0.9), rate_rps=4.0, duration_s=12.0
    )


@pytest.fixture(scope="module")
def swap_crossover_sweep():
    return cluster_sweep.swap_crossover_sweep(
        LLAMA3_70B, host_link_gbps=(100.0, 1.5), duration_s=15.0
    )


@pytest.fixture(scope="module")
def prefill_policy_sweep():
    return cluster_sweep.prefill_policy_sweep(
        LLAMA3_70B, rates_rps=(2.0, 8.0), duration_s=10.0
    )


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_reproduces_pinned_work(name, request):
    rows = request.getfixturevalue(name)
    digests = "\n".join(report_digest(report) for _, report in rows)
    assert hashlib.sha256(digests.encode()).hexdigest() == SWEEP_DIGESTS[name]


class TestSweep:
    """The engine: product order, linked overrides, traffic keys, one
    traffic generation per run of equal traffic, early field checks."""

    BASE = Scenario(
        LLAMA3_70B,
        traffic=TrafficSpec(rate_rps=1.0, duration_s=3.0, decode_mean=256),
        decode=(PodGroup("rpu", count=1),),
    )

    def test_first_axis_is_outermost(self):
        rows = sweep(
            self.BASE,
            [{"traffic.rate_rps": 0.5}, {"traffic.rate_rps": 1.0}],
            [{"reservation": Reservation.FULL}, {"reservation": Reservation.PAGED}],
        )
        assert [(p.traffic.rate_rps, p.reservation) for p, _ in rows] == [
            (0.5, Reservation.FULL),
            (0.5, Reservation.PAGED),
            (1.0, Reservation.FULL),
            (1.0, Reservation.PAGED),
        ]

    def test_one_axis_value_sets_several_fields(self):
        gpu = {"decode": (PodGroup("gpu", count=1),), "colocated": True}
        [(point, report)] = sweep(self.BASE, [gpu])
        assert point == dataclasses.replace(self.BASE, **gpu)
        assert report_digest(report) == report_digest(point.run())
        decode = [p for p in report.pod_stats if p.kind == "decode"]
        assert [p.platform for p in decode] == ["2xH100-SXM"]

    def test_traffic_keys_override_traffic_spec(self):
        [(point, report)] = sweep(
            self.BASE, [{"traffic.rate_rps": 2.0, "traffic.seed": 3}]
        )
        assert point.traffic == dataclasses.replace(
            self.BASE.traffic, rate_rps=2.0, seed=3
        )
        assert point.decode == self.BASE.decode
        assert report.num_submitted == len(point.requests())

    def test_one_requests_call_per_run_of_equal_traffic(self, monkeypatch):
        calls = []
        generate = Scenario.requests

        def counting(self):
            calls.append(self.traffic.seed)
            return generate(self)

        monkeypatch.setattr(Scenario, "requests", counting)
        seeds = [{"traffic.seed": 0}, {"traffic.seed": 1}]
        budgets = [{"kv_budget_bytes": 3e9}, {"kv_budget_bytes": 6e9}]
        rows = sweep(self.BASE, seeds, budgets)
        assert calls == [0, 1]
        # Points sharing a run of traffic saw the very same arrivals.
        assert rows[0][1].num_submitted == rows[1][1].num_submitted
        calls.clear()
        sweep(self.BASE, budgets, seeds)  # traffic alternates: no sharing
        assert calls == [0, 1, 0, 1]

    @staticmethod
    def count_runs(monkeypatch):
        """Every ``ClusterSim.run`` call from here on, by simulator."""
        ran = []
        run = ClusterSim.run

        def counting(self, requests):
            ran.append(self)
            return run(self, requests)

        monkeypatch.setattr(ClusterSim, "run", counting)
        return ran

    def test_unknown_field_raises_before_any_point_runs(self, monkeypatch):
        ran = self.count_runs(monkeypatch)
        with pytest.raises(TypeError, match="'kv_budget'"):
            sweep(self.BASE, [{"reservation": Reservation.FULL}, {"kv_budget": 1e9}])
        with pytest.raises(TypeError, match="'rate'"):
            sweep(self.BASE, [{"traffic.rate": 2.0}])
        assert ran == []

    def test_fleet_check_raises_before_any_point_runs(self, monkeypatch):
        """A KV budget below one block fails only when the fleet is
        built; every point's fleet is built before the first runs."""
        ran = self.count_runs(monkeypatch)
        base = Scenario(LLAMA3_8B, traffic=TrafficSpec(rate_rps=1.0, duration_s=5.0))
        with pytest.raises(
            ValueError, match=r"kv_budget_bytes=1e\+06 is below one KV block"
        ):
            sweep(base, [{"kv_budget_bytes": 3e9}, {"kv_budget_bytes": 1e6}])
        assert ran == []


def _decode_utilization(report):
    decode = [p for p in report.pod_stats if p.kind == "decode"]
    return sum(p.utilization(report.duration_s) for p in decode) / len(decode)


class TestThroughputLatency:
    def test_throughput_tracks_offered_load(self, throughput_latency_curve):
        reports = [report for _, report in throughput_latency_curve]
        delivered = [r.tokens_per_s for r in reports]
        assert delivered == sorted(delivered)
        # An uncongested fleet delivers what is offered: 16x the RPS
        # (0.25 -> 4.0) buys several times the delivered tokens.
        assert reports[-1].tokens_per_s > 4 * reports[0].tokens_per_s

    def test_latency_tails_grow_with_load(self, throughput_latency_curve):
        reports = [report for _, report in throughput_latency_curve]
        assert reports[-1].ttft_percentile(99) >= reports[0].ttft_percentile(99)
        assert all(r.ttft_percentile(50) <= r.ttft_percentile(99) for r in reports)

    def test_uncongested_fleet_meets_slo(self, throughput_latency_curve):
        point, report = throughput_latency_curve[0]
        assert point.traffic.rate_rps == 0.25
        assert report.goodput == pytest.approx(1.0)
        assert report.mean_queueing_delay_s == pytest.approx(0.0, abs=0.05)


class TestPodScaling:
    def test_throughput_monotone_in_pods(self, pod_scaling_curve):
        assert [p.decode[0].count for p, _ in pod_scaling_curve] == [1, 2, 4]
        delivered = [r.tokens_per_s for _, r in pod_scaling_curve]
        assert all(b >= a * 0.99 for a, b in zip(delivered, delivered[1:]))

    def test_goodput_recovers_with_pods(self, pod_scaling_curve):
        first, last = pod_scaling_curve[0][1], pod_scaling_curve[-1][1]
        assert last.goodput >= first.goodput
        assert last.goodput > 0.95

    def test_marginal_pod_utilization_falls(self, pod_scaling_curve):
        """Once the pool absorbs the load, extra pods sit idle more."""
        first, last = pod_scaling_curve[0][1], pod_scaling_curve[-1][1]
        assert _decode_utilization(last) <= _decode_utilization(first)


class TestReservationSweep:
    def test_two_points_per_budget(self, reservation_sweep):
        assert len(reservation_sweep) == 4
        assert [p.reservation for p, _ in reservation_sweep] == [
            Reservation.FULL, Reservation.PAGED,
            Reservation.FULL, Reservation.PAGED,
        ]

    def test_paged_wins_at_equal_budget(self, reservation_sweep):
        """The acceptance claim: paged reservation never loses goodput
        and strictly wins decode throughput at every budget."""
        for (fp, full), (pp, paged) in zip(
            reservation_sweep[::2], reservation_sweep[1::2]
        ):
            assert fp.kv_budget_bytes == pp.kv_budget_bytes
            assert paged.goodput >= full.goodput
            assert paged.tokens_per_s > full.tokens_per_s
            assert len(paged.completed) == len(full.completed)

    def test_only_paged_preempts(self, reservation_sweep):
        for point, report in reservation_sweep:
            if point.reservation is Reservation.FULL:
                assert report.total_preemptions == 0

    def test_tight_budget_goodput_gap_is_large(self, reservation_sweep):
        full, paged = reservation_sweep[0][1], reservation_sweep[1][1]
        assert paged.goodput - full.goodput > 0.1


class TestIsoPowerComparison:
    def test_disaggregated_goodput_wins_at_equal_power(self, gpu_vs_disaggregated):
        (_, gpu), (_, rpu) = gpu_vs_disaggregated
        assert rpu.goodput >= gpu.goodput
        assert rpu.goodput > 0.9

    def test_disaggregated_decodes_faster(self, gpu_vs_disaggregated):
        (_, gpu), (_, rpu) = gpu_vs_disaggregated
        assert rpu.tokens_per_s / gpu.tokens_per_s > 2.0
        assert rpu.tpot_percentile(50) < gpu.tpot_percentile(50)

    def test_iso_power_is_honest(self, gpu_vs_disaggregated):
        """The RPU pool was sized to the GPU decode pods' TDP."""
        (gpu_point, _), (rpu_point, _) = gpu_vs_disaggregated
        gpu_pod = gpu_point.cluster().decode_pods[0].engine
        rpu_pod = rpu_point.cluster().decode_pods[0].engine
        assert gpu_pod.tdp_w == pytest.approx(1400.0)
        assert rpu_pod.system.num_cus >= 1


class TestPrefixHitSweep:
    def test_hit_rate_rises_with_sharing(self, prefix_hit_sweep):
        no_share, high_share = prefix_hit_sweep[1], prefix_hit_sweep[3]
        assert no_share[0].traffic.prefix_share_prob == 0.0
        assert no_share[0].prefix_caching
        assert no_share[1].prefix_hit_rate == 0.0
        assert high_share[1].prefix_hit_rate > no_share[1].prefix_hit_rate

    def test_caching_never_loses_at_equal_budget(self, prefix_hit_sweep):
        for (_, uncached), (_, cached) in zip(
            prefix_hit_sweep[::2], prefix_hit_sweep[1::2]
        ):
            assert len(cached.completed) == len(uncached.completed)
            assert cached.goodput >= uncached.goodput

    def test_hits_lower_ttft(self, prefix_hit_sweep):
        (_, uncached), (_, cached) = prefix_hit_sweep[-2:]
        assert cached.ttft_percentile(50) < uncached.ttft_percentile(50)


class TestSwapCrossoverSweep:
    """Rows per link: NEVER (recompute), ALWAYS (swap), AUTO."""

    def test_crossover_exists_along_the_link_axis(self, swap_crossover_sweep):
        fast_swap, fast_recompute = swap_costs(swap_crossover_sweep[0][0])
        slow_swap, slow_recompute = swap_costs(swap_crossover_sweep[3][0])
        assert fast_swap < fast_recompute and not slow_swap < slow_recompute
        # Recompute cost does not depend on the host link.
        assert fast_recompute == pytest.approx(slow_recompute)

    def test_auto_tracks_the_cheaper_branch(self, swap_crossover_sweep):
        (_, fast), (_, slow_swap), (_, slow) = (
            swap_crossover_sweep[2], swap_crossover_sweep[4],
            swap_crossover_sweep[5],
        )
        assert fast.total_preemptions > 0 and slow.total_preemptions > 0
        assert fast.total_swaps == fast.total_preemptions
        assert slow.total_swaps == 0
        # On the slow link AUTO must not pay the swap penalty.
        assert slow.e2e_percentile(95) <= slow_swap.e2e_percentile(95) + 1e-9


def _late_bound_rows(rows):
    """``(point, report, baseline, founders)`` per late-bound row, next
    to the arrival-bound baseline that opens its rate's block."""
    paired = []
    for point, report in rows:
        if not point.late_binding:
            baseline, founders = report, prefix_founders(point.requests())
        else:
            paired.append((point, report, baseline, founders))
    return paired


def _recovered_hit_rate(report, baseline):
    return report.prefix_hit_rate - baseline.prefix_hit_rate


class TestPrefillPolicySweep:
    def test_every_policy_completes_everything(self, prefill_policy_sweep):
        rows = _late_bound_rows(prefill_policy_sweep)
        assert {p.prefill_policy for p, *_ in rows} == set(PrefillPolicy)
        by_rate = {}
        for point, report, _, _ in rows:
            by_rate.setdefault(point.traffic.rate_rps, set()).add(
                len(report.completed)
            )
        # Identical traffic at each rate: every policy completes the
        # same request count.
        for counts in by_rate.values():
            assert len(counts) == 1

    def test_late_binding_recovers_hits_under_saturation(self, prefill_policy_sweep):
        for point, report, baseline, founders in _late_bound_rows(
            prefill_policy_sweep
        ):
            if point.traffic.rate_rps != 8.0:
                continue
            assert report.prefix_hit_rate > baseline.prefix_hit_rate
            assert report.late_hit_tokens > 0
            assert _recovered_hit_rate(report, baseline) > 0.0
            assert sibling_ttft_mean(report.completed, founders) < sibling_ttft_mean(
                baseline.completed, founders
            )

    def test_gap_widens_with_load(self, prefill_policy_sweep):
        """The recovered hit rate grows as the prefill pool saturates
        -- at low load the queue is empty and both bindings agree."""
        gap = {}
        for point, report, baseline, _ in _late_bound_rows(prefill_policy_sweep):
            gap.setdefault(point.traffic.rate_rps, []).append(
                _recovered_hit_rate(report, baseline)
            )
        assert max(gap[2.0]) < min(gap[8.0])

    def test_affine_beats_fifo_hit_rate_at_saturation(self, prefill_policy_sweep):
        by_policy = {
            point.prefill_policy: report
            for point, report, _, _ in _late_bound_rows(prefill_policy_sweep)
            if point.traffic.rate_rps == 8.0
        }
        assert (
            by_policy[PrefillPolicy.PREFIX_AFFINE].prefix_hit_rate
            >= by_policy[PrefillPolicy.FIFO].prefix_hit_rate
        )
        assert by_policy[PrefillPolicy.PREFIX_AFFINE].prefill_queue.peak_depth >= 1
