"""Speculative decoding on the fleet (PR 10): the effective-TPOT
transform on decode pods, split draft placement, draft-KV headroom,
and tool-call parking (device parks and swapped parks)."""

import dataclasses

import pytest
from fleets import fleet

from repro.api import Scenario
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.models.workload import Workload
from repro.serving.cluster import ClusterSim, simulate
from repro.serving.engine import report_digest
from repro.serving.kvstore import SwapPolicy
from repro.serving.requests import Request, TrafficClass, TrafficSpec
from repro.serving.scheduler import ContinuousBatchScheduler, Reservation
from repro.specdec import SpecDecConfig


def _traffic(seed=61, rate=2.0, duration=10.0):
    cls = TrafficClass(
        LLAMA3_70B, prompt_mean=1024, decode_mean=2048,
        prompt_sigma=0.5, decode_sigma=0.5,
    )
    return TrafficSpec(
        classes=(cls,), rate_rps=rate, seed=seed, duration_s=duration
    ).requests(LLAMA3_70B)


def _config(**overrides):
    return Scenario(LLAMA3_70B, kv_budget_bytes=3e9, **overrides).cluster()


class TestSpecdecWiring:
    def test_fleet_completes_and_decodes_faster(self):
        requests = _traffic()
        off = simulate(_config(), requests)
        on = simulate(_config(specdec=SpecDecConfig()), requests)
        assert len(on.completed) == len(off.completed) == len(requests)
        busy_off = sum(p.busy_s for p in off.pod_stats if p.kind == "decode")
        busy_on = sum(p.busy_s for p in on.pod_stats if p.kind == "decode")
        # Same committed tokens, acceptance-rate-cheaper steps.
        assert busy_on < busy_off
        # Per-token decode latency (TPOT) drops for the median request.
        assert on.tpot_percentile(50) < off.tpot_percentile(50)

    def test_step_cost_is_the_effective_window_cost(self):
        specdec = SpecDecConfig()
        sim = ClusterSim(_config(specdec=specdec))
        pod = sim.decode_pods[0]
        assert pod.specdec is specdec
        assert pod.draft_platform is None  # colocated
        batch, context = 4, 2048
        latency_s, energy_j = pod.step_cost(batch, context)
        # Context is bucketed by the memo; recompute on the floored
        # point exactly as DecodePod does.
        from repro.serving.cluster import STEP_CONTEXT_BUCKET

        floored = max(
            STEP_CONTEXT_BUCKET,
            (context // STEP_CONTEXT_BUCKET) * STEP_CONTEXT_BUCKET,
        )
        verify = pod.platform.decode_step(
            Workload(
                LLAMA3_70B, batch_size=batch, seq_len=floored,
                weight_dtype=pod.platform.preferred_weight_dtype,
                kv_dtype=pod.kv_dtype,
            ),
            check_capacity=False,
        )
        draft = pod.platform.decode_step(
            Workload(
                LLAMA3_8B, batch_size=batch, seq_len=floored,
                weight_dtype=pod.platform.preferred_weight_dtype,
                kv_dtype=pod.kv_dtype,
            ),
            check_capacity=False,
        )
        want_latency, want_energy = specdec.effective_step_cost(draft, verify)
        assert latency_s == pytest.approx(want_latency)
        assert energy_j == pytest.approx(want_energy)

    def test_split_placement_builds_draft_platform_and_pays_sync(self):
        colocated = ClusterSim(_config(specdec=SpecDecConfig()))
        split = ClusterSim(
            _config(specdec=SpecDecConfig(draft_platform="gpu"))
        )
        pod = split.decode_pods[0]
        assert colocated.decode_pods[0].draft_platform is None
        assert pod.draft_platform is not None
        # Split drafting prices the draft on the GPU platform plus the
        # window hand-off: a different cost than colocated drafting.
        split_cost = pod.step_cost(4, 2048)
        colo_cost = colocated.decode_pods[0].step_cost(4, 2048)
        assert split_cost != colo_cost

    def test_draft_kv_headroom_reaches_the_scheduler(self):
        sim = ClusterSim(_config(specdec=SpecDecConfig()))
        assert sim.decode_pods[0].scheduler.draft_tokens == 8
        bare = ClusterSim(_config())
        assert bare.decode_pods[0].scheduler.draft_tokens == 0
        uncharged = ClusterSim(
            _config(specdec=SpecDecConfig(charge_draft_kv=False))
        )
        assert uncharged.decode_pods[0].scheduler.draft_tokens == 0

    def test_specdec_run_is_deterministic(self):
        requests = _traffic()
        config = _config(specdec=SpecDecConfig())
        a = report_digest(simulate(config, requests))
        b = report_digest(simulate(config, requests))
        assert a == b


class TestDraftKvCharging:
    def _scheduler(self, draft_tokens):
        return ContinuousBatchScheduler(
            kv_budget_bytes=1e9,
            reservation=Reservation.PAGED,
            block_tokens=128,
            draft_tokens=draft_tokens,
        )

    def test_paged_footprint_includes_draft_headroom(self):
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=120, decode_len=132)
        plain = self._scheduler(0).paged_total_bytes(request)
        # 252 tokens fit 2 blocks of 128; +8 draft tokens tips the
        # last nearly-full block over into a third.
        specdec = self._scheduler(8).paged_total_bytes(request)
        assert specdec > plain

    def test_block_growth_triggers_early_under_headroom(self):
        plain = self._scheduler(0)
        specdec = self._scheduler(8)
        request = Request(0, 0.0, LLAMA3_70B, prompt_len=64, decode_len=256)
        for scheduler in (plain, specdec):
            scheduler.enqueue(request, 0.0)
            scheduler.admit(0.0)
        p_entry = plain.active[0]
        s_entry = specdec.active[0]
        # Walk tokens_done to just below the first block boundary: the
        # specdec scheduler must grow a block 8 tokens sooner.
        p_entry.tokens_done = s_entry.tokens_done = 128 - 64 - 8
        assert specdec._needs_block(s_entry)
        assert not plain._needs_block(p_entry)

    def test_negative_draft_tokens_rejected(self):
        with pytest.raises(ValueError):
            self._scheduler(-1)


class TestStrandedPoolRescue:
    """Fan-out traffic used to deadlock a prefix-caching pod: fully
    cached siblings skip prefill and wait in the decode queue holding
    ref-counted pins on their group's blocks, so enough *distinct*
    prefix groups filled the pool with blocks that were neither leased
    nor reclaimable -- admission could never succeed, the pod stopped
    stepping, and the run silently dropped its tail.  The scheduler now
    rescues the stranded state by releasing queued pins (recompute
    semantics) and admitting through the idle-pool bypass."""

    def _overload(self, *, swap_policy=SwapPolicy.NEVER, specdec=None,
                  cot_turns=1):
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=1024, decode_mean=2048,
            prompt_sigma=0.5, decode_sigma=0.5,
            cot_turns=cot_turns, think_time_mean_s=0.3,
            self_consistency_n=2,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=8.0, seed=5, duration_s=12.0
        ).requests(LLAMA3_70B)
        config = fleet(
            LLAMA3_70B,
            decode=1,
            kv_budget_bytes=3e9,
            prefix_caching=True,
            swap_policy=swap_policy,
            specdec=specdec,
        )
        return config, requests

    def test_distinct_prefix_groups_cannot_strand_the_pool(self):
        config, requests = self._overload()
        report = simulate(config, requests)
        assert (
            len(report.completed) + len(report.rejected) + len(report.shed)
            == len(requests)
        )
        assert len(report.completed) > 0

    def test_rescue_survives_swapped_back_founders(self):
        # Preempted-then-swapped-back founders hold *donated* shared
        # blocks (not acquire-pinned ones); the rescue must see those
        # refs too.
        config, requests = self._overload(swap_policy=SwapPolicy.AUTO)
        report = simulate(config, requests)
        assert (
            len(report.completed) + len(report.rejected) + len(report.shed)
            == len(requests)
        )

    def test_rescue_composes_with_specdec_and_parking(self):
        config, requests = self._overload(
            swap_policy=SwapPolicy.AUTO,
            specdec=SpecDecConfig(),
            cot_turns=3,
        )
        a = simulate(config, requests)
        assert (
            len(a.completed) + len(a.rejected) + len(a.shed) == len(requests)
        )
        assert report_digest(a) == report_digest(simulate(config, requests))


class TestToolParking:
    def test_device_park_delays_completion_by_think_time(self):
        think_s = 5.0
        plain = Request(0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=256)
        paused = dataclasses.replace(plain, tool_pauses=((100, think_s),))
        base = simulate(_config(), [plain])
        parked = simulate(_config(), [paused])
        assert len(base.completed) == len(parked.completed) == 1
        delta = parked.completed[0].completed_s - base.completed[0].completed_s
        assert delta >= think_s

    def test_device_park_counts_and_keeps_kv_resident(self):
        paused = Request(
            0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=256,
            tool_pauses=((100, 2.0), (200, 1.0)),
        )
        sim = ClusterSim(_config())
        report = sim.run([paused])
        assert len(report.completed) == 1
        stats = sim.decode_pods[0].store.stats
        assert stats.tool_parks == 2
        # Device parks never ride the host tier.
        assert stats.swap_outs == 0
        assert report.completed[0].num_swaps == 0

    def test_swapped_park_round_trips_the_host_tier(self):
        paused = Request(
            0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=256,
            tool_pauses=((100, 2.0),),
        )
        sim = ClusterSim(
            _config(swap_policy=SwapPolicy.ALWAYS, host_kv_bytes=64e9)
        )
        report = sim.run([paused])
        assert len(report.completed) == 1
        record = report.completed[0]
        stats = sim.decode_pods[0].store.stats
        assert stats.tool_parks == 1
        assert stats.swap_outs == 1
        assert stats.swap_ins == 1
        assert record.num_swaps == 1
        # The host tier is empty again once the run drains.
        assert sim.decode_pods[0].store.host_bytes == 0.0

    def test_parked_fleet_still_drains_under_load(self):
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=512, decode_mean=512,
            prompt_sigma=0.5, decode_sigma=0.5,
            cot_turns=3, think_time_mean_s=0.5,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=2.0, seed=67, duration_s=8.0
        ).requests(LLAMA3_70B)
        assert any(r.tool_pauses for r in requests)
        report = simulate(_config(), requests)
        assert len(report.completed) == len(requests)

    def test_traced_run_counts_parks_and_swapped_parks(self):
        from repro.obs import TraceConfig

        paused = Request(
            0, 0.0, LLAMA3_70B, prompt_len=512, decode_len=256,
            tool_pauses=((100, 2.0),),
        )
        config = _config(
            swap_policy=SwapPolicy.ALWAYS,
            host_kv_bytes=64e9,
            trace=TraceConfig(),
        )
        report = simulate(config, [paused])
        assert report.trace is not None
        assert report.trace.counters["tool_paused"] == 1
        assert report.trace.counters["swapped"] == 1
        # Tracing never perturbs the simulation itself.
        untraced = simulate(
            _config(swap_policy=SwapPolicy.ALWAYS, host_kv_bytes=64e9),
            [paused],
        )
        assert report_digest(report) == report_digest(untraced)

    def test_parking_composes_with_specdec(self):
        cls = TrafficClass(
            LLAMA3_70B, prompt_mean=512, decode_mean=512,
            prompt_sigma=0.5, decode_sigma=0.5,
            cot_turns=2, think_time_mean_s=0.5, self_consistency_n=2,
        )
        requests = TrafficSpec(
            classes=(cls,), rate_rps=2.0, seed=71, duration_s=8.0
        ).requests(LLAMA3_70B)
        config = _config(
            specdec=SpecDecConfig(),
            prefix_caching=True,
            swap_policy=SwapPolicy.AUTO,
        )
        report = simulate(config, requests)
        assert len(report.completed) == len(requests)
        assert report_digest(report) == report_digest(
            simulate(config, requests)
        )
