"""Engine-layer tests: the event calendar, the dispatch loop, and the
digest pins that hold the vectorized core to the PR 6 numbers.

The pins are the contract of the whole refactor: every scenario below
was run on the pre-refactor simulator (heap loop inlined in
``cluster.py``, per-request dataclass state, scalar accounting) and its
:func:`repro.serving.engine.report_digest` recorded.  The refactored
engine must reproduce each digest bit-for-bit -- lifecycle timestamps,
float accumulation order, tie-breaks under same-timestamp event storms,
pod stats, tenant tables, everything ``to_json`` serializes.
"""

import dataclasses

import pytest

from repro.api import Scenario, TrafficSpec
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.serving.cluster import PrefillPolicy, simulate
from repro.serving.engine import EventCalendar, report_digest, run_loop
from repro.serving.kvstore import SwapPolicy
from repro.serving.requests import (
    ArrivalTrace,
    Request,
    TrafficClass,
)
from repro.serving.scheduler import Policy, Reservation
from repro.specdec import SpecDecConfig
from repro.serving.tenancy import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    AdmissionConfig,
    AutoscalerConfig,
    TenantSpec,
)


# ----------------------------------------------------------------------
# EventCalendar
# ----------------------------------------------------------------------
class TestEventCalendar:
    def test_batches_drain_in_time_then_seq_order(self):
        cal = EventCalendar()
        cal.push(2.0, 0, "late")
        cal.push(1.0, 0, "a")
        cal.push(1.0, 1, "b")
        when, batch = cal.pop_batch()
        assert when == 1.0
        assert [e[3] for e in batch] == ["a", "b"]
        assert [e[1] for e in batch] == sorted(e[1] for e in batch)
        when, batch = cal.pop_batch()
        assert when == 2.0 and [e[3] for e in batch] == ["late"]
        assert not cal

    def test_open_batch_is_live_for_same_timestamp_pushes(self):
        """A push at the open batch's timestamp lands *inside* the
        batch, after everything already drained -- the interleaving a
        one-pop heap loop produces."""
        cal = EventCalendar()
        cal.push(1.0, 0, "a")
        cal.push(1.0, 0, "b")
        _, batch = cal.pop_batch()
        seen = []
        for event in batch:
            seen.append(event[3])
            if event[3] == "a":
                cal.push(1.0, 0, "chained")  # joins the live batch
                cal.push(1.5, 0, "future")  # goes back on the heap
        assert seen == ["a", "b", "chained"]
        when, batch = cal.pop_batch()
        assert when == 1.5 and [e[3] for e in batch] == ["future"]

    def test_next_pop_closes_the_previous_batch(self):
        cal = EventCalendar()
        cal.push(1.0, 0, "a")
        cal.pop_batch()
        cal.push(2.0, 0, "b")
        cal.pop_batch()
        cal.push(1.0, 0, "too-late")  # 1.0 is no longer open: heap
        when, batch = cal.pop_batch()
        assert when == 1.0 and [e[3] for e in batch] == ["too-late"]

    def test_open_batch_is_not_truthy(self):
        """``run_loop`` pops while the calendar is truthy, so events
        already handed out in the open batch must not count."""
        cal = EventCalendar()
        assert not cal
        cal.push(1.0, 0, None)
        cal.push(1.0, 0, None)
        assert cal
        cal.pop_batch()
        assert not cal  # both still in the open batch, nothing to *pop*

    def test_open_batch_pending_tracks_the_live_batch(self):
        """Mid-batch, a same-timestamp push is visible as pending; the
        cursor (maintained here as run_loop does) marks it consumed."""
        cal = EventCalendar()
        assert not cal.open_batch_pending()
        cal.push(1.0, 0, "a")
        _, batch = cal.pop_batch()
        i = 0
        while i < len(batch):
            cal.cursor = i
            event = batch[i]
            i += 1
            if event[3] == "a":
                cal.push(1.0, 0, "chained")
                # The chained event joined the live batch, not the heap.
                assert cal.open_batch_pending()
            else:
                # In flight on the last batch event: nothing pending.
                assert not cal.open_batch_pending()

    def test_matches_plain_heap_on_a_storm(self):
        """Randomized cross-check: batch draining replays the exact
        single-pop order, including mid-iteration pushes."""
        import heapq
        import random

        rng = random.Random(42)
        schedule = [(float(rng.randint(0, 5)), k) for k in range(40)]

        # Reference: plain heap, one pop at a time.
        heap, seq, ref = [], 0, []
        for when, k in schedule:
            seq += 1
            heapq.heappush(heap, (when, seq, 0, k))
        while heap:
            when, _, _, k = heapq.heappop(heap)
            ref.append((when, k))
            if k % 7 == 0:  # chain a same-time event, like _PREFILL_DONE
                seq += 1
                heapq.heappush(heap, (when, seq, 0, 1000 + k))

        cal, got = EventCalendar(), []
        for when, k in schedule:
            cal.push(when, 0, k)
        while cal:
            when, batch = cal.pop_batch()
            for event in batch:
                k = event[3]
                got.append((when, k))
                if isinstance(k, int) and k < 1000 and k % 7 == 0:
                    cal.push(when, 0, 1000 + k)
        assert got == ref


class TestRunLoop:
    def test_dispatch_table_stale_filter_and_after_hook(self):
        cal = EventCalendar()
        cal.push(1.0, 0, "x")
        cal.push(1.0, 1, "stale")
        cal.push(3.0, 0, "y")
        log = []
        handlers = [
            lambda now, p: log.append(("k0", now, p)),
            lambda now, p: log.append(("k1", now, p)),
        ]
        last = run_loop(
            cal,
            handlers,
            stale=lambda kind, payload: payload == "stale",
            after=lambda now: log.append(("after", now)),
        )
        assert last == 3.0
        assert log == [
            ("k0", 1.0, "x"), ("after", 1.0),
            ("k0", 3.0, "y"), ("after", 3.0),
        ]

    def test_stale_events_do_not_advance_the_clock(self):
        cal = EventCalendar()
        cal.push(1.0, 0, None)
        cal.push(9.0, 0, "stale-tail")
        last = run_loop(
            cal,
            [lambda now, p: None],
            stale=lambda kind, payload: payload == "stale-tail",
        )
        assert last == 1.0

    def test_empty_calendar_returns_zero(self):
        assert run_loop(EventCalendar(), []) == 0.0


# ----------------------------------------------------------------------
# Digest pins: the refactor contract
# ----------------------------------------------------------------------
def _traffic(
    *,
    model=LLAMA3_8B,
    rate=4.0,
    duration=10.0,
    seed=7,
    prefix_share=0.0,
    priorities=(0,),
    prompt_mean=192,
    decode_mean=64,
    max_prompt=16384,
    max_decode=8192,
    fanout=6,
    frac=0.5,
):
    classes = tuple(
        TrafficClass(
            model,
            prompt_mean=prompt_mean,
            decode_mean=decode_mean,
            prompt_sigma=0.5,
            decode_sigma=0.5,
            max_prompt=max_prompt,
            max_decode=max_decode,
            priority=priority,
            prefix_share_prob=prefix_share,
            prefix_fanout=fanout,
            prefix_frac=frac,
        )
        for priority in priorities
    )
    return TrafficSpec(
        classes=classes, rate_rps=rate, seed=seed, duration_s=duration
    ).requests(model)


def _base(model=LLAMA3_8B, kv_budget=2e8, **overrides):
    config = Scenario(model, kv_budget_bytes=kv_budget).cluster()
    return dataclasses.replace(config, **overrides) if overrides else config


def _storm_requests():
    """Hand-built arrival storm: ten requests per instant at t=0,1,2 --
    every tie must break on the event sequence number, so any batching
    slip in the calendar shows up here first."""
    requests = []
    for i in range(30):
        shared = i % 2 == 0
        requests.append(
            Request(
                request_id=i,
                arrival_s=float(i // 10),
                model=LLAMA3_8B,
                prompt_len=128 + 32 * (i % 5),
                decode_len=48 + 16 * (i % 3),
                priority=i % 3,
                prefix_id=i % 4 if shared else None,
                prefix_len=96 if shared else 0,
            )
        )
    return requests


def _fleet_ops():
    """Shedding + autoscaling + tenants: the PR 6 ops surface, small."""
    duration = 12.0
    tenants = (
        TenantSpec(
            "chat",
            traffic=TrafficSpec(
                prompt_mean=192, decode_mean=64, seed=11,
                trace=ArrivalTrace.flash_crowd(2.0, duration, seed=11),
            ),
            slo=INTERACTIVE, priority=2, weight=2.0,
        ),
        TenantSpec(
            "agent",
            traffic=TrafficSpec(
                rate_rps=2.0, duration_s=duration,
                prompt_mean=256, decode_mean=96, seed=12,
                prefix_share_prob=0.8, prefix_fanout=6, prefix_frac=0.6,
            ),
            slo=STANDARD, priority=1,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=1.5, duration_s=duration,
                prompt_mean=256, decode_mean=128, seed=13,
            ),
            slo=BATCH, priority=0, weight=0.5,
        ),
    )
    config = _base(
        prefill_policy=PrefillPolicy.PRIORITY,
        prefix_caching=True,
        kv_budget_bytes=1.5e8,
        tenants=tenants,
        admission=AdmissionConfig(
            enabled=True, tokens_per_s_per_weight=200.0, burst_s=2.0
        ),
        autoscaler=AutoscalerConfig(
            min_prefill_pods=1, max_prefill_pods=3,
            min_decode_pods=1, max_decode_pods=3, max_total_pods=5,
        ),
    )
    return config, TrafficSpec(tenants=tenants).requests(LLAMA3_8B)


def _reasoning_requests(rate=2.0):
    """CoT bursts with tool pauses plus self-consistency fan-out --
    the PR 10 traffic structure, at digest-friendly scale."""
    classes = (
        TrafficClass(
            LLAMA3_70B,
            prompt_mean=1024, decode_mean=2048,
            prompt_sigma=0.5, decode_sigma=0.5,
            cot_turns=3, think_time_mean_s=0.5,
        ),
        TrafficClass(
            LLAMA3_70B,
            prompt_mean=1024, decode_mean=512,
            prompt_sigma=0.5, decode_sigma=0.5,
            self_consistency_n=4,
        ),
    )
    return TrafficSpec(
        classes=classes, rate_rps=rate, seed=53, duration_s=10.0
    ).requests(LLAMA3_70B)


#: name -> () -> (config, requests).  Every branchy feature the
#: simulator grew over PRs 2-6 appears in at least one scenario.
SCENARIOS = {
    "fifo_paged": lambda: (_base(), _traffic()),
    "fifo_full": lambda: (
        _base(reservation=Reservation.FULL), _traffic()
    ),
    "sjf_cached": lambda: (
        _base(
            prefill_policy=PrefillPolicy.SJF,
            policy=Policy.SJF,
            prefix_caching=True,
        ),
        _traffic(prefix_share=0.6, seed=13),
    ),
    "sjf_nocache": lambda: (
        _base(prefill_policy=PrefillPolicy.SJF), _traffic(seed=5)
    ),
    # Aged-priority queue under real KV pressure (the PR 5 preemption
    # regime: 70B reasoning lengths against a ~3-context block pool),
    # so recompute-on-resume, aging and the victim order are all pinned.
    "priority_aged": lambda: (
        _base(
            LLAMA3_70B, 3e9,
            prefill_policy=PrefillPolicy.PRIORITY,
            prefix_caching=True,
            prefill_aging_s=1.0,
        ),
        _traffic(
            model=LLAMA3_70B, priorities=(0, 1, 2), seed=3, rate=3.0,
            prompt_mean=2048, decode_mean=4096,
        ),
    ),
    # The affine pair shares traffic; long 70B founder prefills outlast
    # the fixed 0.3 s window, so the adaptive ETA extension produces a
    # genuinely different schedule (different pins below).
    "affine_adaptive": lambda: (
        _base(
            LLAMA3_70B, 6e9,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            prefix_caching=True,
        ),
        _traffic(
            model=LLAMA3_70B, rate=2.5, seed=17, prefix_share=0.9,
            prompt_mean=4096, decode_mean=256, fanout=8, frac=0.7,
        ),
    ),
    "affine_fixed": lambda: (
        _base(
            LLAMA3_70B, 6e9,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            prefix_caching=True,
            affine_adaptive=False,
            affine_defer_s=0.3,
        ),
        _traffic(
            model=LLAMA3_70B, rate=2.5, seed=17, prefix_share=0.9,
            prompt_mean=4096, decode_mean=256, fanout=8, frac=0.7,
        ),
    ),
    "arrival_bound": lambda: (
        _base(prefix_caching=True, late_binding=False),
        _traffic(prefix_share=0.6, seed=19),
    ),
    # Reasoning-length traffic against a ~1.5-context pool: preempts,
    # swaps, and a few never-fit rejections.
    "swap_always": lambda: (
        _base(kv_budget=6e8, swap_policy=SwapPolicy.ALWAYS),
        _traffic(rate=2.5, duration=12.0, seed=23,
                 prompt_mean=2048, decode_mean=4096),
    ),
    "swap_auto": lambda: (
        _base(
            kv_budget=6e8,
            swap_policy=SwapPolicy.AUTO,
            prefix_caching=True,
        ),
        _traffic(rate=2.5, duration=12.0, seed=23, prefix_share=0.4,
                 prompt_mean=2048, decode_mean=4096, frac=0.7),
    ),
    "event_storm": lambda: (
        _base(prefill_policy=PrefillPolicy.PRIORITY, prefix_caching=True),
        _storm_requests(),
    ),
    "fleet_ops": _fleet_ops,
    # PR 8 additions: eight more scenarios so every policy axis appears
    # crossed with at least one other (FULL x SJF, FULL x storm, NEVER
    # swap, block/chunk granularity, colocation, trace-driven arrivals).
    "full_sjf": lambda: (
        # prefix_caching requires PAGED, so FULL x SJF runs uncached.
        _base(
            reservation=Reservation.FULL,
            policy=Policy.SJF,
            prefill_policy=PrefillPolicy.SJF,
        ),
        _traffic(prefix_share=0.5, seed=29),
    ),
    "swap_never": lambda: (
        _base(kv_budget=6e8, swap_policy=SwapPolicy.NEVER),
        _traffic(rate=2.5, duration=12.0, seed=23,
                 prompt_mean=2048, decode_mean=4096),
    ),
    "storm_full": lambda: (
        _base(
            reservation=Reservation.FULL,
            prefill_policy=PrefillPolicy.PRIORITY,
        ),
        _storm_requests(),
    ),
    "multi_priority_fifo": lambda: (
        _base(), _traffic(priorities=(0, 1, 2), seed=31)
    ),
    "small_blocks": lambda: (
        _base(block_tokens=32, prefix_caching=True),
        _traffic(prefix_share=0.6, seed=37),
    ),
    "chunked_ingest": lambda: (
        _base(chunk_tokens=128, prefix_caching=True),
        _traffic(prefix_share=0.4, seed=41, prompt_mean=1024),
    ),
    "colocated_decode": lambda: (
        _base(kv_transfer_bytes_per_s=float("inf")), _traffic(seed=43)
    ),
    "flash_crowd_trace": lambda: (
        _base(prefill_policy=PrefillPolicy.PRIORITY, prefix_caching=True),
        TrafficSpec(
            prompt_mean=192, decode_mean=64, seed=47,
            prefix_share_prob=0.5,
            trace=ArrivalTrace.flash_crowd(3.0, 10.0, seed=47),
        ).requests(LLAMA3_8B),
    ),
    # PR 10 additions: speculative decoding on the fleet.  Reasoning
    # lengths against a tight 70B pool so draft-KV headroom, the
    # effective-TPOT transform and preemption all interact.
    "specdec_fleet": lambda: (
        _base(LLAMA3_70B, 3e9, specdec=SpecDecConfig()),
        _traffic(
            model=LLAMA3_70B, rate=2.5, seed=59,
            prompt_mean=2048, decode_mean=4096,
        ),
    ),
    # Specdec x reasoning traffic: CoT tool pauses (device parks and
    # AUTO-policy swapped parks over the host tier) plus
    # self-consistency prefix groups under the prefix cache.
    "specdec_reasoning": lambda: (
        _base(
            LLAMA3_70B, 3e9,
            specdec=SpecDecConfig(),
            prefix_caching=True,
            swap_policy=SwapPolicy.AUTO,
        ),
        _reasoning_requests(),
    ),
    # Reasoning traffic without specdec, so tool pauses and a busy
    # prefill queue run through the bulk quiet lane: device parks with
    # recompute preemptions, then swapped parks over the host tier.
    "reasoning_device_parks": lambda: (
        _base(
            LLAMA3_70B, 3e9,
            prefix_caching=True,
            swap_policy=SwapPolicy.NEVER,
        ),
        _reasoning_requests(rate=3.0),
    ),
    "reasoning_swap_parks": lambda: (
        _base(
            LLAMA3_70B, 3e9,
            prefix_caching=True,
            swap_policy=SwapPolicy.AUTO,
        ),
        _reasoning_requests(),
    ),
}

#: Pinned on the pre-refactor checkout (PR 6 code path).  Do not
#: regenerate casually: a changed digest means the simulation's
#: reported numbers changed.
DIGESTS = {
    "fifo_paged": "abd1a5d16772cf537fda0d57bb88235ff852c27c705a497a41aeff8f25d1b19b",
    "fifo_full": "82fe2e1ce37018a2834ac4d7a20a6681823f3d4b9d64888879430f73f83b213a",
    "sjf_cached": "d86e778e463334b2fb7e35c80987264f957738167c5da4e68fd32ea52dde51ab",
    "sjf_nocache": "c002a5c67c9c77573aa59bfff085751b4bb0366db52a8db5ec9cbe29176ee721",
    "priority_aged": "7aaf59fc720ce0b79b68c271bdfed8c269bf8a1fa1bbdc506e72c876b1726fab",
    "affine_adaptive": "7b5409185969eaac55f4b5ff3b77a8f97fb51a908ad4ce7b18cd74c39cfa1529",
    "affine_fixed": "617067e8e2e76bed16b3502501aae4b105856792810902177e02a616cf0b4af9",
    "arrival_bound": "fe41430c88ffb50ee70a2ddcf5929f6b01c8076c959e541a0dfdf59a9e0aedea",
    "swap_always": "53bbe593853f529a7b6f688b031220ed182ad866c2d26fabc17870966c22153c",
    "swap_auto": "a1a112acf91bbcdba624fd2c8cb0b81c3a5ac041c5bd6cbb5a1e21fc59085212",
    "event_storm": "dd5d61ebd17206498c691f46ea703f52e2103b8d24c75d2f84210ad2254334ed",
    "fleet_ops": "c57a89fdca32d88b6abf38816c39c73a07745a4c3b978c8c137895ffc6919ab8",
    # PR 8 scenarios, pinned at introduction (same capture tool; the 12
    # pins above were verified unchanged in the same run).
    "full_sjf": "a135a8f03ba19f8e046c3cff20425ffb8ff7ce7db81e60043388dcab7377cb55",
    "swap_never": "993030ea9e39fe4816923d41b3107a44b9bde2865f6589306fb8719d111f1f1a",
    "storm_full": "ece113a240650738374f43cc249ecc4b4cc230712a7ce8785c56ddce76f9dc62",
    "multi_priority_fifo": "af06c46c29e4a2f811580166c224b4cc88b67d8a7d6eb5098759e50d63bcecf9",
    "small_blocks": "d273e16ce34f78b0a48d81f07262b43e210a845eef7fda09bc51b19540849211",
    "chunked_ingest": "a280e2ed71a6e486d462fb7f8450642ea2141ecf6e36845af6656a50cca74cee",
    "colocated_decode": "ddcd859cdb4a855e5468792cfa6e45052d255d4c955752771ac9d02bf9c679cc",
    "flash_crowd_trace": "13793cd274c4ca044bc1ec94dca85f82a0e6332294908f770cac521a70c05258",
    # PR 10 scenarios, pinned at introduction (same capture tool; the 20
    # pins above were verified unchanged in the same run).
    "specdec_fleet": "a6c8bf29abb0aa86dffd5f766ba943e33e5464ab0fcfe31c6e3765618b6c2d8d",
    "specdec_reasoning": "b46a841cc6c62515a4bd32006409f421f8e07d13047652ea7ae06c768e47c7ca",
    # Reasoning traffic through the bulk quiet lane, pinned on the
    # simulator whose lane still fell back to per-step decode at every
    # pending tool pause and non-empty prefill queue (same capture
    # tool; the 22 pins above were verified unchanged in the same run).
    "reasoning_device_parks": "c2aa85aee0ebf52b990b293844e694ef8337dc43db02a0ada1911f01a27386d5",
    "reasoning_swap_parks": "6539a55357fdf6c91937f084703c3a85047b0956c218e89d1040103a8c67984e",
}


class TestDigestPins:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_digest(self, name):
        config, requests = SCENARIOS[name]()
        report = simulate(config, requests)
        assert report_digest(report) == DIGESTS[name], (
            f"scenario {name!r} diverged from the PR 6 pin"
        )

    def test_digest_is_deterministic_across_runs(self):
        config, requests = SCENARIOS["fifo_paged"]()
        first = report_digest(simulate(config, requests))
        second = report_digest(simulate(config, requests))
        assert first == second

    def test_digest_sees_lifecycle_drift(self):
        """The oracle is sensitive to a single field of a single
        record -- the property every pin above leans on."""
        config, requests = SCENARIOS["fifo_paged"]()
        report = simulate(config, requests)
        baseline = report_digest(report)
        report.completed[0].queue_wait_s += 1e-9
        assert report_digest(report) != baseline


class TestTracedDigestPins:
    """Observation must not perturb: with the trace recorder ON, every
    pin above must still reproduce bit-for-bit.  ``sample_period_s=0``
    samples the gauge timeline at every event boundary -- the heaviest
    telemetry setting is held to the same digests as no telemetry."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_digest_with_tracing_on(self, name):
        from repro.obs import TraceConfig

        config, requests = SCENARIOS[name]()
        traced = dataclasses.replace(
            config, trace=TraceConfig(sample_period_s=0.0)
        )
        report = simulate(traced, requests)
        assert report_digest(report) == DIGESTS[name], (
            f"scenario {name!r}: tracing perturbed the simulation"
        )
        assert report.trace is not None
        assert report.timeline is not None
        assert report.trace.emitted_spans > 0
