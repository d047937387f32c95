"""KV cache hierarchy: store-level ref-counting/reclaim/swap units,
scheduler-integrated invariants under shared-prefix preemption storms,
and the regression pins proving the disabled hierarchy is bit-identical
to the pre-kvstore simulator."""

import dataclasses
import random

import pytest

from fleets import fleet

from repro.api import Scenario
from repro.models.llama3 import LLAMA3_70B
from repro.serving.cluster import simulate
from repro.serving.kvstore import KvBlockStore, SwapPolicy, swap_recompute_costs
from repro.serving.requests import (
    Request,
    TrafficClass,
    TrafficSpec,
    reasoning_traffic,
)
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    Reservation,
    request_kv_bytes,
)

GB = 1e9
MODEL = "llama3-70b"
BPB = 100.0  # bytes per block in the unit tests
BLOCK = 128  # tokens per block


def make_store(**overrides):
    defaults = dict(budget_bytes=100 * BPB, prefix_caching=True)
    defaults.update(overrides)
    return KvBlockStore(**defaults)


class TestStoreValidation:
    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            KvBlockStore(budget_bytes=0.0)

    def test_rejects_bad_host_capacity(self):
        with pytest.raises(ValueError):
            KvBlockStore(budget_bytes=GB, host_capacity_bytes=0.0)
        KvBlockStore(budget_bytes=GB, host_capacity_bytes=None)  # ok


class TestLeaseAccounting:
    """The pool ledger the scheduler's budget checks are built on."""

    def test_admit_grow_release_roundtrip(self):
        store = make_store()
        store.admit(1, 4 * BPB, 4, BPB)
        assert store.bytes_in_use == 4 * BPB
        store.grow(1)
        assert store.bytes_in_use == 5 * BPB
        freed = store.release(1)
        assert freed == 5 * BPB
        assert store.bytes_in_use == 0.0
        assert store.idle

    def test_release_unknown_sequence_is_noop(self):
        store = make_store()
        assert store.release(99) == 0.0

    def test_overhead_is_exactly_zero_when_caching_disabled(self):
        """The bit-identical guarantee hinges on this."""
        store = make_store(prefix_caching=False)
        store.admit(1, 3 * BPB, 3, BPB)
        assert store.register_prefix(1, MODEL, 7, 300, BLOCK) == 0
        assert store.acquire_prefix(2, MODEL, 7, 300, BLOCK) == 0
        assert store.resident_overhead_bytes == 0.0
        assert store.peek_prefix(MODEL, 7, 300, BLOCK) == 0


class TestPrefixSharing:
    def owner_registers(self, store, seq_id=1, prefix_len=300):
        """Admit an owner covering the prefix and publish it."""
        blocks = 4
        store.admit(seq_id, blocks * BPB, blocks, BPB)
        return store.register_prefix(seq_id, MODEL, 7, prefix_len, BLOCK)

    def test_register_donates_full_blocks_and_caches_tail(self):
        store = make_store()
        donated = self.owner_registers(store)  # 300 = 2 full blocks + 44
        assert donated == 2
        # Donated bytes moved from the private to the shared ledger;
        # the tail copy is cached (ref 0, reclaimable).
        assert store.bytes_in_use == 2 * BPB
        assert store.shared_bytes == 2 * BPB
        assert store.cached_bytes == BPB
        assert store.stats.registered_blocks == 3
        assert store.peek_prefix(MODEL, 7, 300, BLOCK) == 300

    def test_acquire_pins_chain_and_tail(self):
        store = make_store()
        self.owner_registers(store)
        pinned = store.acquire_prefix(2, MODEL, 7, 300, BLOCK)
        assert pinned == 300
        assert store.pinned_full_blocks(2) == 2
        assert store.pinned_tokens(2) == 300
        # The tail pin moved the cached copy into the referenced pool.
        assert store.cached_bytes == 0.0
        assert store.shared_bytes == 3 * BPB
        assert store.stats.hit_rate == 1.0

    def test_admission_privatizes_tail_copy_on_write(self):
        store = make_store()
        self.owner_registers(store)
        store.acquire_prefix(2, MODEL, 7, 300, BLOCK)
        store.admit(2, 2 * BPB, 2, BPB)  # its private continuation
        assert store.stats.cow_copies == 1
        # The COW drop returned the tail to the reclaimable cache.
        assert store.cached_bytes == BPB
        assert store.pinned_full_blocks(2) == 2

    def test_ref_counting_keeps_blocks_alive_until_last_release(self):
        store = make_store()
        self.owner_registers(store)
        store.acquire_prefix(2, MODEL, 7, 256, BLOCK)
        store.release(1)  # owner leaves; sharer still references
        assert store.peek_prefix(MODEL, 7, 256, BLOCK) == 256
        assert store.shared_bytes == 2 * BPB
        store.release(2)  # last ref: blocks become reclaimable cache
        assert store.shared_bytes == 0.0
        assert store.cached_bytes == 3 * BPB  # 2 chain + 1 tail
        assert store.peek_prefix(MODEL, 7, 256, BLOCK) == 256  # still resident

    def test_reclaim_evicts_lru_and_breaks_the_chain(self):
        store = make_store()
        self.owner_registers(store)
        store.release(1)
        assert store.reclaim_cached(BPB)
        # Lookups stop at the first missing block, so evicting the
        # LRU (block 0) makes the whole chain unreachable.
        assert store.peek_prefix(MODEL, 7, 300, BLOCK) < 300
        store.reclaim_cached(100 * BPB)
        assert store.cached_bytes == 0.0
        assert store.peek_prefix(MODEL, 7, 300, BLOCK) == 0
        assert not store.reclaim_cached(1.0)  # nothing left to evict

    def test_referenced_blocks_are_not_reclaimable(self):
        store = make_store()
        self.owner_registers(store)
        assert not store.reclaim_cached(10 * BPB) or store.shared_bytes == 2 * BPB
        assert store.peek_prefix(MODEL, 7, 256, BLOCK) == 256

    def test_partial_chain_hit(self):
        store = make_store()
        store.admit(1, 4 * BPB, 4, BPB)
        store.register_prefix(1, MODEL, 7, 2 * BLOCK, BLOCK)  # 2 full, no tail
        pinned = store.acquire_prefix(2, MODEL, 7, 3 * BLOCK, BLOCK)
        # Only the resident part of the longer prefix is served.
        assert pinned == 2 * BLOCK
        assert store.stats.hit_tokens == 2 * BLOCK
        assert store.stats.lookup_tokens == 3 * BLOCK

    def test_miss_leaves_no_lease_behind(self):
        store = make_store()
        assert store.acquire_prefix(5, MODEL, 9, 256, BLOCK) == 0
        assert store.num_leases == 0
        assert store.stats.lookup_tokens == 256

    def test_record_prefix_miss_enters_denominator(self):
        store = make_store()
        store.record_prefix_miss(512)
        assert store.stats.lookup_tokens == 512
        assert store.stats.hit_rate == 0.0

    def test_register_is_idempotent_across_siblings(self):
        store = make_store()
        self.owner_registers(store, seq_id=1)
        store.admit(2, 4 * BPB, 4, BPB)
        assert store.register_prefix(2, MODEL, 7, 300, BLOCK) == 0
        assert store.bytes_in_use == 2 * BPB + 4 * BPB


class TestSwapTier:
    def test_swap_roundtrip_frees_device_and_host(self):
        store = make_store()
        store.admit(1, 5 * BPB, 5, BPB)
        moved = store.swap_out(1)
        assert moved == 5 * BPB
        assert store.bytes_in_use == 0.0
        assert store.host_bytes == 5 * BPB
        assert store.swapped_bytes(1) == 5 * BPB
        assert store.swap_in(1) == 5 * BPB
        assert store.host_bytes == 0.0
        assert store.stats.swap_outs == 1 and store.stats.swap_ins == 1
        assert store.stats.swap_out_bytes == store.stats.swap_in_bytes == 5 * BPB

    def test_swap_keeps_shared_refs_pinned(self):
        store = make_store()
        store.admit(1, 4 * BPB, 4, BPB)
        store.register_prefix(1, MODEL, 7, 2 * BLOCK, BLOCK)
        moved = store.swap_out(1)
        # Only private bytes cross the link; the prefix refs stay
        # *pinned* for the round trip (the resume relies on those
        # tokens being resident), so they are never reclaimable.
        assert moved == 2 * BPB
        assert store.shared_bytes == 2 * BPB
        assert not store.reclaim_cached(2 * BPB)
        store.swap_in(1)
        # The restored lease still references the prefix: re-admission
        # only needs the private remainder.
        assert store.pinned_full_blocks(1) == 2
        assert store.shared_bytes == 2 * BPB
        store.release(1)
        assert store.shared_bytes == 0.0  # last ref dropped to cache

    def test_host_capacity_bounds_swap(self):
        store = make_store(host_capacity_bytes=3 * BPB)
        assert store.can_swap(3 * BPB)
        assert not store.can_swap(4 * BPB)
        store.admit(1, 2 * BPB, 2, BPB)
        store.swap_out(1)
        assert not store.can_swap(2 * BPB)
        assert store.can_swap(BPB)


class TestCostModel:
    def test_crossover_in_host_bandwidth(self):
        """Swap wins on a fast host link, recompute on a slow one."""
        from repro.models.dtypes import DType
        from repro.models.kv_cache import kv_cache_bytes
        from repro.platform import GpuPlatform
        from repro.platform.base import KV_TRANSFER_BYTES_PER_S
        from repro.gpu.system import GpuSystem

        context = 4096
        resident = kv_cache_bytes(LLAMA3_70B, context, 1, DType.FP8)
        platform = GpuPlatform(GpuSystem(count=2))

        def costs(host_gbps):
            return swap_recompute_costs(
                LLAMA3_70B, context, resident,
                prefill_platform=platform,
                kv_dtype=DType.FP8,
                handoff_bytes_per_s=KV_TRANSFER_BYTES_PER_S,
                host_bytes_per_s=host_gbps * 1e9 / 8,
            )

        fast_swap, fast_rec = costs(400.0)
        slow_swap, slow_rec = costs(1.0)
        assert fast_swap < fast_rec
        assert slow_swap > slow_rec
        assert fast_rec == pytest.approx(slow_rec)  # link-independent

    def test_recompute_grows_superlinearly_with_context(self):
        """Attention makes re-prefill superlinear while swap bytes are
        linear -- the prompt-length axis of the crossover."""
        from repro.models.dtypes import DType
        from repro.models.kv_cache import kv_cache_bytes
        from repro.platform import GpuPlatform
        from repro.platform.base import KV_TRANSFER_BYTES_PER_S
        from repro.gpu.system import GpuSystem

        platform = GpuPlatform(GpuSystem(count=2))

        def recompute(context):
            _, rec = swap_recompute_costs(
                LLAMA3_70B, context,
                kv_cache_bytes(LLAMA3_70B, context, 1, DType.FP8),
                prefill_platform=platform,
                kv_dtype=DType.FP8,
                handoff_bytes_per_s=KV_TRANSFER_BYTES_PER_S,
                host_bytes_per_s=KV_TRANSFER_BYTES_PER_S,
            )
            return rec

        assert recompute(32768) > 4.0 * recompute(4096)


# ----------------------------------------------------------------------
# Scheduler-integrated properties under shared-prefix storms
# ----------------------------------------------------------------------
def fanout_requests(num_groups=8, fanout=5, prefix_len=512, seed=0):
    """Groups of decode-heavy requests sharing a prompt prefix."""
    rng = random.Random(seed)
    requests = []
    for group in range(num_groups):
        for _ in range(fanout):
            prompt = prefix_len + rng.randrange(64, 512)
            requests.append(
                Request(
                    len(requests), 0.0, LLAMA3_70B,
                    prompt_len=prompt,
                    decode_len=rng.randrange(512, 2048),
                    prefix_id=group, prefix_len=prefix_len,
                )
            )
    rng.shuffle(requests)
    return requests


def check_store_invariants(scheduler):
    store = scheduler.store
    assert store.device_bytes <= scheduler.kv_budget_bytes + 1e-3
    assert store.bytes_in_use == pytest.approx(
        sum(e.kv_reserved_bytes for e in scheduler.active)
    )
    assert store.shared_bytes >= 0.0 and store.cached_bytes >= 0.0


def drive_with_prefixes(scheduler, requests, *, max_steps=200_000):
    """Cluster-style driver: sharers pin resident prefixes before they
    enqueue (what :class:`repro.serving.cluster.ClusterSim` does at
    arrival), then admit/advance to drain."""
    pending = list(requests)
    finished = []
    now = 0.0
    for _ in range(max_steps):
        if not pending and not scheduler.has_work:
            return finished
        if pending:
            request = pending.pop(0)
            scheduler.store.acquire_prefix(
                request.request_id, request.model.name, request.prefix_id,
                request.prefix_len, scheduler.block_tokens,
            )
            scheduler.enqueue(request, now, needs_prefill=True)
        scheduler.admit(now)
        check_store_invariants(scheduler)
        now += 0.01
        finished.extend(
            e.request.request_id for e in scheduler.advance(now)
        )
    raise AssertionError("scheduler did not drain (livelock?)")


class TestSharedPrefixStorm:
    def make_scheduler(self, requests, *, budget_factor=2.5):
        budget = budget_factor * max(request_kv_bytes(r) for r in requests)
        return ContinuousBatchScheduler(
            kv_budget_bytes=budget,
            max_batch=8,
            reservation=Reservation.PAGED,
            store=KvBlockStore(budget_bytes=budget, prefix_caching=True),
        )

    def test_conservation_and_clean_drain(self):
        requests = fanout_requests()
        scheduler = self.make_scheduler(requests)
        finished = drive_with_prefixes(scheduler, requests)
        assert sorted(finished) == sorted(r.request_id for r in requests)
        assert scheduler.num_preemptions > 0  # the storm happened
        # Every lease drained; only reclaimable cache may remain.
        assert scheduler.store.num_leases == 0
        assert scheduler.store.idle
        assert scheduler.store.bytes_in_use == 0.0
        assert scheduler.store.shared_bytes == 0.0
        assert scheduler.store.device_bytes == scheduler.store.cached_bytes

    def test_sharing_actually_happened(self):
        requests = fanout_requests()
        scheduler = self.make_scheduler(requests, budget_factor=4.0)
        drive_with_prefixes(scheduler, requests)
        stats = scheduler.store.stats
        assert stats.registered_blocks > 0
        assert stats.hit_tokens > 0
        assert 0.0 < stats.hit_rate <= 1.0

    def test_deterministic_under_sharing(self):
        requests = fanout_requests(seed=3)

        def run():
            scheduler = self.make_scheduler(requests)
            finished = drive_with_prefixes(scheduler, list(requests))
            return finished, scheduler.store.stats.hit_tokens

        assert run() == run()

    def test_prefill_skips_pinned_tokens(self):
        """A sharer's chunked ingest covers only the non-cached tokens."""
        budget = 100 * GB
        store = KvBlockStore(budget_bytes=budget, prefix_caching=True)
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=budget, reservation=Reservation.PAGED,
            chunk_tokens=512, store=store,
        )
        owner = Request(0, 0.0, LLAMA3_70B, prompt_len=1024, decode_len=4,
                        prefix_id=1, prefix_len=1024)
        scheduler.enqueue(owner, 0.0, needs_prefill=True)
        (entry,) = scheduler.admit(0.0)
        scheduler.advance(1.0)
        scheduler.advance(2.0)
        assert not entry.is_prefilling  # owner ingested 1024 in 2 chunks
        sharer = Request(1, 0.0, LLAMA3_70B, prompt_len=1536, decode_len=4,
                         prefix_id=1, prefix_len=1024)
        pinned = store.acquire_prefix(1, LLAMA3_70B.name, 1, 1024, 128)
        assert pinned == 1024
        scheduler.enqueue(sharer, 2.0, needs_prefill=True)
        (sharer_entry,) = [
            e for e in scheduler.admit(2.0) if e.request.request_id == 1
        ]
        # 1536-token context minus 1024 cached = one 512-token chunk.
        assert sharer_entry.prefill_remaining == 512
        assert sharer_entry.shared_blocks == 8


# ----------------------------------------------------------------------
# Regression pins: the hierarchy disabled is the pre-kvstore simulator
# ----------------------------------------------------------------------
class TestDisabledHierarchyRegression:
    """Digests captured on the pre-kvstore checkout (PR 3 head) for the
    canonical tight-budget cluster run.  With prefix caching and
    swapping disabled (the defaults), the refactored pool accounting
    performs the same float operations in the same order, so these must
    match to near machine precision."""

    DIGESTS = {
        Reservation.FULL: (
            29.09635065341068, 31, 0, 526.9469665128115,
            463.8267508938252, 41591.75828807143, 0.7928065165731789,
        ),
        Reservation.PAGED: (
            22.86778347947946, 31, 29, 400.36504130157283,
            310.9741174653216, 49019.45533268039, 0.7195207070083095,
        ),
    }

    @pytest.fixture(scope="class")
    def traffic(self):
        return TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0,
            duration_s=20.0,
        ).requests(LLAMA3_70B)

    @pytest.mark.parametrize("reservation", list(Reservation))
    def test_pinned_digest(self, traffic, reservation):
        config = fleet(
            LLAMA3_70B, decode=1, reservation=reservation, kv_budget_bytes=3e9
        )
        report = simulate(config, traffic)
        digest = (
            report.duration_s,
            len(report.completed),
            report.total_preemptions,
            sum(r.completed_s for r in report.completed),
            sum(r.first_token_s for r in report.completed),
            report.total_energy_j,
            report.mean_decode_kv_occupancy,
        )
        expected = self.DIGESTS[reservation]
        assert digest[1] == expected[1] and digest[2] == expected[2]
        for got, want in zip(digest, expected):
            assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# Cluster-level hierarchy behavior
# ----------------------------------------------------------------------
def shared_traffic(rate_rps=4.0, duration_s=15.0, seed=0):
    traffic = TrafficClass(
        LLAMA3_70B, prompt_mean=2048, decode_mean=512,
        prefix_share_prob=0.9, prefix_fanout=8, prefix_frac=0.75,
    )
    return TrafficSpec(
        classes=(traffic,), rate_rps=rate_rps, seed=seed, duration_s=duration_s
    ).requests(LLAMA3_70B)


class TestClusterPrefixCaching:
    @pytest.fixture(scope="class")
    def fleets(self):
        requests = shared_traffic()
        base = Scenario(LLAMA3_70B, kv_budget_bytes=6e9).cluster()
        cached = dataclasses.replace(base, prefix_caching=True)
        return requests, simulate(base, requests), simulate(cached, requests)

    def test_conservation_and_causality(self, fleets):
        requests, _, cached = fleets
        assert len(cached.completed) == len(requests)
        for record in cached.completed:
            assert (
                record.request.arrival_s
                <= record.prefill_start_s
                <= record.prefill_end_s
                <= record.transfer_end_s
                <= record.admitted_s
                <= record.completed_s
            )

    def test_hits_lower_ttft_at_equal_budget(self, fleets):
        _, uncached, cached = fleets
        assert cached.prefix_hit_rate > 0.2
        assert uncached.prefix_hit_rate == 0.0
        assert cached.ttft_percentile(50) < uncached.ttft_percentile(50)
        assert cached.goodput >= uncached.goodput

    def test_cached_tokens_recorded_on_requests(self, fleets):
        _, _, cached = fleets
        assert any(r.cached_prefix_tokens > 0 for r in cached.completed)

    def test_summary_reports_hit_rate(self, fleets):
        _, uncached, cached = fleets
        rendered = cached.summary_table().render()
        assert "prefix cache hit rate" in rendered
        assert "late-bound prefix hits" in rendered
        # Zero lookups = rate undefined: the row renders n/a, not a
        # misleading 0% (same bug class as the zero-completion fix).
        for line in uncached.summary_table().render().splitlines():
            if "prefix cache hit rate" in line:
                assert "n/a" in line
                break
        else:
            raise AssertionError("hit-rate row missing from summary")

    def test_deterministic(self, fleets):
        requests, _, cached = fleets
        config = Scenario(
            LLAMA3_70B, kv_budget_bytes=6e9, prefix_caching=True
        ).cluster()
        again = simulate(config, requests)
        assert [r.completed_s for r in again.completed] == [
            r.completed_s for r in cached.completed
        ]
        assert again.prefix_hit_rate == cached.prefix_hit_rate


class TestClusterSwap:
    @pytest.fixture(scope="class")
    def pressure(self):
        return TrafficSpec(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0,
            duration_s=20.0,
        ).requests(LLAMA3_70B)

    def tight(self, **overrides):
        return fleet(LLAMA3_70B, decode=1, kv_budget_bytes=3e9, **overrides)

    def test_always_swaps_and_conserves(self, pressure):
        report = simulate(
            self.tight(swap_policy=SwapPolicy.ALWAYS), pressure
        )
        assert len(report.completed) == len(pressure)
        assert report.total_swaps > 0
        assert report.total_swap_bytes > 0.0
        assert any(r.num_swaps > 0 for r in report.completed)
        assert "KV swaps (host tier)" in report.summary_table().render()
        # Swapped resumes never go back through a prefill pod, so swap
        # round trips must not inflate the recompute counters.
        decode = [p for p in report.pod_stats if p.kind == "decode"][0]
        assert decode.swap_outs == decode.swap_ins == report.total_swaps
        assert decode.swap_out_bytes == pytest.approx(decode.swap_in_bytes)

    def test_auto_prefers_recompute_on_slow_link(self, pressure):
        slow = simulate(
            self.tight(
                swap_policy=SwapPolicy.AUTO, swap_bytes_per_s=1.5e9 / 8
            ),
            pressure,
        )
        assert slow.total_preemptions > 0
        assert slow.total_swaps == 0  # cost model says recompute

    def test_auto_prefers_swap_on_fast_link(self, pressure):
        fast = simulate(
            self.tight(
                swap_policy=SwapPolicy.AUTO, swap_bytes_per_s=float("inf")
            ),
            pressure,
        )
        assert fast.total_preemptions > 0
        assert fast.total_swaps == fast.total_preemptions

    def test_host_capacity_falls_back_to_recompute(self, pressure):
        bounded = simulate(
            self.tight(
                swap_policy=SwapPolicy.ALWAYS, host_kv_bytes=1e6
            ),
            pressure,
        )
        assert bounded.total_swaps == 0  # nothing fits the host tier
        assert len(bounded.completed) == len(pressure)

    def test_deterministic_under_swapping(self, pressure):
        config = self.tight(swap_policy=SwapPolicy.ALWAYS)
        a = simulate(config, pressure)
        b = simulate(config, pressure)
        assert a.duration_s == b.duration_s
        assert a.total_swaps == b.total_swaps
        assert [r.completed_s for r in a.completed] == [
            r.completed_s for r in b.completed
        ]
