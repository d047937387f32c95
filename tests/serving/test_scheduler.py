"""Continuous-batching scheduler properties: no KV overflow,
conservation, ordering, determinism."""

import random

import pytest

from repro.models.llama3 import LLAMA3_70B
from repro.serving.requests import Request
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    Policy,
    Reservation,
    request_kv_bytes,
)

GB = 1e9


def make_request(request_id, prompt_len=2048, decode_len=512, arrival=0.0):
    return Request(request_id, arrival, LLAMA3_70B, prompt_len, decode_len)


def random_request(rng, request_id):
    return make_request(
        request_id,
        prompt_len=rng.randrange(64, 8192),
        decode_len=rng.randrange(16, 4096),
    )


def drive(scheduler, requests, *, seed=0):
    """Feed all requests, then run admit/advance rounds to completion,
    checking the KV and batch invariants at every step boundary.
    Returns the request_ids in admission order."""
    rng = random.Random(seed)
    pending = list(requests)
    admitted_order = []
    now = 0.0
    finished_total = 0
    while pending or scheduler.has_work:
        # Arrivals trickle in a few at a time.
        for _ in range(rng.randrange(0, 3)):
            if pending:
                scheduler.enqueue(pending.pop(0), now)
        for entry in scheduler.admit(now):
            admitted_order.append(entry.request.request_id)
        assert scheduler.kv_in_use_bytes <= scheduler.kv_budget_bytes
        assert scheduler.batch_size <= scheduler.max_batch
        assert scheduler.kv_in_use_bytes == pytest.approx(
            sum(e.kv_reserved_bytes for e in scheduler.active)
        )
        now += 0.01
        finished_total += len(scheduler.advance(now))
    return admitted_order, finished_total


class TestInvariants:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_no_kv_overflow_under_pressure(self, policy):
        """A tight budget forces queueing; the reservation never exceeds
        the budget at any step boundary."""
        rng = random.Random(42)
        requests = [random_request(rng, i) for i in range(60)]
        budget = 4 * max(request_kv_bytes(r) for r in requests)
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=budget, max_batch=8, policy=policy
        )
        _, finished = drive(scheduler, requests)
        assert finished == len(requests)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_conservation(self, policy):
        """Every enqueued request is eventually admitted exactly once and
        finishes; nothing is lost or duplicated."""
        rng = random.Random(7)
        requests = [random_request(rng, i) for i in range(40)]
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=4, policy=policy
        )
        admitted, finished = drive(scheduler, requests)
        assert sorted(admitted) == [r.request_id for r in requests]
        assert finished == len(requests)
        assert scheduler.kv_in_use_bytes == pytest.approx(0.0, abs=1.0)
        assert not scheduler.queue and not scheduler.active

    def test_deterministic(self):
        rng = random.Random(3)
        requests = [random_request(rng, i) for i in range(30)]

        def run():
            scheduler = ContinuousBatchScheduler(
                kv_budget_bytes=300 * GB, max_batch=6
            )
            return drive(scheduler, list(requests), seed=11)

        assert run() == run()


class TestPolicies:
    def test_fifo_admits_in_order(self):
        requests = [make_request(i, decode_len=1024 - 10 * i) for i in range(20)]
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=3, policy=Policy.FIFO
        )
        admitted, _ = drive(scheduler, requests, seed=5)
        assert admitted == sorted(admitted)

    def test_sjf_prefers_short_jobs(self):
        """With everything queued up front, SJF admits by decode length."""
        requests = [make_request(i, decode_len=100 * (10 - i)) for i in range(10)]
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=2, policy=Policy.SJF
        )
        for r in requests:
            scheduler.enqueue(r, 0.0)
        first = scheduler.admit(0.0)
        lengths = [e.request.decode_len for e in first]
        assert lengths == sorted(lengths)
        assert lengths[0] == min(r.decode_len for r in requests)

    def test_sjf_ranks_resumes_by_remaining_decode(self):
        """A resumed job is as short as the tokens it still owes, not
        its full decode length."""
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=1, policy=Policy.SJF
        )
        scheduler.enqueue(make_request(0, decode_len=100), 0.0)
        scheduler.enqueue(
            make_request(1, decode_len=1000), 0.0, tokens_done=990
        )
        (first,) = scheduler.admit(0.0)
        assert first.request.request_id == 1
        assert first.remaining_tokens == 10

    def test_sjf_breaks_ties_by_arrival(self):
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=3, policy=Policy.SJF
        )
        for request_id, now in ((0, 0.3), (1, 0.1), (2, 0.2)):
            scheduler.enqueue(make_request(request_id, decode_len=64), now)
        admitted = [e.request.request_id for e in scheduler.admit(0.3)]
        assert admitted == [1, 2, 0]

    def test_fifo_head_blocks_queue(self):
        big = make_request(0, prompt_len=8192, decode_len=4096)
        small = make_request(1, prompt_len=64, decode_len=16)
        budget = request_kv_bytes(big) + request_kv_bytes(small) / 2
        scheduler = ContinuousBatchScheduler(kv_budget_bytes=budget, max_batch=8)
        scheduler.enqueue(big, 0.0)
        scheduler.enqueue(small, 0.0)
        assert len(scheduler.admit(0.0)) == 1  # big admitted
        assert len(scheduler.admit(0.0)) == 0  # small must wait its turn

    def test_sjf_bypasses_blocked_head(self):
        big = make_request(0, prompt_len=8192, decode_len=4096)
        small = make_request(1, prompt_len=64, decode_len=8192)
        tiny = make_request(2, prompt_len=64, decode_len=16)
        budget = request_kv_bytes(big) + request_kv_bytes(tiny)
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=budget, max_batch=8, policy=Policy.SJF
        )
        for r in (big, small, tiny):
            scheduler.enqueue(r, 0.0)
        admitted = {e.request.request_id for e in scheduler.admit(0.0)}
        # tiny (shortest) and big fit; small would overflow and is skipped.
        assert admitted == {2, 0}


class TestAdmissionLimits:
    def test_oversized_request_refused(self):
        request = make_request(0, prompt_len=8192, decode_len=8192)
        scheduler = ContinuousBatchScheduler(kv_budget_bytes=1 * GB)
        assert not scheduler.fits_ever(request)
        with pytest.raises(ValueError):
            scheduler.enqueue(request, 0.0)

    def test_max_batch_enforced(self):
        requests = [make_request(i, decode_len=64) for i in range(10)]
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=3
        )
        for r in requests:
            scheduler.enqueue(r, 0.0)
        assert len(scheduler.admit(0.0)) == 3
        scheduler.advance(1.0)
        assert scheduler.batch_size == 3  # still mid-flight, no admission room


class TestBudgetDust:
    def test_exact_budget_request_admits_after_drain(self):
        """After the batch drains, float dust must not strand a request
        whose reservation exactly fills the budget."""
        filler = [make_request(i, prompt_len=100 + 7 * i, decode_len=4) for i in range(5)]
        exact = make_request(99, prompt_len=8192, decode_len=4096)
        budget = request_kv_bytes(exact)
        scheduler = ContinuousBatchScheduler(kv_budget_bytes=budget, max_batch=8)
        for r in filler:
            scheduler.enqueue(r, 0.0)
        scheduler.admit(0.0)
        for step in range(1, 5):
            scheduler.advance(float(step))
        assert not scheduler.active
        assert scheduler.kv_in_use_bytes == 0.0
        scheduler.enqueue(exact, 5.0)
        assert len(scheduler.admit(5.0)) == 1


class TestPureProbes:
    """The side-effect-free admission mirrors the cluster's bulk decode
    lane probes mid-event: same verdict as ``admit``, zero mutation."""

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("reservation", list(Reservation))
    def test_would_admit_nothing_matches_admit(self, policy, reservation):
        """At every step boundary of a pressured run, the pure probe
        predicts exactly whether ``admit`` comes back empty."""
        rng = random.Random(13)
        requests = [random_request(rng, i) for i in range(40)]
        budget = 3 * max(request_kv_bytes(r) for r in requests)
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=budget, max_batch=6,
            policy=policy, reservation=reservation,
        )
        pending, now, checked = list(requests), 0.0, 0
        while pending or scheduler.has_work:
            for _ in range(rng.randrange(0, 3)):
                if pending:
                    scheduler.enqueue(pending.pop(0), now)
            predicted_nothing = scheduler.would_admit_nothing()
            admitted = scheduler.admit(now)
            assert predicted_nothing == (not admitted)
            checked += 1
            now += 0.01
            scheduler.advance(now)
        assert checked > len(requests)  # the run actually queued

    def test_probe_is_pure(self):
        """Probing neither reorders the queue nor touches the KV ledger
        -- unlike ``admit``, which reclaims cached blocks."""
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=2, policy=Policy.SJF
        )
        for i, decode in enumerate((512, 16, 128)):
            scheduler.enqueue(make_request(i, decode_len=decode), 0.0)
        before_queue = [q.request.request_id for q in scheduler.queue]
        before_bytes = scheduler.kv_in_use_bytes
        assert not scheduler.would_admit_nothing()
        assert [q.request.request_id for q in scheduler.queue] == before_queue
        assert scheduler.kv_in_use_bytes == before_bytes

    def test_trivial_verdicts(self):
        scheduler = ContinuousBatchScheduler(
            kv_budget_bytes=2000 * GB, max_batch=1
        )
        assert scheduler.would_admit_nothing()  # empty queue
        scheduler.enqueue(make_request(0, decode_len=8), 0.0)
        scheduler.enqueue(make_request(1, decode_len=8), 0.0)
        scheduler.admit(0.0)
        # Batch full: the queued request cannot enter.
        assert scheduler.batch_size == scheduler.max_batch
        assert scheduler.would_admit_nothing()
