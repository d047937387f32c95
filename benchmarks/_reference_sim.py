"""Frozen PR 6 cluster simulator (wall-clock baseline -- do not edit).

A snapshot of ``repro.serving.cluster``'s behavioral core -- pods,
record, prefill job, ``ClusterSim`` and ``simulate`` -- as it stood
before the vectorized-core refactor.  ``bench_sim_speed.py`` runs the
same scenario through this module and the live one and asserts (a) the
live engine is >= the pinned factor faster and (b) the two
``ClusterReport``\ s share a digest, so the speedup is measured against
the real old code path, not a remembered number.

Config/report/enum types are imported from the live package rather
than copied: scenarios are built with live constructors, and both code
paths must produce the *same* report type for the digest comparison to
be meaningful (``Policy``/``Reservation``/``PrefillPolicy`` members are
compared with ``is``).  Only classes whose behavior the refactor
touches are frozen here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.models.config import ModelConfig
from repro.models.dtypes import DType
from repro.models.kv_cache import kv_cache_bytes
from repro.models.workload import Workload
from repro.platform import Platform, as_platform
from repro.serving.cluster import (
    STEP_CONTEXT_BUCKET,
    ClusterConfig,
    ClusterReport,
    PodStats,
    PrefillPolicy,
    PrefillQueueStats,
)
from repro.serving.disaggregated import INTERACTION_THRESHOLD_S
from repro.serving.kvstore import KvBlockStore, SwapPolicy, swap_recompute_costs
from repro.serving.requests import Request
from repro.serving.scheduler import Reservation
from repro.serving.tenancy import ScalingEvent

try:
    from benchmarks._reference_scheduler import ContinuousBatchScheduler
except ImportError:  # pragma: no cover - run from inside benchmarks/
    from _reference_scheduler import ContinuousBatchScheduler

# Pods
# ----------------------------------------------------------------------
@dataclass
class PrefillPod:
    """One platform serving one prompt at a time.

    Pods do not own a queue: the cluster holds a single shared service
    queue and an idle pod pulls the next job in policy order."""

    pod_id: str
    platform: Platform
    #: Serving dtypes the cluster configured; prefill is charged at
    #: these, not at each request's defaults, so its cost agrees with
    #: the cluster's serving point.
    weight_dtype: DType | None = None
    kv_dtype: DType | None = None
    busy_until_s: float = 0.0
    busy_s: float = 0.0
    energy_j: float = 0.0
    #: Autoscaler lifecycle.  ``active`` pods take work; ``draining``
    #: pods finish their current prompt then deactivate;
    #: ``provisioning`` pods are spinning up (weights push) and take
    #: work once their ``_POD_READY`` event fires.  Without an
    #: autoscaler every pod stays active for the whole run.
    active: bool = True
    draining: bool = False
    provisioning: bool = False
    activated_s: float = 0.0
    #: Accumulated active wall-clock from *completed* active spans
    #: (the span still open at run end is added by the report builder).
    active_s: float = 0.0

    @property
    def engine(self) -> object:
        """The platform's underlying system (compatibility accessor)."""
        return self.platform.engine

    def serve(
        self, request: Request, now: float, *, context_tokens: int | None = None
    ) -> tuple[float, float]:
        """Run ``request``'s prefill; returns (start, end).

        Under the shared service queue the cluster only hands jobs to
        idle pods, so ``start == now``; ``max`` is kept for direct
        callers.  ``context_tokens`` overrides the prefilled context --
        a preemption resume recomputes prompt *plus* generated-so-far
        tokens, not just the prompt.
        """
        start = max(now, self.busy_until_s)
        if context_tokens is None:
            workload = request.workload(
                weight_dtype=self.weight_dtype, kv_dtype=self.kv_dtype
            )
        else:
            workload = Workload(
                request.model,
                batch_size=1,
                seq_len=context_tokens,
                decode_len=0,
                weight_dtype=self.weight_dtype or request.weight_dtype,
                kv_dtype=self.kv_dtype or request.kv_dtype,
            )
        duration, power = self.platform.prefill(workload)
        self.busy_until_s = start + duration
        self.busy_s += duration
        self.energy_j += duration * power
        return start, start + duration


@dataclass
class DecodePod:
    """One decode platform (RPU board, GPU group, ...) hosting one model."""

    pod_id: str
    model: ModelConfig
    platform: Platform
    scheduler: ContinuousBatchScheduler
    weight_dtype: DType
    kv_dtype: DType
    busy_s: float = 0.0
    energy_j: float = 0.0
    stepping: bool = False
    #: Decode tokens owed by requests routed here whose KV is still in
    #: flight; without it, near-simultaneous prefill completions would
    #: all herd onto one pod during the transfer window.
    in_transfer_tokens: int = 0
    #: Paged-KV preemptions this pod issued over the run.
    preemptions: int = 0
    #: Integral of KV-pool occupancy over stepping time (occupancy
    #: time-weighted by step latency; divide by ``busy_s`` for the mean).
    kv_occupancy_s: float = 0.0
    #: Autoscaler lifecycle (see :class:`PrefillPod`).  A draining
    #: decode pod takes no new routes and deactivates once its last
    #: sequence, transfer and pinned prefix reference are gone.
    active: bool = True
    draining: bool = False
    provisioning: bool = False
    activated_s: float = 0.0
    active_s: float = 0.0
    _step_cache: dict[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict, repr=False
    )

    @property
    def engine(self) -> object:
        """The platform's underlying system (compatibility accessor)."""
        return self.platform.engine

    @property
    def store(self) -> KvBlockStore:
        """The pod's KV block store (pool + prefix cache + swap tier)."""
        return self.scheduler.store

    def step_cost(self, batch_size: int, context_len: int) -> tuple[float, float]:
        """(latency, energy) of one decode step for the current batch."""
        if context_len > STEP_CONTEXT_BUCKET:
            context_len = context_len // STEP_CONTEXT_BUCKET * STEP_CONTEXT_BUCKET
        key = (batch_size, context_len)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        point = Workload(
            self.model,
            batch_size=batch_size,
            seq_len=context_len,
            decode_len=1,
            weight_dtype=self.weight_dtype,
            kv_dtype=self.kv_dtype,
        )
        step = self.platform.decode_step(point, check_capacity=False)
        cost = (step.latency_s, step.energy_j)
        self._step_cache[key] = cost
        return cost

    def outstanding_tokens(self) -> int:
        """Decode tokens still owed to admitted, queued and in-transfer
        requests (the load metric the router balances on)."""
        owed = sum(entry.remaining_tokens for entry in self.scheduler.active)
        owed += sum(
            queued.request.decode_len - queued.tokens_done
            for queued in self.scheduler.queue
        )
        return owed + self.in_transfer_tokens


# Per-request bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    """Lifecycle timestamps of one request through the fleet.

    A preempted request goes around the prefill/transfer/admit loop
    again, so the per-stage timestamps reflect its *last* pass; waiting
    time is accumulated across passes in ``queue_wait_s``.
    """

    request: Request
    rejected: bool = False
    #: Dropped at the door by admission control (tenant bucket empty
    #: under fleet pressure) -- distinct from ``rejected``, which means
    #: the request could never fit any pod.
    shed: bool = False
    prefill_pod: str = ""
    decode_pod: str = ""
    prefill_start_s: float = 0.0
    prefill_end_s: float = 0.0
    transfer_end_s: float = 0.0
    admitted_s: float = 0.0
    first_token_s: float | None = None
    completed_s: float | None = None
    #: Times this request was preempted off a decode pod (paged KV);
    #: each preemption re-pays prefill and the KV hand-off.
    num_preemptions: int = 0
    #: Counted in the cluster's in-flight tally of its prefix group
    #: (set at first service start, cleared at completion); while any
    #: member is in flight, PREFIX_AFFINE defers cache-missing
    #: siblings.
    group_inflight: bool = False
    #: Preemptions resolved by a host swap round trip instead of a
    #: recompute pass (a subset of ``num_preemptions``).
    num_swaps: int = 0
    #: Prefix tokens served from the decode pod's cache on the last
    #: prefill pass (those tokens skipped prefill and the hand-off).
    cached_prefix_tokens: int = 0
    #: Decode progress preserved across the last preemption (the
    #: resume recomputes prompt + this many tokens at prefill speed).
    resume_tokens: int = 0
    #: Total time spent waiting (prefill queue + decode admission
    #: queue), summed over every pass through the pipeline.
    queue_wait_s: float = 0.0

    @property
    def done(self) -> bool:
        return self.completed_s is not None

    @property
    def ttft_s(self) -> float:
        """Arrival to first generated token (includes all queueing)."""
        assert self.first_token_s is not None
        return self.first_token_s - self.request.arrival_s

    @property
    def tpot_s(self) -> float:
        """Steady decode pace after the first token."""
        assert self.completed_s is not None and self.first_token_s is not None
        remaining = self.request.decode_len - 1
        if remaining == 0:
            return 0.0
        return (self.completed_s - self.first_token_s) / remaining

    @property
    def end_to_end_s(self) -> float:
        assert self.completed_s is not None
        return self.completed_s - self.request.arrival_s

    @property
    def queueing_delay_s(self) -> float:
        """Time spent waiting (prefill queue + decode admission queue),
        accumulated across preemption passes -- service time (prefill,
        transfer, decode) is never counted as queueing."""
        return self.queue_wait_s

    @property
    def interactive(self) -> bool:
        return self.done and self.end_to_end_s <= INTERACTION_THRESHOLD_S


@dataclass
class PrefillJob:
    """One unit of queued prefill work (a fresh arrival or a preemption
    resume) waiting in the cluster's shared service queue."""

    record: RequestRecord
    enqueued_s: float
    #: Enqueue order -- the FIFO key and every policy's tie-break.
    seq: int
    #: Prefix tokens resident on some feasible pod at enqueue time
    #: (a peek, nothing pinned).  0 here plus a hit at service start is
    #: a *late-bound* hit: arrival-time checking would have missed.
    arrival_resident: int = 0
    #: Arrival-bound mode (``late_binding=False``): tokens already
    #: pinned at enqueue.  ``None`` means "bind at service start".
    acquired: int | None = None
    #: PREFIX_AFFINE: this sibling was held back at least once waiting
    #: for its group founder's prefix to land.
    deferred: bool = False
    #: Residency memo: peeked cached tokens, valid while the fleet's
    #: prefix epoch (registrations + reclaims) is unchanged.
    cached_epoch: int = -2
    cached_tokens: int = 0
    #: PREFIX_AFFINE: deferral deadline the pending wake event targets
    #: (-1 = no wake pushed yet).  Adaptive deferral can *extend* the
    #: deadline after the first wake fired, so a later wake is pushed
    #: whenever the deadline moves past this watermark.
    wake_s: float = -1.0


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
(_ARRIVAL, _PREFILL_DONE, _KV_ARRIVE, _STEP, _RESUME, _SWAP_BACK,
 _PREFILL_WAKE, _AUTOSCALE, _POD_READY) = range(9)


class ClusterSim:
    """Discrete-event simulation of a :class:`ClusterConfig`."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self._build_pods()

    def _build_pods(self) -> None:
        """Fresh pod state; called per run so a sim instance is reusable."""
        config = self.config
        self.prefill_pods = [
            PrefillPod(
                pod_id=f"prefill{i}",
                platform=as_platform(engine),
                weight_dtype=config.weight_dtype,
                kv_dtype=config.kv_dtype,
            )
            for i, engine in enumerate(config.prefill_engines)
        ]
        self.decode_pods = []
        self._recompute_cache: dict[tuple[str, int, float], float] = {}
        for i, spec in enumerate(config.decode_pods):
            self.decode_pods.append(self._make_decode_pod(f"decode{i}", spec))

    def _make_decode_pod(self, pod_id: str, spec: DecodePodSpec) -> DecodePod:
        """One decode pod per the config's serving point (also the
        autoscaler's factory when it grows the pool past the roster)."""
        config = self.config
        platform = as_platform(spec.engine)
        budget = config.kv_budget_bytes or platform.kv_budget_bytes(
            spec.model, config.weight_dtype
        )
        pod = DecodePod(
            pod_id=pod_id,
            model=spec.model,
            platform=platform,
            scheduler=ContinuousBatchScheduler(
                kv_budget_bytes=budget,
                max_batch=config.max_batch,
                policy=config.policy,
                kv_dtype=config.kv_dtype,
                reservation=config.reservation,
                block_tokens=config.block_tokens,
                chunk_tokens=config.chunk_tokens,
                store=KvBlockStore(
                    budget_bytes=budget,
                    prefix_caching=config.prefix_caching,
                    host_capacity_bytes=config.host_kv_bytes,
                ),
                # The cluster re-routes preempted requests
                # through a prefill pod (recompute-on-resume).
                requeue_preempted=False,
            ),
            weight_dtype=config.weight_dtype,
            kv_dtype=config.kv_dtype,
        )
        pod.scheduler.swap_decider = self._swap_decider(pod)
        return pod

    # -- swap cost model -----------------------------------------------
    def _swap_rate(self, pod: DecodePod) -> float:
        """Host-link bandwidth for ``pod``'s swap traffic."""
        if self.config.swap_bytes_per_s is not None:
            return self.config.swap_bytes_per_s
        return pod.platform.kv_ingest_bytes_per_s

    def _swap_decider(self, pod: DecodePod):
        """The per-victim swap-vs-recompute choice the scheduler calls
        at preemption time, per the configured :class:`SwapPolicy`."""
        policy = self.config.swap_policy
        if policy is SwapPolicy.NEVER:
            return None
        if policy is SwapPolicy.ALWAYS:
            return lambda entry: True

        def decide(entry) -> bool:
            context = entry.request.prompt_len + entry.tokens_done
            swap_s = 2.0 * entry.kv_reserved_bytes / self._swap_rate(pod)
            return swap_s < self._recompute_estimate(pod, entry.request.model,
                                                     context)

        return decide

    def _recompute_estimate(
        self, pod: DecodePod, model: ModelConfig, context_tokens: int
    ) -> float:
        """Service time of a recompute resume: re-prefill of the whole
        context on a prefill platform plus the KV hand-off (queueing
        excluded -- this is the steady-state cost model)."""
        handoff = self._kv_ingest_rate(pod)
        key = (model.name, context_tokens, handoff)
        cached = self._recompute_cache.get(key)
        if cached is None:
            _, cached = swap_recompute_costs(
                model,
                context_tokens,
                0.0,  # swap side unused here
                prefill_platform=self.prefill_pods[0].platform,
                kv_dtype=self.config.kv_dtype,
                handoff_bytes_per_s=handoff,
                host_bytes_per_s=1.0,
                weight_dtype=self.config.weight_dtype,
            )
            self._recompute_cache[key] = cached
        return cached

    # -- event plumbing ------------------------------------------------
    def _push(self, when: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, self._seq, kind, payload))

    def _kv_ingest_rate(self, pod: DecodePod) -> float:
        """Hand-off bandwidth into ``pod``: the cluster-wide override,
        or the decode platform's own ingest rate."""
        if self.config.kv_transfer_bytes_per_s is not None:
            return self.config.kv_transfer_bytes_per_s
        return pod.platform.kv_ingest_bytes_per_s

    def _route_decode(self, request: Request) -> DecodePod | None:
        """Least-loaded decode pod hosting the request's model, or None
        if no pod could ever hold its KV.  Draining/parked pods take no
        new routes; a fleet drained mid-flight (every host inactive)
        falls back to any capable pod so in-flight work still lands."""
        hosts = [
            pod
            for pod in self.decode_pods
            if pod.active
            and not pod.draining
            and pod.model.name == request.model.name
            and pod.scheduler.fits_ever(request)
        ]
        if not hosts:
            hosts = [
                pod
                for pod in self.decode_pods
                if pod.model.name == request.model.name
                and pod.scheduler.fits_ever(request)
            ]
        if not hosts:
            return None
        return min(hosts, key=lambda pod: (pod.outstanding_tokens(), pod.pod_id))

    def _affinity_pod(self, request: Request) -> tuple[DecodePod | None, int]:
        """Feasible decode pod holding the most resident tokens of the
        request's prefix, and that token count (ties broken toward
        lower load); (None, 0) when no pod has any of it cached."""
        best: DecodePod | None = None
        best_key: tuple[int, int, str] = (0, 0, "")
        for pod in self.decode_pods:
            if (
                not pod.active
                or pod.draining
                or pod.model.name != request.model.name
                or not pod.scheduler.fits_ever(request)
            ):
                continue
            cached = pod.store.peek_prefix(
                request.model.name, request.prefix_id, request.prefix_len,
                self.config.block_tokens,
            )
            if cached <= 0:
                continue
            key = (cached, -pod.outstanding_tokens(), pod.pod_id)
            if best is None or key > best_key:
                best, best_key = pod, key
        return best, best_key[0]

    def _acquire_prefix(self, record: RequestRecord) -> int:
        """Cache-affinity path: pin the resident prefix on the best pod
        (blocks are ref-counted, so they survive until admission) and
        route the request there.  Returns the cached token count."""
        request = record.request
        if (
            not self.config.prefix_caching
            or request.prefix_id is None
            or request.prefix_len <= 0
        ):
            return 0
        pod, _ = self._affinity_pod(request)
        if pod is None:
            # Nothing resident anywhere (e.g. the group founder's
            # prefill is still in flight).  Count the miss where the
            # request will land so the reported hit rate is honest.
            target = self._route_decode(request)
            if target is not None:
                target.store.record_prefix_miss(request.prefix_len)
            return 0
        cached = pod.store.acquire_prefix(
            request.request_id, request.model.name, request.prefix_id,
            request.prefix_len, self.config.block_tokens,
        )
        if cached:
            self._pinned[request.request_id] = pod
        return cached

    # -- the shared prefill service queue ------------------------------
    def _resident_prefix_tokens(self, request: Request) -> int:
        """Most resident tokens of the request's prefix on any feasible
        pod right now (a peek -- nothing is pinned)."""
        _, cached = self._affinity_pod(request)
        return cached

    def _wants_prefix(self, request: Request) -> bool:
        return (
            self.config.prefix_caching
            and request.prefix_id is not None
            and request.prefix_len > 0
        )

    def _note_queue_depth(self, now: float) -> None:
        """Accumulate the depth integral up to ``now`` (call before any
        enqueue/dequeue mutation)."""
        self._depth_integral += len(self._queue) * (now - self._depth_t)
        self._depth_t = now

    def _enqueue_prefill(self, now: float, record: RequestRecord) -> None:
        """Queue a prefill job (fresh arrival or preemption resume).

        With late binding (the default) the prefix cache is only
        *peeked* here, to remember what arrival-time checking would
        have seen; pinning waits until the job starts service.  With
        ``late_binding=False`` the cache is acquired now, reproducing
        the PR 4 arrival-time behavior."""
        job = PrefillJob(record=record, enqueued_s=now, seq=self._job_seq)
        self._job_seq += 1
        if self._wants_prefix(record.request):
            if self.config.late_binding:
                job.arrival_resident = self._resident_prefix_tokens(
                    record.request
                )
            else:
                job.acquired = self._acquire_prefix(record)
        self._note_queue_depth(now)
        self._queue.append(job)
        if len(self._queue) > self._queue_peak:
            self._queue_peak = len(self._queue)
        self._jobs_enqueued += 1
        # A fresh job may already be fully cached: invalidate the
        # bypass watermark so the next all-pods-busy drain rescans.
        self._bypass_epoch = -1

    def _cached_now(self, job: PrefillJob, epoch: int) -> int:
        """Prefix tokens this job would be served from the cache if it
        started service now.  Peeks are memoized against ``epoch``
        (:meth:`_prefix_epoch`): residency can only change when a block
        is registered or reclaimed, so a queue scan per event does not
        re-walk every trie."""
        if job.acquired is not None:
            return job.acquired
        if not self._wants_prefix(job.record.request):
            return 0
        if job.cached_epoch != epoch:
            job.cached_epoch = epoch
            job.cached_tokens = self._resident_prefix_tokens(
                job.record.request
            )
        return job.cached_tokens

    def _deferred(self, job: PrefillJob, now: float, cached: int) -> bool:
        """PREFIX_AFFINE: hold a fan-out sibling back (briefly) while
        another member of its group is in flight, so it drains as a
        late-bound hit instead of re-prefilling the shared context.
        A group with no member between service start and completion
        has nobody about to (re-)publish the prefix, so nothing is
        deferred on its behalf -- e.g. after the blocks were evicted."""
        if self.config.prefill_policy is not PrefillPolicy.PREFIX_AFFINE:
            return False
        if self.config.affine_defer_s == 0.0:
            return False  # a zero window disables deferral outright
        request = job.record.request
        if not self._wants_prefix(request) or not self.config.late_binding:
            return False
        if cached > 0:
            return False  # the prefix landed: serve it as a hit
        key = (request.model.name, request.prefix_id)
        inflight = self._group_inflight.get(key, 0)
        if job.record.group_inflight:
            # A preemption resume counts in its own group's tally;
            # don't wait for yourself to publish the prefix.
            inflight -= 1
        if inflight <= 0:
            return False  # nobody in flight -- this job founds the group
        deadline = job.enqueued_s + self.config.affine_defer_s
        if self.config.affine_adaptive:
            # Track the in-flight founder's estimated prefix-landing
            # time instead of the fixed guess (which stays the floor).
            eta = self._group_eta.get(key)
            if eta is not None and eta > deadline:
                deadline = eta
        if now >= deadline:
            return False  # waited long enough: prefill it after all
        if not job.deferred:
            job.deferred = True
            self._founder_deferrals += 1
        if deadline > job.wake_s:
            # Wake the queue at the deadline; other events (prefill
            # completions, decode steps registering the prefix) drain
            # it earlier.  Adaptive deferral can *extend* the deadline
            # after the first wake was pushed (the founder's ETA is
            # refined at prefill completion), so push again whenever it
            # moves -- stale earlier wakes are skipped by the loop.
            job.wake_s = deadline
            self._push(deadline, _PREFILL_WAKE, None)
        return True

    def _policy_key(self, job: PrefillJob, now: float, cached: int) -> tuple:
        policy = self.config.prefill_policy
        if policy is PrefillPolicy.SJF:
            record = job.record
            remaining = (
                record.request.prompt_len + record.resume_tokens - cached
            )
            return (remaining, job.seq)
        if policy is PrefillPolicy.PRIORITY:
            aged = (
                job.record.request.priority
                + job.record.num_preemptions
                + int((now - job.enqueued_s) / self.config.prefill_aging_s)
            )
            return (-aged, job.seq)
        # FIFO; PREFIX_AFFINE drains in arrival order too (deferral is
        # an eligibility filter, not an ordering).
        return (0, job.seq)

    def _next_job(
        self, now: float, have_idle: bool, epoch: int
    ) -> PrefillJob | None:
        """The job to pull now, in policy order.  Jobs whose whole
        context is resident in a prefix cache sort first regardless of
        policy -- they need no pod, so they contend with nobody -- and
        are the only eligible jobs when every pod is busy.

        Deferral (PREFIX_AFFINE) is tested lazily, on the would-be
        winner only: a sibling that loses the policy order anyway was
        not displaced by deferral, so it must not enter the deferral
        counters (or cost a wake event)."""
        passed_over: set[int] = set()
        while True:
            best: PrefillJob | None = None
            best_key: tuple | None = None
            best_cached = 0
            for job in self._queue:
                if job.seq in passed_over:
                    continue
                cached = self._cached_now(job, epoch)
                record = job.record
                full_context = (
                    record.request.prompt_len + record.resume_tokens
                )
                fully_cached = cached >= full_context
                if not fully_cached and not have_idle:
                    continue
                key = (0 if fully_cached else 1,
                       *self._policy_key(job, now, cached))
                if best_key is None or key < best_key:
                    best, best_key, best_cached = job, key, cached
            if best is None:
                return None
            if best_key[0] == 1 and self._deferred(best, now, best_cached):
                passed_over.add(best.seq)
                continue
            return best

    def _prefix_epoch(self) -> int:
        """Monotone counter of fleet-wide prefix-residency changes
        (block publications + reclaims).  Peeked residency is constant
        while it holds still, so queue scans memoize against it
        instead of re-walking every trie at every event -- and the
        all-pods-busy bypass scan is skipped entirely when it has not
        advanced."""
        return sum(
            p.store.stats.registered_blocks + p.store.stats.reclaimed_blocks
            for p in self.decode_pods
        )

    def _drain_prefill_queue(self, now: float) -> None:
        """Pull queued jobs into service (called after every event).
        Each loop iteration forwards one fully cached job for free or
        books one idle pod; fully cached jobs drain even while every
        pod is busy, since they need no pod at all."""
        # Invariant across the whole drain: pulling jobs pins blocks
        # and books pods, but never registers or reclaims trie blocks.
        epoch = self._prefix_epoch() if self._bypass_enabled else -1
        while self._queue:
            idle = [
                p for p in self.prefill_pods
                if p.busy_until_s <= now and p.active and not p.draining
            ]
            if not idle:
                if not self._bypass_enabled:
                    return
                if epoch == self._bypass_epoch:
                    return  # nothing newly resident since the last scan
            job = self._next_job(now, have_idle=bool(idle), epoch=epoch)
            if job is None:
                if not idle:
                    self._bypass_epoch = epoch
                return
            self._note_queue_depth(now)
            self._queue.remove(job)
            self._start_prefill(now, job, idle)

    def _start_prefill(
        self, now: float, job: PrefillJob, idle: list[PrefillPod]
    ) -> None:
        """Service start: (re-)bind the prefix cache, then prefill the
        uncached remainder on an idle pod -- or skip the pods entirely
        when the whole context is resident."""
        record = job.record
        request = record.request
        if job.acquired is not None:
            cached = job.acquired  # bound at arrival (PR 4 semantics)
        else:
            cached = self._acquire_prefix(record)
            if cached > 0 and job.arrival_resident == 0:
                # Recovered by late binding: the founder's prefix landed
                # while this job queued.
                stats = self._pinned[request.request_id].store.stats
                stats.late_hits += 1
                stats.late_hit_tokens += cached
        if self._wants_prefix(request) and not record.group_inflight:
            record.group_inflight = True
            key = (request.model.name, request.prefix_id)
            self._group_inflight[key] = self._group_inflight.get(key, 0) + 1
        if job.deferred:
            # Book only the time inside the deferral window (the last
            # deadline the job's wake targeted -- fixed or adaptive):
            # deferral cannot delay a job past its deadline, so anything
            # beyond is ordinary pod scarcity, not founder wait.
            self._founder_wait_s += min(
                now - job.enqueued_s, job.wake_s - job.enqueued_s
            )
        record.cached_prefix_tokens = cached
        record.queue_wait_s += now - job.enqueued_s
        full_context = request.prompt_len + record.resume_tokens
        if cached >= full_context:
            # Whole context served from the prefix cache: no prefill
            # work, straight to the (empty) hand-off.
            record.prefill_pod = ""
            record.prefill_start_s = record.prefill_end_s = now
            self._push(now, _PREFILL_DONE, record)
            return
        context = None
        if record.resume_tokens or cached:
            context = full_context - cached
        pod = min(idle, key=lambda p: (p.busy_until_s, p.pod_id))
        start, end = pod.serve(request, now, context_tokens=context)
        record.prefill_pod = pod.pod_id
        record.prefill_start_s = start
        record.prefill_end_s = end
        if self._affine_eta_enabled and record.group_inflight:
            # First cut of the group's prefix-landing ETA: the prefill
            # finish time (the hand-off + ingest margin is added when
            # the prefill actually completes and the route is known).
            self._group_eta[(request.model.name, request.prefix_id)] = end
        self._push(end, _PREFILL_DONE, record)

    # -- event handlers ------------------------------------------------
    def _on_arrival(self, now: float, record: RequestRecord) -> None:
        if self._route_decode(record.request) is None:
            record.rejected = True
            self._unresolved -= 1
            return
        admission = self.config.admission
        if admission.enabled and self._fleet_pressure() >= admission.pressure_floor:
            # The fleet is saturated: the arrival must pay its decode
            # tokens from its tenant's bucket or be shed at the door.
            bucket = self._buckets.get(
                record.request.tenant, self._default_bucket
            )
            if bucket is not None and not bucket.take(
                now, record.request.decode_len
            ):
                record.shed = True
                self._unresolved -= 1
                return
        self._enqueue_prefill(now, record)

    def _fleet_pressure(self) -> float:
        """The saturation signal admission control gates on: the worse
        of normalized prefill-queue depth and mean decode KV occupancy
        (the two leading indicators of a goodput collapse)."""
        admission = self.config.admission
        active_prefill = sum(
            1 for p in self.prefill_pods if p.active and not p.draining
        )
        queue_term = len(self._queue) / (
            max(1, active_prefill) * admission.queue_depth_scale
        )
        routable = [
            p for p in self.decode_pods if p.active and not p.draining
        ]
        if routable:
            kv_term = sum(p.scheduler.kv_occupancy for p in routable) / len(
                routable
            )
        else:
            kv_term = 1.0
        return max(queue_term, kv_term)

    def _on_prefill_done(self, now: float, record: RequestRecord) -> None:
        request = record.request
        pod = self._pinned.pop(request.request_id, None)
        if pod is None:
            pod = self._route_decode(request)
        assert pod is not None  # feasibility was checked at arrival
        context_kv = kv_cache_bytes(
            request.model,
            request.prompt_len + record.resume_tokens,
            1,
            self.config.kv_dtype,
        )
        if record.cached_prefix_tokens:
            # Cached prefix blocks are already on the pod; only the
            # freshly prefilled KV crosses the hand-off link.
            context_kv -= kv_cache_bytes(
                request.model, record.cached_prefix_tokens, 1,
                self.config.kv_dtype,
            )
        transfer_s = context_kv / self._kv_ingest_rate(pod)
        record.decode_pod = pod.pod_id
        pod.in_transfer_tokens += request.decode_len - record.resume_tokens
        if self._affine_eta_enabled and record.group_inflight:
            # Refine the group's prefix-landing ETA: the prefix only
            # registers after the hand-off *and* the chunked ingest on
            # the decode pod, so add both (ingest at the pod's current
            # step pace, with 50% headroom for batch growth).
            context = request.prompt_len + record.resume_tokens
            chunks = -(-context // self.config.chunk_tokens)
            step_s, _ = pod.step_cost(
                max(1, pod.scheduler.batch_size), max(context, 1)
            )
            self._group_eta[(request.model.name, request.prefix_id)] = (
                now + transfer_s + 1.5 * chunks * step_s
            )
        self._push(now + transfer_s, _KV_ARRIVE, (pod, record))

    def _on_kv_arrive(self, now: float, pod: DecodePod, record: RequestRecord) -> None:
        record.transfer_end_s = now
        pod.in_transfer_tokens -= record.request.decode_len - record.resume_tokens
        # Under paged KV the transferred context still streams into the
        # block pool in chunk_tokens slices (chunked prefill); FULL
        # reserves the whole context up front and starts immediately.
        # Preemption count and decode progress carry over so aging
        # keeps protecting previously evicted requests.
        pod.scheduler.enqueue(
            record.request,
            now,
            needs_prefill=pod.scheduler.reservation is Reservation.PAGED,
            preemptions=record.num_preemptions,
            tokens_done=record.resume_tokens,
        )
        if not pod.stepping:
            pod.stepping = True
            self._push(now, _STEP, pod)

    def _on_step(self, now: float, pod: DecodePod) -> None:
        for entry in pod.scheduler.admit(now):
            record = self._records_by_id[entry.request.request_id]
            record.admitted_s = now
            record.queue_wait_s += now - record.transfer_end_s
        if pod.scheduler.batch_size == 0:
            pod.stepping = False
            return
        batch = pod.scheduler.batch_size
        context = pod.scheduler.mean_context_len()
        step_s, step_j = pod.step_cost(batch, context)
        pod.kv_occupancy_s += pod.scheduler.kv_occupancy * step_s
        end = now + step_s
        newly_running = [e for e in pod.scheduler.active if e.first_token_s is None]
        finished = pod.scheduler.advance(end)
        for entry in newly_running:
            if entry.first_token_s is None:
                continue  # still chunk-prefilling, or preempted mid-step
            record = self._records_by_id[entry.request.request_id]
            if record.first_token_s is None:
                record.first_token_s = entry.first_token_s
        for entry in finished:
            record = self._records_by_id[entry.request.request_id]
            record.completed_s = end
            self._unresolved -= 1
            if record.group_inflight:
                # The group's in-flight tally drops: once it reaches
                # zero nobody is left to (re-)publish the prefix, so
                # PREFIX_AFFINE stops deferring siblings for it.
                record.group_inflight = False
                key = (record.request.model.name, record.request.prefix_id)
                self._group_inflight[key] -= 1
                if not self._group_inflight[key]:
                    del self._group_inflight[key]
                    self._group_eta.pop(key, None)
        for queued in pod.scheduler.take_preempted():
            pod.preemptions += 1
            record = self._records_by_id[queued.request.request_id]
            record.num_preemptions = queued.preemptions
            record.resume_tokens = queued.tokens_done
            if queued.swapped:
                # Swap-to-host: the victim's private bytes round-trip
                # the host link and re-enter this pod's queue with KV
                # intact -- no prefill pod, no hand-off re-transfer.
                record.num_swaps += 1
                round_trip_s = 2.0 * queued.swap_bytes / self._swap_rate(pod)
                self._push(end + round_trip_s, _SWAP_BACK, (pod, record))
            else:
                # Recompute-on-resume: back through a prefill pod
                # (which recomputes prompt + generated-so-far) and the
                # KV hand-off, then re-admission wherever load is
                # lowest.  Dispatched via the heap so the prefill pod
                # is not booked before events that precede the step's
                # end.
                self._push(end, _RESUME, record)
        pod.busy_s += step_s
        pod.energy_j += step_j
        self._push(end, _STEP, pod)

    def _on_swap_back(self, now: float, pod: DecodePod, record: RequestRecord) -> None:
        """A swapped sequence's bytes are back on the pod's doorstep:
        free the host tier and queue for re-admission with its KV,
        decode progress and (still-pinned) prefix refs intact."""
        request = record.request
        pod.store.swap_in(request.request_id)
        record.transfer_end_s = now
        pod.scheduler.enqueue(
            request,
            now,
            needs_prefill=False,
            preemptions=record.num_preemptions,
            tokens_done=record.resume_tokens,
        )
        if not pod.stepping:
            pod.stepping = True
            self._push(now, _STEP, pod)

    # -- autoscaler control loop ---------------------------------------
    def _deactivate(self, pod: PrefillPod | DecodePod, now: float) -> None:
        """A draining pod's last work is gone: park it (it keeps its
        weights and KV store, so reactivation is a warm start)."""
        pod.draining = False
        pod.active = False
        pod.active_s += now - pod.activated_s

    def _finish_drains(self, now: float) -> None:
        """Park draining pods whose work has run out."""
        for pod in self.prefill_pods:
            if pod.draining and pod.busy_until_s <= now:
                self._deactivate(pod, now)
        pinned = {id(p) for p in self._pinned.values()}
        for pod in self.decode_pods:
            if (
                pod.draining
                and not pod.scheduler.active
                and not pod.scheduler.queue
                and pod.in_transfer_tokens == 0
                and id(pod) not in pinned
            ):
                self._deactivate(pod, now)

    def _pool_sizes(self) -> tuple[int, int]:
        """(prefill, decode) pods that are serving or spinning up --
        the counts scaling decisions are made against (draining pods
        are on their way out and don't count)."""
        prefill = sum(
            1 for p in self.prefill_pods
            if (p.active or p.provisioning) and not p.draining
        )
        decode = sum(
            1 for p in self.decode_pods
            if (p.active or p.provisioning) and not p.draining
        )
        return prefill, decode

    def _autoscale(self, now: float) -> None:
        """One control-period tick: finish drains, read per-pool
        pressure, and take at most one action per pool.  Under a
        ``max_total_pods`` hardware budget a hot pool can only grow by
        *reallocation* -- draining one pod from the other pool,
        provided that pool is cold and above its own minimum."""
        cfg = self.config.autoscaler
        assert cfg is not None
        self._finish_drains(now)
        n_prefill, n_decode = self._pool_sizes()
        prefill_pressure = len(self._queue) / (
            max(1, n_prefill) * cfg.queue_depth_scale
        )
        routable = [
            p for p in self.decode_pods if p.active and not p.draining
        ]
        if routable:
            decode_pressure = sum(
                p.scheduler.kv_occupancy for p in routable
            ) / len(routable)
        else:
            decode_pressure = 1.0

        def grow(pool: str, pressure: float, size: int, cap: int,
                 other: str, other_pressure: float, other_size: int,
                 other_min: int) -> None:
            if size >= cap:
                return
            if (
                cfg.max_total_pods is not None
                and n_prefill + n_decode >= cfg.max_total_pods
            ):
                # At the hardware budget: reallocate from the other
                # pool only if it is cold and can spare a pod.
                if (
                    other_pressure <= cfg.scale_down_pressure
                    and other_size > other_min
                    and self._scale_down(now, other, other_pressure)
                ):
                    self._scale_up(now, pool, pressure)
                return
            self._scale_up(now, pool, pressure)

        if prefill_pressure >= cfg.scale_up_pressure:
            grow("prefill", prefill_pressure, n_prefill,
                 cfg.max_prefill_pods, "decode", decode_pressure,
                 n_decode, cfg.min_decode_pods)
        elif (
            prefill_pressure <= cfg.scale_down_pressure
            and n_prefill > cfg.min_prefill_pods
        ):
            self._scale_down(now, "prefill", prefill_pressure)
        if decode_pressure >= cfg.scale_up_pressure:
            n_prefill, n_decode = self._pool_sizes()
            grow("decode", decode_pressure, n_decode,
                 cfg.max_decode_pods, "prefill", prefill_pressure,
                 n_prefill, cfg.min_prefill_pods)
        elif (
            decode_pressure <= cfg.scale_down_pressure
            and n_decode > cfg.min_decode_pods
        ):
            self._scale_down(now, "decode", decode_pressure)

    def _scale_up(self, now: float, pool: str, pressure: float) -> None:
        """Provision one pod into ``pool``: reactivate a parked pod
        when one exists (warm start -- it kept its weights), else clone
        the pool's first roster entry.  Either way the pod serves after
        ``provision_s`` (the ``_POD_READY`` event)."""
        cfg = self.config.autoscaler
        assert cfg is not None
        pods = self.prefill_pods if pool == "prefill" else self.decode_pods
        pod = next(
            (p for p in pods if not p.active and not p.provisioning), None
        )
        if pod is None:
            if pool == "prefill":
                pod = PrefillPod(
                    pod_id=f"prefill{len(self.prefill_pods)}",
                    platform=self.prefill_pods[0].platform,
                    weight_dtype=self.config.weight_dtype,
                    kv_dtype=self.config.kv_dtype,
                    active=False,
                )
                self.prefill_pods.append(pod)
            else:
                pod = self._make_decode_pod(
                    f"decode{len(self.decode_pods)}",
                    self.config.decode_pods[0],
                )
                pod.active = False
                self.decode_pods.append(pod)
        pod.provisioning = True
        self._push(now + cfg.provision_s, _POD_READY, pod)
        self._scaling_events.append(
            ScalingEvent(now, pool, "up", pod.pod_id, pressure)
        )

    def _scale_down(self, now: float, pool: str, pressure: float) -> bool:
        """Start draining one pod of ``pool`` (the idlest candidate;
        later-provisioned pods first on ties).  Returns False when no
        active pod is left to drain."""
        if pool == "prefill":
            candidates = [
                (p.busy_until_s > now, -i, p)
                for i, p in enumerate(self.prefill_pods)
                if p.active and not p.draining and not p.provisioning
            ]
        else:
            candidates = [
                (p.outstanding_tokens(), -i, p)
                for i, p in enumerate(self.decode_pods)
                if p.active and not p.draining and not p.provisioning
            ]
        if not candidates:
            return False
        _, _, pod = min(candidates, key=lambda c: c[:2])
        pod.draining = True
        self._scaling_events.append(
            ScalingEvent(now, pool, "down", pod.pod_id, pressure)
        )
        self._finish_drains(now)  # an idle victim parks immediately
        return True

    # -- run -----------------------------------------------------------
    def run(self, requests: list[Request]) -> ClusterReport:
        """Simulate until every submitted request completes (or is
        rejected) and all pods drain."""
        self._build_pods()
        self._events: list[tuple[float, int, int, object]] = []
        self._seq = 0
        #: Requests holding pinned prefix blocks on a decode pod (cache
        #: affinity routes them there at hand-off time).
        self._pinned: dict[int, DecodePod] = {}
        #: The shared prefill service queue and its stats.
        self._queue: list[PrefillJob] = []
        self._job_seq = 0
        self._jobs_enqueued = 0
        self._queue_peak = 0
        self._depth_integral = 0.0
        self._depth_t = 0.0
        #: Members per prefix group between service start and
        #: completion (PREFIX_AFFINE defers cache-missing siblings only
        #: while this is non-zero).
        self._group_inflight: dict[tuple[str, int], int] = {}
        self._founder_deferrals = 0
        self._founder_wait_s = 0.0
        #: All-pods-busy bypass scan gating (fully cached jobs).  Also
        #: on in arrival-bound mode: PR 4 forwarded a fully cached
        #: request at arrival without waiting for a pod, and the
        #: ablation baseline must keep that semantics (its scans are
        #: O(1) per job anyway -- the pinned count is precomputed).
        self._bypass_enabled = self.config.prefix_caching
        self._bypass_epoch = -1
        #: PREFIX_AFFINE adaptive deferral: per-group estimated
        #: prefix-landing time, published/refined while a founder is in
        #: flight and dropped when its group's in-flight tally empties.
        self._affine_eta_enabled = (
            self.config.prefill_policy is PrefillPolicy.PREFIX_AFFINE
            and self.config.affine_adaptive
        )
        self._group_eta: dict[tuple[str, int], float] = {}
        #: Admission buckets (one per tenant; untagged / unrostered
        #: traffic shares a weight-1.0 default bucket).
        self._buckets = {}
        self._default_bucket = None
        if self.config.admission.enabled:
            self._buckets = {
                t.name: self.config.admission.bucket(t.weight)
                for t in self.config.tenants
            }
            self._default_bucket = self._buckets.get(
                ""
            ) or self.config.admission.bucket(1.0)
        self._scaling_events: list[ScalingEvent] = []
        records = [RequestRecord(request=request) for request in requests]
        self._records_by_id = {r.request.request_id: r for r in records}
        if len(self._records_by_id) != len(records):
            raise ValueError("request_ids must be unique within one run")
        #: Requests not yet completed, rejected or shed -- the
        #: autoscaler's tick stops re-arming when this hits zero so the
        #: control loop cannot outlive the workload.
        self._unresolved = len(records)
        for record in records:
            self._push(record.request.arrival_s, _ARRIVAL, record)
        if self.config.autoscaler is not None and records:
            self._push(
                self.config.autoscaler.control_period_s, _AUTOSCALE, None
            )

        last_time = 0.0
        while self._events:
            now, _, kind, payload = heapq.heappop(self._events)
            if kind == _PREFILL_WAKE and not self._queue:
                # Stale deadline: the deferred job was served early
                # (its founder's prefix landed).  Skip before touching
                # the clock, or an idle tail would inflate duration_s
                # and every per-duration metric.
                continue
            if kind in (_AUTOSCALE, _POD_READY) and self._unresolved <= 0:
                # The workload is resolved: drop control-loop events
                # before they touch the clock (and stop re-arming), so
                # the autoscaler cannot stretch duration_s past the
                # last real completion.
                continue
            last_time = max(last_time, now)
            if kind == _AUTOSCALE:
                self._autoscale(now)
                self._push(
                    now + self.config.autoscaler.control_period_s,
                    _AUTOSCALE,
                    None,
                )
                self._drain_prefill_queue(now)
                continue
            if kind == _POD_READY:
                pod = payload
                if pod.provisioning:
                    pod.provisioning = False
                    pod.active = True
                    pod.activated_s = now
                self._drain_prefill_queue(now)
                continue
            if kind == _ARRIVAL:
                self._on_arrival(now, payload)
            elif kind == _PREFILL_DONE:
                self._on_prefill_done(now, payload)
            elif kind == _KV_ARRIVE:
                pod, record = payload
                self._on_kv_arrive(now, pod, record)
            elif kind == _RESUME:
                # A recompute resume re-enters the shared queue like a
                # fresh arrival; at service start it consults the
                # prefix cache the same way (still-resident prefix
                # blocks need neither re-prefill nor a re-transfer).
                self._enqueue_prefill(now, payload)
            elif kind == _SWAP_BACK:
                pod, record = payload
                self._on_swap_back(now, pod, record)
            elif kind == _STEP:
                self._on_step(now, payload)
            # _PREFILL_WAKE carries no payload: it only advances the
            # clock to a deferral deadline so the drain below runs.
            self._drain_prefill_queue(now)

        assert not self._queue, "prefill service queue did not drain"
        self._note_queue_depth(last_time)
        queue_stats = PrefillQueueStats(
            jobs=self._jobs_enqueued,
            peak_depth=self._queue_peak,
            mean_depth=(
                self._depth_integral / last_time if last_time > 0.0 else 0.0
            ),
            founder_deferrals=self._founder_deferrals,
            founder_wait_s=self._founder_wait_s,
        )
        def _active_s(pod: PrefillPod | DecodePod) -> float:
            # Close the span still open at run end (static fleets stay
            # active throughout, so this is the whole run).
            open_span = last_time - pod.activated_s if pod.active else 0.0
            return pod.active_s + open_span

        def _cost_usd(pod: PrefillPod | DecodePod) -> float:
            rate = self.config.cost_model.rate(pod.platform.name)
            return rate * _active_s(pod) / 3600.0

        pod_stats = tuple(
            [
                PodStats(
                    p.pod_id, "prefill", p.busy_s, p.energy_j,
                    platform=p.platform.name,
                    active_s=_active_s(p),
                    cost_usd=_cost_usd(p),
                )
                for p in self.prefill_pods
            ]
            + [
                PodStats(
                    p.pod_id,
                    "decode",
                    p.busy_s,
                    p.energy_j,
                    preemptions=p.preemptions,
                    kv_occupancy=(
                        p.kv_occupancy_s / p.busy_s if p.busy_s else 0.0
                    ),
                    platform=p.platform.name,
                    prefix_lookup_tokens=p.store.stats.lookup_tokens,
                    prefix_hit_tokens=p.store.stats.hit_tokens,
                    late_hits=p.store.stats.late_hits,
                    late_hit_tokens=p.store.stats.late_hit_tokens,
                    cow_copies=p.store.stats.cow_copies,
                    swap_outs=p.store.stats.swap_outs,
                    swap_ins=p.store.stats.swap_ins,
                    swap_out_bytes=p.store.stats.swap_out_bytes,
                    swap_in_bytes=p.store.stats.swap_in_bytes,
                    active_s=_active_s(p),
                    cost_usd=_cost_usd(p),
                )
                for p in self.decode_pods
            ]
        )
        return ClusterReport(
            completed=tuple(r for r in records if r.done),
            rejected=tuple(r for r in records if r.rejected),
            duration_s=last_time,
            pod_stats=pod_stats,
            last_arrival_s=max(
                (r.request.arrival_s for r in records), default=0.0
            ),
            slo_s=self.config.slo_s,
            prefill_queue=queue_stats,
            shed=tuple(r for r in records if r.shed),
            tenants=self.config.tenants,
            scaling_events=tuple(self._scaling_events),
        )


def simulate(config: ClusterConfig, requests: list[Request]) -> ClusterReport:
    """One-shot convenience wrapper around :class:`ClusterSim`."""
    return ClusterSim(config).run(requests)
