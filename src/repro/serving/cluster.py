"""Event-driven fleet simulator: many queries, many pods, one clock.

:mod:`repro.serving.disaggregated` models *one* query end-to-end; this
module scales that pipeline to datacenter traffic (the paper's Section I
deployment: disaggregated prefill/decode at fleet scale, following
Splitwise/Dynamo).  A cluster is

- **N prefill pods** pulling from one **shared service queue**.
  Arrivals (and preemption resumes) enqueue a prefill *job*; whenever a
  pod is idle it pulls the next job in :class:`PrefillPolicy` order
  (FIFO, shortest-prompt-first, aged priority, or prefix-affine
  deferral).  Prefill is compute-bound, so each pod still serves one
  prompt at a time -- batching prompts buys little;
- **M decode pods** -- each hosting one model's weights and running
  continuous batching under a KV-capacity budget
  (:mod:`repro.serving.scheduler`).  The default reservation policy is
  paged (block-granular KV, admission on the prompt footprint); a pod
  that runs its block pool dry preempts the lowest-priority request,
  which re-pays prefill on a prefill pod and the KV hand-off before
  re-admission (recompute-on-resume);
- a **KV hand-off** between them at the decode platform's ingest
  bandwidth (the Ring Station's 100 GbE by default; ``float("inf")``
  models colocated serving).

Each decode pod's block pool is a :class:`repro.serving.kvstore.KvBlockStore`
-- a two-tier cache hierarchy.  With ``prefix_caching`` enabled,
requests sharing a prompt prefix (``Request.prefix_id``; agentic
fan-out, shared system prompts) reuse the pod already holding the
prefix: resident ref-counted blocks are pinned and those tokens skip
the prefill, the hand-off transfer and the block allocation.

**Prefix hits are late-bound.**  The cache is consulted when a job
*starts service*, not when it arrives: the lifecycle is arrival ->
queue -> (re-)check cache at service start -> prefill the uncached
remainder -> hand-off -> chunked ingest on the decode pod -> prefix
registration -> decode.  A fan-out sibling that arrives while its group
founder's prefill is still queued therefore *recovers* the hit once the
founder lands (a "late-bound hit", counted separately in the stats) --
exactly the saturation regime where arrival-time checking misses most.
A job whose whole context is resident at service start skips the
prefill pods entirely and drains straight into the (empty) hand-off.
``late_binding=False`` restores the PR 4 arrival-time binding as an
ablation baseline.

With a ``swap_policy`` other than ``NEVER``, preemption can swap a
victim's private KV to the host tier over the Ring Station host link
instead of recomputing it on resume -- ``SwapPolicy.AUTO`` picks per
victim by the transfer-bytes-vs-re-prefill cost model.  Caching and
swapping default off, in which case results are bit-identical to the
pre-hierarchy simulator (and the FIFO service queue reproduces the old
per-arrival greedy pod booking exactly: serving jobs in arrival order
at the earliest pod availability is the same schedule).

Every pod consumes the hardware-agnostic
:class:`repro.platform.Platform` interface, so *any* platform can fill
*any* role: the paper's GPU-prefill/RPU-decode deployment, an all-GPU
baseline, an inverted RPU-prefill fleet, or a mixed decode pool of
RPU/H100/H200 pods -- fleet topology is configuration, not code.  Raw
``RpuSystem``/``GpuSystem`` engines are rejected: wrap them as
``RpuPlatform(system)``/``GpuPlatform(system)``.

The simulation is a classic discrete-event loop: request arrivals,
prefill completions, KV arrivals and per-token decode steps interleave
on one heap.  Step latency/energy comes from each pod's platform,
evaluated at the running batch's mean context and memoized on (batch,
context-bucket) so fleet runs stay fast.

The report answers the serving questions the paper motivates: TTFT/TPOT
tail percentiles, goodput against the configured SLO (the ~10 s
interaction threshold by default), queueing delay, and per-pod
utilization and energy.

**Multi-tenant fleet operations** (:mod:`repro.serving.tenancy`): a
config can carry N :class:`~repro.serving.tenancy.TenantSpec` rows,
enable admission control (per-tenant token buckets charged only while
the fleet-pressure signal -- prefill queue depth, decode KV occupancy
-- says goodput is collapsing; refused arrivals are *shed*, tracked
separately from infeasible rejections), and run an autoscaler control
loop that on a fixed tick drains or provisions pods per pool (or
reallocates between prefill and decode under a ``max_total_pods``
hardware budget) against a $/pod-hour cost model.  The report then
carries per-tenant SLO attainment, the max/min fairness ratio, shed
counts, scaling events, and $/1e6 decode tokens.  All of it defaults
off: a config with no tenants, no admission and no autoscaler is
bit-identical to the single-tenant simulator.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections.abc import Callable
from dataclasses import KW_ONLY, dataclass, field
from typing import ClassVar

from repro.models.config import ModelConfig
from repro.models.dtypes import DType
from repro.models.kv_cache import kv_bytes_per_token, kv_cache_bytes
from repro.models.workload import Workload
from repro.obs import (
    ADMIT_WAIT,
    DECODE,
    HANDOFF,
    PREEMPTED,
    PREFILL,
    QUEUED,
    SWAP,
    Timeline,
    TraceConfig,
    TraceRecorder,
    TraceRecording,
)
from repro.platform import Platform, StepCost
from repro.serving.contracts import mutates, pure_probe
from repro.serving.disaggregated import INTERACTION_THRESHOLD_S
from repro.serving.engine import EventCalendar, run_loop
from repro.serving.kvstore import KvBlockStore, SwapPolicy, swap_recompute_costs
from repro.serving.requests import Request
from repro.serving.scheduler import (
    ActiveRequest,
    ContinuousBatchScheduler,
    GrowthSchedule,
    Policy,
    QueuedRequest,
    Reservation,
)
from repro.serving.tenancy import (
    AdmissionConfig,
    AutoscalerConfig,
    CostModel,
    ScalingEvent,
    SloClass,
    TenantReport,
    TenantSpec,
    check_roster_names,
)
from repro.serving.tenancy import fairness as _attainment_fairness
from repro.specdec.fleet import SpecDecConfig
from repro.util.stats import left_sum, mean, percentile, repeat_add, repeat_add_below
from repro.util.tables import Table

#: Decode-step latency is memoized on context quantized (floored) to this
#: many tokens; floor-bucketing keeps the evaluated footprint within the
#: scheduler's reservation.
STEP_CONTEXT_BUCKET = 512


class SimulationStalled(RuntimeError):
    """A run's event calendar drained while requests were still neither
    completed, shed nor rejected: some actor stopped scheduling the
    events that would have resolved them.  The message names up to ten
    stranded requests with the last lifecycle stage each reached, and
    every decode pod's queue, batch and parked counts."""


class PrefillPolicy(enum.Enum):
    """Order the shared prefill service queue is drained in.

    Whatever the policy, a job whose whole context is resident in a
    decode pod's prefix cache at service start needs no prefill pod and
    is always forwarded first (it contends with nobody).
    """

    #: Strict arrival order -- reproduces the pre-queue greedy booking
    #: exactly, so it is the regression-pinned default.
    FIFO = "fifo"
    #: Shortest remaining prefill first (prompt + resumed context minus
    #: cached tokens).  Degenerates to FIFO when all prompts are equal.
    SJF = "sjf"
    #: Highest :attr:`Request.priority` first, aged by queue wait
    #: (``prefill_aging_s`` buys one level) and by preemption count --
    #: mirroring the decode preempter's aging, so resumes and old jobs
    #: cannot starve.
    PRIORITY = "priority"
    #: FIFO, but a fan-out sibling whose group founder is already in
    #: flight is deferred (up to ``affine_defer_s``) so the founder's
    #: prefix lands first and the siblings drain as late-bound cache
    #: hits instead of re-prefilling the shared context.  Requires late
    #: binding (deferral waits for the service-start re-check) and only
    #: differs from FIFO with ``prefix_caching`` on.
    PREFIX_AFFINE = "prefix_affine"


# ----------------------------------------------------------------------
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
    #: Prefill cost memo keyed by the evaluated workload shape; the
    #: cluster points pods sharing one platform object at one dict.
    #: The platform's prefill cost is a pure function of the workload,
    #: so a hit returns the identical (duration, power) pair.
    cost_cache: dict = field(default_factory=dict, repr=False)
    #: Benign memo (pure-function cache): invisible to the REPRO_CHECK
    #: purity fingerprint, which would otherwise flag cache fills.
    _contract_exempt: ClassVar[frozenset[str]] = frozenset({"cost_cache"})

    @property
    def engine(self) -> object:
        """The platform's underlying system (compatibility accessor)."""
        return self.platform.engine

    def idle(self, now: float) -> bool:
        """Can this pod start a queued job at ``now``?  Active, not
        draining, and past its current booking."""
        return self.busy_until_s <= now and self.active and not self.draining

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
            seq_len = request.total_len
            decode_len = request.decode_len
        else:
            seq_len = context_tokens
            decode_len = 0
        key = (
            request.model.name,
            seq_len,
            decode_len,
            self.weight_dtype or request.weight_dtype,
            self.kv_dtype or request.kv_dtype,
        )
        cached = self.cost_cache.get(key)
        if cached is not None:
            duration, power = cached
        else:
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
            self.cost_cache[key] = (duration, power)
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
    #: Time of the pod's pending ``_STEP`` event (meaningful while
    #: ``stepping``; each chain has exactly one event in flight).
    step_when: float = 0.0
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
    #: Fleet-wide speculative decoding (``None`` = plain decode; see
    #: :class:`repro.specdec.SpecDecConfig`).
    specdec: SpecDecConfig | None = None
    #: Split-placement draft platform.  ``None`` colocates the draft on
    #: :attr:`platform` when :attr:`specdec` is set.
    draft_platform: Platform | None = None
    _step_cache: dict[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict, repr=False
    )
    #: Benign memo (pure-function cache), exempt from the REPRO_CHECK
    #: purity fingerprint.
    _contract_exempt: ClassVar[frozenset[str]] = frozenset({"_step_cache"})

    @property
    def engine(self) -> object:
        """The platform's underlying system (compatibility accessor)."""
        return self.platform.engine

    @property
    def store(self) -> KvBlockStore:
        """The pod's KV block store (pool + prefix cache + swap tier)."""
        return self.scheduler.store

    def step_cost(self, batch_size: int, context_len: int) -> tuple[float, float]:
        """(latency, energy) of one decode step for the current batch.

        With :attr:`specdec` set, "one step" advances one *committed*
        token: the cost is a speculative window (``lookahead`` draft
        steps + one batched verify pass + any split-placement hand-off)
        amortised over the acceptance rate.
        """
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
        if self.specdec is None:
            cost = (step.latency_s, step.energy_j)
        else:
            cost = self._speculative_cost(self.specdec, batch_size, context_len, step)
        self._step_cache[key] = cost
        return cost

    def _speculative_cost(
        self,
        spec: SpecDecConfig,
        batch_size: int,
        context_len: int,
        verify: StepCost,
    ) -> tuple[float, float]:
        """Per-committed-token cost of one speculative window.

        The draft model steps on :attr:`draft_platform` (split
        placement) or on the verify pod's own hardware (colocated); the
        verify pass is the plain target step -- verifying a lookahead
        window is still memory-bound, so it costs about one ordinary
        step.  Split placement also pays the token hand-off across the
        verify platform's ingest link each window.
        """
        drafter = self.draft_platform if self.draft_platform is not None else self.platform
        draft_point = Workload(
            spec.draft_model,
            batch_size=batch_size,
            seq_len=context_len,
            decode_len=1,
            weight_dtype=drafter.preferred_weight_dtype,
            kv_dtype=self.kv_dtype,
        )
        draft = drafter.decode_step(draft_point, check_capacity=False)
        sync_s = 0.0
        if self.draft_platform is not None:
            sync_s = spec.window_sync_s(self.platform.kv_ingest_bytes_per_s)
        return spec.effective_step_cost(draft, verify, sync_s=sync_s)

    def outstanding_tokens(self) -> int:
        """Decode tokens still owed to admitted, queued and in-transfer
        requests (the load metric the router balances on).  O(1): the
        scheduler keeps its queued+active total current."""
        return self.scheduler.owed_tokens + self.in_transfer_tokens


# ----------------------------------------------------------------------
# Cluster configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodePodSpec:
    """Platform + hosted model for one decode pod."""

    engine: Platform
    model: ModelConfig


@dataclass(frozen=True, kw_only=True)
class ServingOptions:
    """The serving knobs a fleet runs under, declared once.

    :class:`ClusterConfig` and :class:`repro.api.Scenario` both inherit
    these fields, so a knob has one default and one check, and a
    scenario forwards every knob to its cluster by name.  Knobs are
    keyword-only, and an incoherent one raises a ``ValueError`` naming
    the field when either class is constructed.
    """

    #: Decode admission order on every pod.
    policy: Policy = Policy.FIFO
    #: Order the shared prefill service queue is drained in (decode
    #: admission order is :attr:`policy` above).  FIFO reproduces the
    #: pre-queue per-arrival booking exactly.
    prefill_policy: PrefillPolicy = PrefillPolicy.FIFO
    #: Consult the prefix cache when a job *starts service* (True, the
    #: default: siblings queued behind their group founder recover the
    #: hit) or at arrival (False -- the PR 4 behavior, kept as the
    #: ablation baseline the late-binding win is measured against).
    late_binding: bool = True
    #: PREFIX_AFFINE only: the longest a fan-out sibling may be held
    #: back waiting for its founder's prefix to land before it is
    #: prefilled anyway.  0.0 disables deferral outright (degenerates
    #: to FIFO), adaptive or not.
    affine_defer_s: float = 2.0
    #: PREFIX_AFFINE only: extend each sibling's deferral deadline to
    #: the in-flight founder's *estimated completion* (prefill end +
    #: hand-off + chunked-ingest margin) when that estimate is later
    #: than the fixed ``affine_defer_s`` window -- so the window tracks
    #: the actual prefix-landing time instead of a guessed constant.
    #: The fixed knob stays as the floor and as the whole story with
    #: ``affine_adaptive=False``.
    affine_adaptive: bool = True
    #: PRIORITY only: queue wait that buys one effective-priority level
    #: (aging, mirroring the decode preempter's preemption-count aging).
    prefill_aging_s: float = 10.0
    max_batch: int = 128
    weight_dtype: DType = DType.MXFP4
    kv_dtype: DType = DType.FP8
    #: KV reservation policy on decode pods.  PAGED (the vLLM block
    #: model) is the fleet default; FULL keeps the conservative
    #: full-context reservation for regression comparison.
    reservation: Reservation = Reservation.PAGED
    block_tokens: int = 128
    chunk_tokens: int = 512
    #: Per-decode-pod KV budget override (bytes).  ``None`` derives it
    #: from pod memory minus weights; setting it enables equal-budget
    #: FULL-vs-PAGED comparisons and capacity what-ifs.
    kv_budget_bytes: float | None = None
    #: Interactive SLO: a completed query counts toward goodput iff its
    #: end-to-end latency is within this bound (``float("inf")`` scores
    #: pure throughput runs).
    slo_s: float = INTERACTION_THRESHOLD_S
    #: Cross-request prefix caching on decode pods (PAGED only):
    #: requests carrying a ``prefix_id`` reuse resident shared-prefix
    #: blocks -- skipping their prefill, hand-off transfer and block
    #: allocation -- and routing prefers pods already holding the
    #: prefix.  Off by default: disabled runs are bit-identical to the
    #: pre-kvstore simulator.
    prefix_caching: bool = False
    #: What preemption does with a victim's KV: recompute-on-resume
    #: (NEVER, the default), swap private bytes to the host tier over
    #: the Ring Station host link (ALWAYS), or pick per victim by the
    #: transfer-bytes-vs-re-prefill-FLOPs cost model (AUTO).
    swap_policy: SwapPolicy = SwapPolicy.NEVER
    #: Host swap-tier capacity per decode pod (bytes); ``None`` models
    #: unbounded host memory.
    host_kv_bytes: float | None = None
    #: Host-link bandwidth for swap traffic (bytes/s).  ``None`` = the
    #: decode platform's ingest rate (the Ring Station host link).
    swap_bytes_per_s: float | None = None
    #: Load shedding (off by default -- see
    #: :class:`~repro.serving.tenancy.AdmissionConfig`).
    admission: AdmissionConfig = AdmissionConfig()
    #: Fleet control loop (``None`` = static fleet -- see
    #: :class:`~repro.serving.tenancy.AutoscalerConfig`).
    autoscaler: AutoscalerConfig | None = None
    #: $/pod-hour pricing behind the report's ``usd_per_mtok``.
    cost_model: CostModel = CostModel()
    #: Draft/verify speculative decoding on every decode pod (``None``
    #: = plain decode, bit-identical to the pre-specdec simulator).
    #: See :class:`repro.specdec.SpecDecConfig`: per-step decode cost
    #: becomes an acceptance-rate-amortised speculative window, active
    #: sequences hold ``lookahead`` extra KV tokens of block headroom
    #: for unverified draft tokens, and split placement prices drafts
    #: on a registry platform plus the per-window hand-off.
    specdec: SpecDecConfig | None = None
    #: Opt-in observability (see :mod:`repro.obs`): request lifecycle
    #: spans + event-boundary metric sampling, surfaced as the report's
    #: ``trace``/``timeline``.  ``None`` (the default) records nothing
    #: and costs nothing; enabled runs stay digest-identical -- the
    #: recorder only reads simulator state.
    trace: TraceConfig | None = None

    def __post_init__(self) -> None:
        if self.kv_budget_bytes is not None and self.kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes override must be positive")
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if self.swap_bytes_per_s is not None and not self.swap_bytes_per_s > 0:
            raise ValueError(
                "swap_bytes_per_s must be positive (None = decode platform "
                f"ingest rate), got {self.swap_bytes_per_s}"
            )
        if self.host_kv_bytes is not None and self.host_kv_bytes <= 0:
            raise ValueError("host_kv_bytes must be positive (or None)")
        if self.prefix_caching and self.reservation is not Reservation.PAGED:
            raise ValueError("prefix_caching requires the PAGED reservation")
        if not 0.0 <= self.affine_defer_s < float("inf"):
            # Finite only: the deferral deadline is a heap event, so an
            # infinite window would stall the clock at time inf.
            raise ValueError(
                f"affine_defer_s must be finite and >= 0, "
                f"got {self.affine_defer_s}"
            )
        if (
            self.prefill_policy is PrefillPolicy.PREFIX_AFFINE
            and not self.late_binding
        ):
            # Deferral waits for a prefix to *land*; with arrival-time
            # binding nothing is ever re-checked, so the policy would
            # silently degenerate to FIFO and poison ablations.
            raise ValueError(
                "PREFIX_AFFINE requires late binding (late_binding=True)"
            )
        if not self.prefill_aging_s > 0.0:
            raise ValueError(
                f"prefill_aging_s must be positive, got {self.prefill_aging_s}"
            )


@dataclass(frozen=True)
class ClusterConfig(ServingOptions):
    """A serving fleet: prefill pods, decode pods, and the
    :class:`ServingOptions` knobs they run under."""

    prefill_engines: tuple[Platform, ...]
    decode_pods: tuple[DecodePodSpec, ...]
    _: KW_ONLY
    #: KV hand-off bandwidth override in bytes/s.  The sentinel ``None``
    #: (the default) means "each decode platform's own ingest rate" --
    #: :attr:`repro.platform.Platform.kv_ingest_bytes_per_s`, the Ring
    #: Station's 100 GbE unless the platform overrides it.  A finite
    #: value pins every hand-off to that rate; ``float("inf")`` models
    #: colocated decode (the GPU-only baseline pays no transfer).
    #: Zero/negative/NaN values are rejected.
    kv_transfer_bytes_per_s: float | None = None
    #: Tenants sharing the fleet (their SLO classes drive the report's
    #: per-tenant attainment and the admission buckets' weights).  The
    #: empty default means one anonymous tenant scored against
    #: ``slo_s`` -- the single-tenant simulator, unchanged.
    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.prefill_engines:
            raise ValueError("cluster needs at least one prefill pod")
        if not self.decode_pods:
            raise ValueError("cluster needs at least one decode pod")
        engines = [
            (f"prefill_engines[{i}]", engine)
            for i, engine in enumerate(self.prefill_engines)
        ] + [
            (f"decode_pods[{i}].engine", spec.engine)
            for i, spec in enumerate(self.decode_pods)
        ]
        for label, engine in engines:
            if not isinstance(engine, Platform):
                raise TypeError(
                    f"{label} must be a Platform, got {type(engine).__name__}; "
                    "wrap raw systems as RpuPlatform(system) / GpuPlatform(system)"
                )
        if self.kv_transfer_bytes_per_s is not None and not (
            self.kv_transfer_bytes_per_s > 0
        ):
            raise ValueError(
                "kv_transfer_bytes_per_s must be positive (None = decode "
                "platform ingest rate, float('inf') = colocated), got "
                f"{self.kv_transfer_bytes_per_s}"
            )
        check_roster_names(self.tenants)
        super().__post_init__()


# ----------------------------------------------------------------------
# Per-request bookkeeping
# ----------------------------------------------------------------------
class RequestRecord:
    """Lifecycle timestamps of one request through the fleet.

    A preempted request goes around the prefill/transfer/admit loop
    again, so the per-stage timestamps reflect its *last* pass; waiting
    time is accumulated across passes in ``queue_wait_s``.  Field
    semantics:

    - ``rejected`` -- could never fit any pod; ``shed`` -- dropped at
      the door by admission control (tenant bucket empty under fleet
      pressure), distinct states.
    - ``num_preemptions`` -- times preempted off a decode pod (paged
      KV); each preemption re-pays prefill and the KV hand-off.
      ``num_swaps`` -- the subset resolved by a host swap round trip
      instead of a recompute pass.
    - ``group_inflight`` -- counted in the cluster's in-flight tally of
      its prefix group (set at first service start, cleared at
      completion); while any member is in flight, PREFIX_AFFINE defers
      cache-missing siblings.
    - ``cached_prefix_tokens`` -- prefix tokens served from the decode
      pod's cache on the last prefill pass (those tokens skipped
      prefill and the hand-off).  ``resume_tokens`` -- decode progress
      preserved across the last preemption (the resume recomputes
      prompt + this many tokens at prefill speed).
    - ``queue_wait_s`` -- total time waiting (prefill queue + decode
      admission queue), summed over every pass through the pipeline.
    """

    __slots__ = (
        "request",
        "rejected",
        "shed",
        "prefill_pod",
        "decode_pod",
        "prefill_start_s",
        "prefill_end_s",
        "transfer_end_s",
        "admitted_s",
        "first_token_s",
        "completed_s",
        "num_preemptions",
        "group_inflight",
        "num_swaps",
        "cached_prefix_tokens",
        "resume_tokens",
        "queue_wait_s",
    )

    def __init__(self, request: Request) -> None:
        self.request = request
        self.rejected = False
        self.shed = False
        self.prefill_pod = ""
        self.decode_pod = ""
        self.prefill_start_s = 0.0
        self.prefill_end_s = 0.0
        self.transfer_end_s = 0.0
        self.admitted_s = 0.0
        self.first_token_s: float | None = None
        self.completed_s: float | None = None
        self.num_preemptions = 0
        self.group_inflight = False
        self.num_swaps = 0
        self.cached_prefix_tokens = 0
        self.resume_tokens = 0
        self.queue_wait_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"RequestRecord({fields})"

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


@dataclass(frozen=True)
class PrefillQueueStats:
    """Shared prefill service queue activity over one run."""

    #: Jobs that entered the queue (arrivals + preemption resumes).
    jobs: int = 0
    peak_depth: int = 0
    #: Time-weighted mean depth over the whole run.
    mean_depth: float = 0.0
    #: PREFIX_AFFINE: siblings held back for their founder at least
    #: once, and the total queue time those jobs spent inside their
    #: deferral window (wait beyond the deadline is ordinary pod
    #: scarcity and is not booked here).
    founder_deferrals: int = 0
    founder_wait_s: float = 0.0


@dataclass(frozen=True)
class PodStats:
    """Activity summary of one pod over the run."""

    pod_id: str
    kind: str  # "prefill" | "decode"
    busy_s: float
    energy_j: float
    #: Decode pods only: preemptions issued and mean KV-pool occupancy
    #: (fraction of the budget allocated, time-weighted over stepping).
    preemptions: int = 0
    kv_occupancy: float = 0.0
    #: Platform label of the pod's hardware ("" for legacy records).
    platform: str = ""
    #: Prefix-cache activity (decode pods): tokens looked up / served
    #: from resident blocks, and shared tails privatized on divergence.
    prefix_lookup_tokens: int = 0
    prefix_hit_tokens: int = 0
    #: The subset of hits recovered by late binding: the prefix was not
    #: resident anywhere when the request arrived, only when its
    #: prefill job started service (hits/tokens).
    late_hits: int = 0
    late_hit_tokens: int = 0
    cow_copies: int = 0
    #: Host swap-tier traffic (decode pods).
    swap_outs: int = 0
    swap_ins: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    #: Wall-clock this pod was active (provisioned and not yet drained;
    #: the whole run for a static fleet) and what those pod-hours cost
    #: under the cluster's :class:`~repro.serving.tenancy.CostModel`.
    active_s: float = 0.0
    cost_usd: float = 0.0

    def utilization(self, elapsed_s: float) -> float:
        return min(self.busy_s / elapsed_s, 1.0) if elapsed_s > 0 else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of looked-up prefix tokens served from the cache."""
        if self.prefix_lookup_tokens == 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_lookup_tokens


@dataclass(frozen=True)
class ClusterReport:
    """SLO metrics for one simulated run."""

    #: The per-tenant partition memo is lazy; exempt it from the
    #: REPRO_CHECK purity fingerprint.
    _contract_exempt: ClassVar[frozenset[str]] = frozenset({"_memo"})

    completed: tuple[RequestRecord, ...]
    rejected: tuple[RequestRecord, ...]
    #: Clock at the last processed event: the run drains fully, so this
    #: includes the tail of long requests arriving near the window end.
    duration_s: float
    pod_stats: tuple[PodStats, ...]
    #: Arrival time of the last submitted request.  Throughput over
    #: this window (instead of the drain-inclusive ``duration_s``) is
    #: what makes short runs with long-tail requests comparable across
    #: sweep points.
    last_arrival_s: float = 0.0
    #: Interactive SLO the run was scored against.
    slo_s: float = INTERACTION_THRESHOLD_S
    #: Shared prefill service-queue activity (depth, founder deferrals).
    prefill_queue: PrefillQueueStats = PrefillQueueStats()
    #: Requests dropped by admission control (empty without shedding).
    shed: tuple[RequestRecord, ...] = ()
    #: Tenant roster the run was scored against (per-tenant SLO
    #: classes); empty = one anonymous tenant scored on ``slo_s``.
    tenants: tuple[TenantSpec, ...] = ()
    #: Autoscaler audit trail (empty for a static fleet).
    scaling_events: tuple[ScalingEvent, ...] = ()
    #: Frozen span recording of a traced run (``config.trace`` set):
    #: ``trace.to_chrome_json()`` opens in ``chrome://tracing``.  Not
    #: serialized by :meth:`to_json` -- the digest pins cover traced and
    #: untraced runs identically.
    trace: TraceRecording | None = field(default=None, compare=False)
    #: Event-boundary gauge/counter samples of a traced run (``None``
    #: untraced).  Not serialized by :meth:`to_json`.
    timeline: Timeline | None = field(default=None, compare=False)
    #: Memo for derived aggregates (sorted metric arrays, the per-tenant
    #: partition).  The report is frozen, so each is computed once on
    #: first use and reused by every later percentile/table/json call.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_submitted(self) -> int:
        return len(self.completed) + len(self.rejected) + len(self.shed)

    # -- latency -------------------------------------------------------
    def _sorted_metric(self, attr: str) -> list[float]:
        """Sorted values of one per-request latency metric, computed
        (and sorted) once per report."""
        values = self._memo.get(attr)
        if values is None:
            values = sorted(getattr(r, attr) for r in self.completed)
            self._memo[attr] = values
        return values

    def ttft_percentile(self, q: float) -> float:
        return percentile(self._sorted_metric("ttft_s"), q, presorted=True)

    def tpot_percentile(self, q: float) -> float:
        return percentile(self._sorted_metric("tpot_s"), q, presorted=True)

    def e2e_percentile(self, q: float) -> float:
        return percentile(
            self._sorted_metric("end_to_end_s"), q, presorted=True
        )

    @property
    def mean_queueing_delay_s(self) -> float:
        return mean([r.queueing_delay_s for r in self.completed])

    # -- throughput ----------------------------------------------------
    @property
    def goodput(self) -> float:
        """Fraction of submitted queries answered within the SLO
        (rejected queries count against it)."""
        if not self.num_submitted:
            return 0.0
        good = sum(1 for r in self.completed if r.end_to_end_s <= self.slo_s)
        return good / self.num_submitted

    @property
    def decode_tokens(self) -> int:
        return sum(r.request.decode_len for r in self.completed)

    @property
    def tokens_per_s(self) -> float:
        """Drain-inclusive decode throughput (tokens over the full run,
        including the post-arrival drain tail); understates a fleet's
        steady-state rate on short runs."""
        return self.decode_tokens / self.duration_s if self.duration_s else 0.0

    def decode_tokens_before(self, t: float) -> float:
        """Estimated decode tokens generated by time ``t``, linearly
        interpolating each request's pace between its first token and
        completion (exact for requests that completed by ``t``)."""
        total = 0.0
        for r in self.completed:
            first, done = r.first_token_s, r.completed_s
            if first is None or t <= first:
                continue
            if t >= done or done <= first:
                total += r.request.decode_len
            else:
                total += r.request.decode_len * (t - first) / (done - first)
        return total

    @property
    def arrival_window_tokens_per_s(self) -> float:
        """Decode throughput over the arrival window only: tokens
        generated *within* the window / window length.  Neither diluted
        by the drain tail (the drain-inclusive rate's flaw on short
        runs) nor inflated by drain-tail tokens, so it plateaus at the
        fleet's physical rate under overload.  Falls back to the
        drain-inclusive rate for degenerate single-instant traffic."""
        if self.last_arrival_s > 0.0:
            tokens = self.decode_tokens_before(self.last_arrival_s)
            return tokens / self.last_arrival_s
        return self.tokens_per_s

    @property
    def completed_rps(self) -> float:
        """Drain-inclusive completion rate."""
        return len(self.completed) / self.duration_s if self.duration_s else 0.0

    @property
    def arrival_window_rps(self) -> float:
        """Completions inside the arrival window / window length."""
        if self.last_arrival_s > 0.0:
            in_window = sum(
                1 for r in self.completed
                if r.completed_s is not None
                and r.completed_s <= self.last_arrival_s
            )
            return in_window / self.last_arrival_s
        return self.completed_rps

    # -- cache hierarchy ----------------------------------------------
    @property
    def prefix_lookup_tokens(self) -> int:
        return sum(p.prefix_lookup_tokens for p in self.pod_stats)

    @property
    def prefix_hit_tokens(self) -> int:
        return sum(p.prefix_hit_tokens for p in self.pod_stats)

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide prefix-cache hit rate (tokens served from
        resident blocks / tokens looked up; 0.0 when caching is off)."""
        lookups = self.prefix_lookup_tokens
        return self.prefix_hit_tokens / lookups if lookups else 0.0

    @property
    def late_hits(self) -> int:
        """Hits recovered by late binding: requests whose prefix was
        resident nowhere at arrival but had landed by service start."""
        return sum(p.late_hits for p in self.pod_stats)

    @property
    def late_hit_tokens(self) -> int:
        return sum(p.late_hit_tokens for p in self.pod_stats)

    @property
    def total_swaps(self) -> int:
        """Preemptions resolved through the host swap tier."""
        return sum(p.swap_outs for p in self.pod_stats)

    @property
    def total_swap_bytes(self) -> float:
        """Bytes that crossed the host link (swap-out + swap-in)."""
        return left_sum(p.swap_out_bytes + p.swap_in_bytes for p in self.pod_stats)

    # -- paged-KV health ----------------------------------------------
    @property
    def total_preemptions(self) -> int:
        return sum(p.preemptions for p in self.pod_stats if p.kind == "decode")

    @property
    def mean_decode_kv_occupancy(self) -> float:
        """Busy-time-weighted mean KV-pool occupancy across decode pods."""
        decode = [p for p in self.pod_stats if p.kind == "decode"]
        busy = left_sum(p.busy_s for p in decode)
        if busy == 0.0:  # simlint: ok[digest-safety] zero-accumulator sentinel, only ever exactly 0.0
            return 0.0
        return left_sum(p.kv_occupancy * p.busy_s for p in decode) / busy

    # -- energy --------------------------------------------------------
    @property
    def total_energy_j(self) -> float:
        return left_sum(p.energy_j for p in self.pod_stats)

    @property
    def energy_per_token_j(self) -> float:
        return self.total_energy_j / self.decode_tokens if self.decode_tokens else 0.0

    # -- cost ----------------------------------------------------------
    @property
    def cost_usd(self) -> float:
        """Fleet cost: each pod's active pod-hours at its platform's
        $/pod-hour rate (elastic fleets pay only for provisioned time)."""
        return left_sum(p.cost_usd for p in self.pod_stats)

    @property
    def usd_per_mtok(self) -> float:
        """$ per million decode tokens -- the operator's unit economics."""
        if not self.decode_tokens:
            return 0.0
        return self.cost_usd / self.decode_tokens * 1e6

    # -- tenants -------------------------------------------------------
    def per_tenant(self) -> dict[str, TenantReport]:
        """Per-tenant slices, keyed by tenant name.

        Tenants come from the roster when one was configured; otherwise
        every request's ``tenant`` tag ("" for untagged single-tenant
        traffic) forms a pseudo-tenant scored against the run's
        ``slo_s`` as an end-to-end-only SLO class.  Shed and rejected
        requests count against their tenant's offered load.

        The partition is a single pass over the records, memoized on
        the (frozen) report: ``fairness``, ``to_json`` and the tenant
        table all reuse one computation.
        """
        memo = self._memo.get("per_tenant")
        if memo is not None:
            return memo
        slos = {t.name: t.slo for t in self.tenants}
        default_slo = SloClass("default", e2e_s=self.slo_s)
        by_tenant: dict[str, list[RequestRecord]] = {}
        shed_by: dict[str, int] = {}
        rejected_by: dict[str, int] = {}
        for r in self.completed:
            by_tenant.setdefault(r.request.tenant, []).append(r)
        for r in self.shed:
            name = r.request.tenant
            shed_by[name] = shed_by.get(name, 0) + 1
        for r in self.rejected:
            name = r.request.tenant
            rejected_by[name] = rejected_by.get(name, 0) + 1
        names = sorted(
            by_tenant.keys() | shed_by.keys() | rejected_by.keys()
            | slos.keys()
        )
        out: dict[str, TenantReport] = {}
        for name in names:
            slo = slos.get(name, default_slo)
            done = by_tenant.get(name, ())
            shed = shed_by.get(name, 0)
            rejected = rejected_by.get(name, 0)
            out[name] = TenantReport(
                name=name,
                slo=slo,
                offered=len(done) + shed + rejected,
                completed=len(done),
                shed=shed,
                rejected=rejected,
                attained=sum(
                    1 for r in done
                    if slo.attained(r.ttft_s, r.tpot_s, r.end_to_end_s)
                ),
                decode_tokens=sum(r.request.decode_len for r in done),
                ttft_p95_s=(
                    percentile([r.ttft_s for r in done], 95) if done else 0.0
                ),
                mean_tpot_s=mean([r.tpot_s for r in done]) if done else 0.0,
            )
        self._memo["per_tenant"] = out
        return out

    @property
    def fairness(self) -> float:
        """Max/min SLO-attainment ratio across tenants that were
        offered any load (1.0 = perfectly fair)."""
        return _attainment_fairness(
            {
                name: report.attainment
                for name, report in self.per_tenant().items()
                if report.offered
            }
        )

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        """The report as one JSON-safe dict (non-finite floats become
        ``None``) -- the structure ``bench_*.py`` scripts emit instead
        of hand-rolling metric dicts."""

        def safe(value: float) -> float | None:
            return value if math.isfinite(value) else None

        latency: dict[str, float] = {}
        if self.completed:
            latency = {
                "ttft_p50_s": self.ttft_percentile(50),
                "ttft_p95_s": self.ttft_percentile(95),
                "ttft_p99_s": self.ttft_percentile(99),
                "tpot_p50_s": self.tpot_percentile(50),
                "tpot_p99_s": self.tpot_percentile(99),
                "mean_queueing_delay_s": self.mean_queueing_delay_s,
            }
        return {
            "duration_s": self.duration_s,
            "last_arrival_s": self.last_arrival_s,
            "slo_s": safe(self.slo_s),
            "submitted": self.num_submitted,
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "shed": len(self.shed),
            "goodput": self.goodput,
            **latency,
            "decode_tokens": self.decode_tokens,
            "tokens_per_s": self.tokens_per_s,
            "arrival_window_tokens_per_s": self.arrival_window_tokens_per_s,
            "mean_decode_kv_occupancy": self.mean_decode_kv_occupancy,
            "preemptions": self.total_preemptions,
            "prefix_hit_rate": self.prefix_hit_rate,
            "late_hits": self.late_hits,
            "late_hit_tokens": self.late_hit_tokens,
            "swaps": self.total_swaps,
            "swap_bytes": self.total_swap_bytes,
            "energy_j": self.total_energy_j,
            "energy_per_token_j": self.energy_per_token_j,
            "cost_usd": self.cost_usd,
            "usd_per_mtok": self.usd_per_mtok,
            "fairness": safe(self.fairness),
            "prefill_queue": {
                "jobs": self.prefill_queue.jobs,
                "peak_depth": self.prefill_queue.peak_depth,
                "mean_depth": self.prefill_queue.mean_depth,
                "founder_deferrals": self.prefill_queue.founder_deferrals,
                "founder_wait_s": self.prefill_queue.founder_wait_s,
            },
            "pods": [
                {
                    "pod_id": p.pod_id,
                    "kind": p.kind,
                    "platform": p.platform,
                    "busy_s": p.busy_s,
                    "utilization": p.utilization(self.duration_s),
                    "energy_j": p.energy_j,
                    "preemptions": p.preemptions,
                    "kv_occupancy": p.kv_occupancy,
                    "active_s": p.active_s,
                    "cost_usd": p.cost_usd,
                }
                for p in self.pod_stats
            ],
            "tenants": {
                name: {
                    "slo": report.slo.name,
                    "offered": report.offered,
                    "completed": report.completed,
                    "shed": report.shed,
                    "rejected": report.rejected,
                    "attained": report.attained,
                    "attainment": report.attainment,
                    "shed_fraction": report.shed_fraction,
                    "decode_tokens": report.decode_tokens,
                    "ttft_p95_s": report.ttft_p95_s,
                    "mean_tpot_s": report.mean_tpot_s,
                }
                for name, report in self.per_tenant().items()
            },
            "scaling_events": [
                {
                    "t_s": e.t_s,
                    "pool": e.pool,
                    "action": e.action,
                    "pod_id": e.pod_id,
                    "pressure": e.pressure,
                }
                for e in self.scaling_events
            ],
        }

    def summary_table(
        self,
        title: str = "Cluster SLO report",
        group_by: str | None = None,
    ) -> Table:
        if group_by == "tenant":
            return self._tenant_table(title)
        if group_by is not None:
            raise ValueError(
                f"group_by must be None or 'tenant', got {group_by!r}"
            )
        table = Table(title, ["metric", "value"])
        table.add_row(["queries completed / submitted",
                       f"{len(self.completed)} / {self.num_submitted}"])
        slo = "inf" if math.isinf(self.slo_s) else f"{self.slo_s:g} s"
        table.add_row([f"goodput (<= {slo})", f"{self.goodput:.1%}"])
        if self.shed:
            table.add_row(["shed (admission control)", f"{len(self.shed)}"])
        if self.completed:
            # Latency rows are undefined with zero completions; "n/a"
            # beats a misleading 0.00 s.
            table.add_row(["TTFT p50 / p95 / p99 (s)",
                           f"{self.ttft_percentile(50):.2f} / "
                           f"{self.ttft_percentile(95):.2f} / "
                           f"{self.ttft_percentile(99):.2f}"])
            table.add_row(["TPOT p50 / p99 (ms)",
                           f"{self.tpot_percentile(50) * 1e3:.2f} / "
                           f"{self.tpot_percentile(99) * 1e3:.2f}"])
            table.add_row(["mean queueing delay (s)",
                           f"{self.mean_queueing_delay_s:.2f}"])
        else:
            table.add_row(["TTFT p50 / p95 / p99 (s)", "n/a"])
            table.add_row(["TPOT p50 / p99 (ms)", "n/a"])
            table.add_row(["mean queueing delay (s)", "n/a"])
        table.add_row(["decode tok/s (drain-inclusive)",
                       f"{self.tokens_per_s:,.0f}"])
        table.add_row(["decode tok/s (arrival window)",
                       f"{self.arrival_window_tokens_per_s:,.0f}"])
        table.add_row(["decode KV occupancy",
                       f"{self.mean_decode_kv_occupancy:.0%}"])
        table.add_row(["preemptions", f"{self.total_preemptions}"])
        table.add_row(["prefill queue depth (mean / peak)",
                       f"{self.prefill_queue.mean_depth:.1f} / "
                       f"{self.prefill_queue.peak_depth}"])
        if self.prefix_lookup_tokens:
            table.add_row(["prefix cache hit rate",
                           f"{self.prefix_hit_rate:.0%}"])
            table.add_row(["late-bound prefix hits",
                           f"{self.late_hits} "
                           f"({self.late_hit_tokens:,} tok)"])
        else:
            # Zero lookups means the rate is undefined, not 0%: render
            # n/a (the zero-completion latency rows get the same
            # treatment above).
            table.add_row(["prefix cache hit rate", "n/a"])
        if self.prefill_queue.founder_deferrals:
            mean_wait = (
                self.prefill_queue.founder_wait_s
                / self.prefill_queue.founder_deferrals
            )
            table.add_row(["founder deferrals (mean wait)",
                           f"{self.prefill_queue.founder_deferrals} "
                           f"({mean_wait:.2f} s)"])
        if self.total_swaps:
            table.add_row(["KV swaps (host tier)",
                           f"{self.total_swaps} "
                           f"({self.total_swap_bytes / 1e9:.1f} GB moved)"])
        table.add_row(["fleet energy (kJ)", f"{self.total_energy_j / 1e3:.1f}"])
        if self.scaling_events:
            ups = sum(1 for e in self.scaling_events if e.action == "up")
            downs = len(self.scaling_events) - ups
            table.add_row(["autoscaler actions (up / down)",
                           f"{ups} / {downs}"])
        if self.tenants or self.scaling_events or self.shed:
            table.add_row(["fleet cost ($, $/Mtok)",
                           f"{self.cost_usd:.2f}, "
                           f"{self.usd_per_mtok:.2f}"])
        for pod in self.pod_stats:
            label = f"{pod.pod_id} utilization"
            if pod.platform:
                label = f"{pod.pod_id} ({pod.platform}) utilization"
            table.add_row([label,
                           f"{pod.utilization(self.duration_s):.0%}"])
        return table

    def _tenant_table(self, title: str) -> Table:
        """``summary_table(group_by="tenant")``: one row per tenant
        plus fleet fairness and unit-economics footers."""
        table = Table(
            title,
            ["tenant", "SLO class", "offered", "done", "shed",
             "attainment", "TTFT p95 (s)", "TPOT (ms)"],
        )
        for name, report in self.per_tenant().items():
            table.add_row([
                name or "(default)",
                report.slo.name,
                f"{report.offered}",
                f"{report.completed}",
                f"{report.shed}",
                f"{report.attainment:.1%}",
                f"{report.ttft_p95_s:.2f}",
                f"{report.mean_tpot_s * 1e3:.2f}",
            ])
        fair = self.fairness
        table.add_row([
            "fleet", "", f"{self.num_submitted}", f"{len(self.completed)}",
            f"{len(self.shed)}",
            "inf" if math.isinf(fair) else f"fair {fair:.2f}",
            f"${self.cost_usd:.2f}",
            f"${self.usd_per_mtok:.2f}/Mtok",
        ])
        return table


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
(_ARRIVAL, _PREFILL_DONE, _KV_ARRIVE, _STEP, _RESUME, _SWAP_BACK,
 _PREFILL_WAKE, _AUTOSCALE, _POD_READY, _TOOL_RESUME) = range(10)


class ClusterSim:
    """Discrete-event simulation of a :class:`ClusterConfig`."""

    #: Benign memos (pure-function caches, plus the per-platform cache
    #: registries backing them): exempt from the REPRO_CHECK purity
    #: fingerprint so probes that warm a cost cache don't false-alarm.
    _contract_exempt: ClassVar[frozenset[str]] = frozenset(
        {"_prefill_cost_caches", "_step_caches", "_recompute_cache", "_obs"}
    )

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        #: Trace recorder of the current run (``None`` when tracing is
        #: off).  Pure observer -- it only reads sim state -- and
        #: mutated by event handlers only, never by probes, so it is
        #: exempt from the purity fingerprint (walking a million-span
        #: ring per probe would drown REPRO_CHECK runs; the
        #: ``obs_hygiene`` simlint checker covers it statically).
        self._obs: TraceRecorder | None = None
        #: Cost memos shared between pods driving the *same* platform
        #: object (the factory reuses one platform across a pool's
        #: clones): platform costs are pure functions of the workload
        #: shape, so pods sharing an engine can share evaluations.
        #: Keyed by ``id(platform)`` -- distinct platforms never mix.
        self._prefill_cost_caches: dict[int, dict] = {}
        self._step_caches: dict[tuple[int, str], dict] = {}
        #: Fleet-wide prefix-residency epoch: a monotone count of block
        #: publications + reclaims, bumped in O(1) by the stores'
        #: ``on_prefix_change`` hook.  Peeked residency is constant
        #: while it holds still, so queue scans memoize against it and
        #: the all-pods-busy bypass scan is skipped until it advances.
        self._fleet_epoch = 0
        #: Split-placement draft platform, built once from the registry
        #: and shared by every decode pod (``None`` = no specdec, or
        #: colocated drafting on each pod's own hardware).
        self._draft_platform: Platform | None = None
        if config.specdec is not None:
            sizing = Workload(config.specdec.draft_model, batch_size=32, seq_len=8192)
            self._draft_platform = config.specdec.resolve_draft_platform(sizing=sizing)
        self._build_pods()

    def _build_pods(self) -> None:
        """Fresh pod state; called per run so a sim instance is reusable."""
        config = self.config
        self.prefill_pods = []
        for i, platform in enumerate(config.prefill_engines):
            self.prefill_pods.append(
                PrefillPod(
                    pod_id=f"prefill{i}",
                    platform=platform,
                    weight_dtype=config.weight_dtype,
                    kv_dtype=config.kv_dtype,
                    cost_cache=self._prefill_cost_caches.setdefault(
                        id(platform), {}
                    ),
                )
            )
        self.decode_pods = []
        self._recompute_cache: dict[tuple[str, int, float], float] = {}
        for i, spec in enumerate(config.decode_pods):
            self.decode_pods.append(self._make_decode_pod(f"decode{i}", spec))

    def _make_decode_pod(self, pod_id: str, spec: DecodePodSpec) -> DecodePod:
        """One decode pod per the config's serving point (also the
        autoscaler's factory when it grows the pool past the roster)."""
        config = self.config
        platform = spec.engine
        budget = config.kv_budget_bytes or platform.kv_budget_bytes(
            spec.model, config.weight_dtype
        )
        block = config.block_tokens * kv_bytes_per_token(spec.model, config.kv_dtype)
        if config.reservation is Reservation.PAGED and budget < block:
            raise ValueError(
                f"kv_budget_bytes={budget:g} is below one KV block of "
                f"{spec.model.name} ({block:g} B): every request would be "
                "rejected"
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
                draft_tokens=(
                    config.specdec.draft_kv_tokens
                    if config.specdec is not None
                    else 0
                ),
            ),
            weight_dtype=config.weight_dtype,
            kv_dtype=config.kv_dtype,
            specdec=config.specdec,
            draft_platform=self._draft_platform,
        )
        pod.scheduler.swap_decider = self._swap_decider(pod)
        pod.store.on_prefix_change = self._on_prefix_change
        pod._step_cache = self._step_caches.setdefault(
            (id(platform), spec.model.name), {}
        )
        return pod

    # -- swap cost model -----------------------------------------------
    def _swap_rate(self, pod: DecodePod) -> float:
        """Host-link bandwidth for ``pod``'s swap traffic."""
        if self.config.swap_bytes_per_s is not None:
            return self.config.swap_bytes_per_s
        return pod.platform.kv_ingest_bytes_per_s

    def _swap_decider(self, pod: DecodePod) -> Callable[[ActiveRequest], bool] | None:
        """The per-victim swap-vs-recompute choice the scheduler calls
        at preemption time, per the configured :class:`SwapPolicy`."""
        policy = self.config.swap_policy
        if policy is SwapPolicy.NEVER:
            return None
        if policy is SwapPolicy.ALWAYS:
            return lambda entry: True

        def decide(entry: ActiveRequest) -> bool:
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
    @mutates
    def _push(self, when: float, kind: int, payload: object) -> None:
        self._calendar.push(when, kind, payload)
        if kind == _STEP:
            payload.step_when = when  # the pod's one pending chain event
        else:
            heapq.heappush(self._hard_events, when)

    def _handlers(self) -> list:
        """Dispatch table for :func:`repro.serving.engine.run_loop`,
        indexed by event kind."""
        table: list = [None] * 10
        table[_ARRIVAL] = self._on_arrival
        table[_PREFILL_DONE] = self._on_prefill_done
        table[_KV_ARRIVE] = self._on_kv_arrive_event
        table[_STEP] = self._on_step
        # A recompute resume re-enters the shared queue like a fresh
        # arrival; at service start it consults the prefix cache the
        # same way (still-resident prefix blocks need neither
        # re-prefill nor a re-transfer).
        table[_RESUME] = self._enqueue_prefill
        table[_SWAP_BACK] = self._on_swap_back_event
        # _PREFILL_WAKE carries no payload: it only advances the clock
        # to a deferral deadline so the post-event drain runs.
        table[_PREFILL_WAKE] = self._on_wake
        table[_AUTOSCALE] = self._on_autoscale_tick
        table[_POD_READY] = self._on_pod_ready
        # A tool-call pause ends: the parked sequence rejoins its pod's
        # batch (its KV blocks never left the device).
        table[_TOOL_RESUME] = self._on_tool_resume_event
        return table

    def _stale(self, kind: int, payload: object) -> bool:
        """Events dropped before they can advance the clock.

        A stale ``_PREFILL_WAKE`` (the deferred job was served early
        because its founder's prefix landed) or a control-loop tick
        after the workload resolved would otherwise inflate
        ``duration_s`` -- and every per-duration metric -- with an idle
        tail."""
        if kind == _PREFILL_WAKE:
            return not self._queue
        if kind == _AUTOSCALE or kind == _POD_READY:
            return self._unresolved <= 0
        return False

    def _on_kv_arrive_event(self, now: float, payload: object) -> None:
        pod, record = payload
        self._on_kv_arrive(now, pod, record)

    def _on_swap_back_event(self, now: float, payload: object) -> None:
        pod, record = payload
        self._on_swap_back(now, pod, record)

    def _on_tool_resume_event(self, now: float, payload: object) -> None:
        """A device-parked tool call finished: the sequence rejoins its
        pod's batch (its KV blocks never left the device)."""
        pod, entry = payload
        pod.scheduler.resume_parked(entry)
        if not pod.stepping:
            pod.stepping = True
            self._push(now, _STEP, pod)

    def _on_wake(self, now: float, payload: object) -> None:
        pass

    def _on_autoscale_tick(self, now: float, payload: object) -> None:
        self._autoscale(now)
        self._push(
            now + self.config.autoscaler.control_period_s, _AUTOSCALE, None
        )

    def _on_pod_ready(self, now: float, pod: object) -> None:
        if pod.provisioning:
            pod.provisioning = False
            pod.active = True
            pod.activated_s = now

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
        (``_fleet_epoch``): residency can only change when a block
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
        if self.config.affine_defer_s == 0.0:  # simlint: ok[digest-safety] config sentinel, exact by construction
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
            # deadline > now is guaranteed by the early return above
            self._push(deadline, _PREFILL_WAKE, None)  # simlint: ok[causality] guarded
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

    def _on_prefix_change(self, model_key: str, prefix_id: int) -> None:
        """KvBlockStore hook: one prefix block was registered or
        reclaimed somewhere in the fleet, so residency peeks are
        stale."""
        self._fleet_epoch += 1

    # Runs after every event: under REPRO_CHECK, fingerprinting all of
    # ``self`` (calendar, request records, every pod) per sampled call
    # costs far more than the run itself, so nothing is watched.  The
    # static purity lint still covers the body and the runtime
    # @mutates guard still applies.
    @pure_probe(watch=())
    def _drain_blocked(self, now: float) -> bool:
        """Would :meth:`_drain_prefill_queue` pull nothing at ``now``?

        True when the queue is empty, or when no active, non-draining
        prefill pod is idle and the fully cached bypass scan is current
        (bypass off, or no prefix block registered or reclaimed since
        the last scan found nothing to forward).  A blocked drain stays
        blocked until the next non-``_STEP`` event: a busy pod frees
        only at its own ``_PREFILL_DONE``, jobs enqueue only on
        arrivals and resumes, and quiet decode boundaries register and
        reclaim no prefix blocks -- which is what lets the bulk lane
        chain steps over a non-empty queue."""
        if not self._queue:
            return True
        for p in self.prefill_pods:
            if p.idle(now):
                return False
        return (
            not self._bypass_enabled
            or self._fleet_epoch == self._bypass_epoch
        )

    def _drain_prefill_queue(self, now: float) -> None:
        """Pull queued jobs into service (called after every event).
        Each loop iteration forwards one fully cached job for free or
        books one idle pod; fully cached jobs drain even while every
        pod is busy, since they need no pod at all."""
        # Invariant across the whole drain: pulling jobs pins blocks
        # and books pods, but never registers or reclaims trie blocks.
        epoch = self._fleet_epoch if self._bypass_enabled else -1
        while not self._drain_blocked(now):
            idle = [p for p in self.prefill_pods if p.idle(now)]
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
        obs = self._obs
        if obs is not None:
            obs.span(
                request.request_id, QUEUED, job.enqueued_s, now,
                tenant=request.tenant,
            )
        full_context = request.prompt_len + record.resume_tokens
        if cached >= full_context:
            # Whole context served from the prefix cache: no prefill
            # work, straight to the (empty) hand-off.
            record.prefill_pod = ""
            record.prefill_start_s = record.prefill_end_s = now
            if obs is not None:
                obs.span(
                    request.request_id, PREFILL, now, now,
                    tenant=request.tenant, detail="cached",
                )
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
        if obs is not None:
            obs.span(
                request.request_id, PREFILL, start, end, pod=pod.pod_id,
                tenant=request.tenant,
            )
        if self._affine_eta_enabled and record.group_inflight:
            # First cut of the group's prefix-landing ETA: the prefill
            # finish time (the hand-off + ingest margin is added when
            # the prefill actually completes and the route is known).
            self._group_eta[(request.model.name, request.prefix_id)] = end
        self._push(end, _PREFILL_DONE, record)

    # -- event handlers ------------------------------------------------
    def _on_arrival(self, now: float, record: RequestRecord) -> None:
        obs = self._obs
        if obs is not None:
            obs.arrival(record.request.request_id, now, record.request.tenant)
        if self._route_decode(record.request) is None:
            record.rejected = True
            self._unresolved -= 1
            if obs is not None:
                obs.close_root(record.request.request_id, now, "rejected")
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
                if obs is not None:
                    obs.close_root(record.request.request_id, now, "shed")
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
            kv_term = left_sum(p.scheduler.kv_occupancy for p in routable) / len(
                routable
            )
        else:
            kv_term = 1.0
        return max(queue_term, kv_term)

    # -- telemetry (read-only; see repro.obs) --------------------------
    def _observe_event(self, now: float, kind: int) -> None:
        """Per-event telemetry boundary (:func:`run_loop`'s ``observe``
        hook, wired only when tracing is on).  Reads simulator state,
        writes recorder state, mutates nothing else -- traced runs stay
        digest-identical."""
        obs = self._obs
        if obs is not None:
            obs.event(kind)
            if obs.want_sample(now):
                obs.record_sample(now, self._gauges(now))

    def _gauges(self, now: float) -> dict[str, float]:
        """Fleet gauges for one timeline sample.  Pure reads only: no
        property here may settle caches or refills (that is why bucket
        levels go through :meth:`TokenBucket.level`, not ``peek``)."""
        routable = [
            p for p in self.decode_pods if p.active and not p.draining
        ]
        n_prefill, n_decode = self._pool_sizes()
        gauges = {
            "queue_depth": float(len(self._queue)),
            "fleet_pressure": self._fleet_pressure(),
            "kv_occupancy": (
                left_sum(p.scheduler.kv_occupancy for p in routable)
                / len(routable)
                if routable
                else 0.0
            ),
            "batch_size": float(
                sum(p.scheduler.batch_size for p in routable)
            ),
            "decode_queue_depth": float(
                sum(p.scheduler.queue_depth for p in routable)
            ),
            "host_occupancy": max(
                (p.store.host_occupancy for p in routable), default=0.0
            ),
            "prefill_pods": float(n_prefill),
            "decode_pods": float(n_decode),
        }
        for name, bucket in self._buckets.items():
            gauges[f"bucket.{name}" if name else "bucket"] = bucket.level(now)
        if self._default_bucket is not None and "" not in self._buckets:
            gauges["bucket"] = self._default_bucket.level(now)
        return gauges

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
        obs = self._obs
        if obs is not None:
            obs.span(
                request.request_id, HANDOFF, now, now + transfer_s,
                pod=pod.pod_id, tenant=request.tenant,
            )
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
        obs = self._obs
        admitted = pod.scheduler.admit(now)
        for entry in admitted:
            record = self._records_by_id[entry.request.request_id]
            record.admitted_s = now
            record.queue_wait_s += now - record.transfer_end_s
            if obs is not None:
                obs.span(
                    entry.request.request_id, ADMIT_WAIT,
                    record.transfer_end_s, now, pod=pod.pod_id,
                    tenant=entry.request.tenant,
                )
        if pod.scheduler.batch_size == 0:
            pod.stepping = False
            return
        # Bulk quiet lane: only when nothing was admitted here and the
        # prefill drain cannot act before the next non-_STEP event (an
        # empty queue, or one whose jobs all wait on a busy pod).
        if (
            not admitted
            and self._drain_blocked(now)
            and self._bulk_quiet_steps(now, pod)
        ):
            return
        batch = pod.scheduler.batch_size
        context = pod.scheduler.mean_context_len()
        step_s, step_j = pod.step_cost(batch, context)
        pod.kv_occupancy_s += pod.scheduler.kv_occupancy * step_s
        end = now + step_s
        finished = pod.scheduler.advance(end)
        newly_started = pod.scheduler.newly_started
        if newly_started:
            for entry in newly_started:
                record = self._records_by_id[entry.request.request_id]
                if record.first_token_s is None:
                    # A re-admitted preemptee keeps the first-token
                    # stamp from its first pass.
                    record.first_token_s = entry.first_token_s
            newly_started.clear()
        for entry in finished:
            record = self._records_by_id[entry.request.request_id]
            record.completed_s = end
            self._unresolved -= 1
            if obs is not None:
                obs.span(
                    entry.request.request_id, DECODE, record.admitted_s,
                    end, pod=pod.pod_id, tenant=entry.request.tenant,
                )
                obs.close_root(entry.request.request_id, end, "completed")
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
            if obs is not None:
                obs.span(
                    queued.request.request_id, DECODE, record.admitted_s,
                    end, pod=pod.pod_id, tenant=queued.request.tenant,
                    detail="preempted",
                )
                obs.instant(
                    queued.request.request_id, PREEMPTED, end,
                    pod=pod.pod_id, tenant=queued.request.tenant,
                )
                obs.count("preempted")
            if queued.swapped:
                # Swap-to-host: the victim's private bytes round-trip
                # the host link and re-enter this pod's queue with KV
                # intact -- no prefill pod, no hand-off re-transfer.
                record.num_swaps += 1
                round_trip_s = 2.0 * queued.swap_bytes / self._swap_rate(pod)
                if obs is not None:
                    obs.span(
                        queued.request.request_id, SWAP, end,
                        end + round_trip_s, pod=pod.pod_id,
                        tenant=queued.request.tenant,
                    )
                    obs.count("swapped")
                self._push(end + round_trip_s, _SWAP_BACK, (pod, record))
            else:
                # Recompute-on-resume: back through a prefill pod
                # (which recomputes prompt + generated-so-far) and the
                # KV hand-off, then re-admission wherever load is
                # lowest.  Dispatched via the heap so the prefill pod
                # is not booked before events that precede the step's
                # end.
                self._push(end, _RESUME, record)
        for parked, think_s in pod.scheduler.take_parked():
            record = self._records_by_id[parked.request.request_id]
            if obs is not None:
                obs.count("tool_paused")
            if isinstance(parked, QueuedRequest):
                # Swapped park: the pause's KV rides the host tier and
                # re-enters through the ordinary swap-back path once
                # both the think time and the round trip have elapsed.
                record.num_swaps += 1
                record.resume_tokens = parked.tokens_done
                round_trip_s = 2.0 * parked.swap_bytes / self._swap_rate(pod)
                if obs is not None:
                    obs.span(
                        parked.request.request_id, SWAP, end,
                        end + round_trip_s, pod=pod.pod_id,
                        tenant=parked.request.tenant, detail="tool_park",
                    )
                    obs.count("swapped")
                self._push(
                    end + think_s + round_trip_s, _SWAP_BACK, (pod, record)
                )
            else:
                # Device park: the KV lease never moves, the sequence
                # just sits out its think time and rejoins the batch.
                self._push(end + think_s, _TOOL_RESUME, (pod, parked))
        pod.busy_s += step_s
        pod.energy_j += step_j
        self._push(end, _STEP, pod)

    def _bulk_quiet_steps(self, now: float, pod: DecodePod) -> bool:
        """Fast lane: chain consecutive *quiet* decode steps of ``pod``
        inside one event, skipping the per-step calendar round-trips.

        A step boundary is quiet when nothing observable can happen at
        it.  The caller checks two conditions: nothing was admitted at
        this boundary (admissibility is a pure predicate when it
        denies, so a blocked pod queue stays blocked at every chained
        boundary), and the prefill drain is blocked
        (:meth:`_drain_blocked`: the queue is empty, or every active
        prefill pod is busy until its own ``_PREFILL_DONE`` and the
        fully cached bypass scan is current), which holds until the
        horizon below.  This method checks the batch: every running
        sequence is decoding with its first token already stamped, and
        none parks or finishes within the span.  A sequence's next
        tool-call pause sits at a fixed token index, so it is a trigger
        boundary just like its finish; the span stops before whichever
        comes first.  A sequence *growing a KV block* stays
        quiet as long as the block fits the free pool outright -- the
        growth is then pure ledger arithmetic, replayed with the exact
        float-operation order of :meth:`ContinuousBatchScheduler.advance`
        -- while a growth that would trigger a cache reclaim or a
        preemption is observable and ends the span just before its
        boundary.  The chain also
        stops strictly before the quiet horizon -- the calendar's next
        event, except that pending steps of *other* provably-quiet
        decode pods do not cap the span: their chains are walked
        through to their own first triggers instead
        (:meth:`_quiet_horizon`), since quiet boundaries of different
        pods touch disjoint state and commute.  Under those conditions each boundary
        only accumulates time/energy/occupancy and bumps every
        sequence's token count -- which this lane reproduces bit for
        bit: run digests are those of the single-step path.

        The replay is segmented.  A boundary that re-fetches the step
        cost or finds a walker lagging takes the full per-boundary
        step; the boundaries from there to the next cost-key change
        (or the trigger, the bound or a walker's clock) form a *uniform
        run*, in which every boundary adds the same ``step_s`` to the
        clock and busy time and the same ``step_j`` to the energy.  So
        each of those sums takes one closed form for the whole run
        (:func:`~repro.util.stats.repeat_add`, exactly the repeated
        adds), the clock's stopping at the bound.  Block growths inside
        a run are checked in order on the virtual ledger; each one
        changes the occupancy addend from the boundary after it, so the
        occupancy integral takes one closed form per growth.

        Returns True when it handled the step chain (the next ``_STEP``
        event is already scheduled); False to fall back to the
        single-step path.
        """
        scheduler = pod.scheduler
        if scheduler.draft_tokens > 0:
            # Speculative headroom skews the block-growth geometry the
            # lane replays; keep specdec runs on the single-step path.
            return False
        active = scheduler.active
        paged = scheduler.reservation is Reservation.PAGED
        # Boundaries until some sequence finishes or parks; boundary i
        # is quiet iff i < quiet (block growth is carried inside the
        # span, see below).
        boundaries = 1 << 60
        total = 0  # summed context_len, for the batch-mean step cost
        for entry in active:
            if entry.prefill_remaining > 0 or entry.first_token_s is None:
                return False
            request = entry.request
            done = entry.tokens_done
            # Trigger: the sequence parks at its next tool-call pause
            # (a fixed token index, strictly before its finish and
            # strictly after ``done``) or else finishes.
            pauses = request.tool_pauses
            taken = entry.pauses_taken
            stop = pauses[taken][0] if taken < len(pauses) else request.decode_len
            quiet = stop - done - 1  # parks or finishes at this one
            if quiet < boundaries:
                boundaries = quiet
            total += request.prompt_len + done + 1
        if boundaries < 2:
            return False  # nothing to batch over the single-step path
        bound, walkers = self._quiet_horizon(now, pod)
        if bound <= now:
            return False  # another actor acts at this very timestamp
        # Growths are summed on a virtual ledger and applied to the
        # store only once the span commits, so the tie-guard rollback
        # below never has to un-grow a lease.
        growths = GrowthSchedule.due(scheduler, boundaries) if paged else None
        applied: list[tuple[int, list]] = []
        batch = len(active)
        occupancy = scheduler.kv_occupancy
        step_cost = pod.step_cost
        cache = pod._step_cache
        bucket = STEP_CONTEXT_BUCKET
        busy_s = pod.busy_s
        energy_j = pod.energy_j
        kv_occupancy_s = pod.kv_occupancy_s
        # ``total`` grows by exactly ``batch`` per boundary, so the
        # remainder of total/batch never changes and the rounded batch
        # mean increments by exactly 1 -- except at an exact .5
        # remainder, where round()'s half-even tie-break follows the
        # parity of the integer part.  (The true fraction sits at least
        # 1/(2*batch) from .5 otherwise, far beyond double rounding
        # error at these magnitudes, so the increment is exact.)
        quotient, remainder = divmod(total, batch)
        tie = 2 * remainder == batch
        mean = quotient + (quotient & 1) if tie else max(1, round(total / batch))
        t = now
        steps = 0
        trigs: tuple[float, ...] = ()
        prev_t = prev_busy = prev_energy = prev_kvocc = 0.0
        # (t, busy, energy, occupancy integral) at the start of the
        # last uniform run, its occupancy addends, and its length while
        # it is the last thing replayed (0 once a per-boundary step
        # follows it).
        run_start: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
        kv_runs: list[tuple[float, int]] = []
        run_len = 0
        next_growth = growths.next if growths else 1 << 60
        # Above the context bucket the (batch, context) cost key only
        # changes every ``bucket`` boundaries; fetch once per run
        # instead of per boundary.
        cost = None
        step_s = 0.0  # latency of the last fetched cost (none yet)
        cost_until = -1  # first mean value needing a re-fetch
        while steps < boundaries and t < bound:
            # A walker's clock is a lower bound on its pod's trigger
            # time; our boundary at ``t`` is safely quiet while every
            # walker sits strictly ahead of it.  Advance any that
            # lag, ahead to our span's projected end at the last
            # fetched cost (just to ``t`` before the first fetch):
            # walking further only finds the same trigger sooner, and a
            # walker kept a boundary ahead would cut every uniform run
            # after one boundary.  A walk that completes yields that
            # pod's exact trigger time, which then caps the span like
            # any event.
            if walkers:
                for walker in walkers:
                    if walker[1] and walker[0] <= t:
                        reach = min(bound, t + (boundaries - steps) * step_s)
                        trig = self._advance_walk(walker, reach)
                        if trig is not None:
                            trigs += (trig,)
                            if trig < bound:
                                bound = trig
                if t >= bound:
                    break
            pending = None
            if steps == next_growth and growths is not None:
                # This boundary grows KV blocks; a loud growth (see
                # ``GrowthSchedule.take``) ends the span before it.
                pending = growths.take(steps)
                if pending is None:
                    break
                next_growth = growths.next
                grown = growths.occupancy()
            prev_t = t
            prev_busy = busy_s
            prev_energy = energy_j
            prev_kvocc = kv_occupancy_s
            run_len = 0
            if mean >= cost_until:
                context = mean if mean <= bucket else mean // bucket * bucket
                cost = cache.get((batch, context))
                if cost is None:
                    cost = step_cost(batch, mean)
                cost_until = mean + 1 if mean < bucket else context + bucket
            step_s, step_j = cost
            kv_occupancy_s += occupancy * step_s
            busy_s += step_s
            energy_j += step_j
            t += step_s
            steps += 1
            if pending is not None:
                applied.append((steps - 1, pending))
                # Occupancy integrand for the boundaries *after* the
                # growth; the growing boundary itself was metered above
                # at the pre-growth value, as in the single-step path.
                occupancy = grown
            if tie:
                quotient += 1
                mean = quotient + (quotient & 1)
            else:
                mean += 1
            if mean >= cost_until:
                continue  # the next boundary re-fetches: no run
            # Uniform run up to the next cost-key change, the trigger,
            # the bound or the first walker clock.  In mean units the
            # cost holds for ``cost_until - mean`` boundaries; at a tie
            # the mean is the even one of ``quotient``/``quotient + 1``,
            # which stays below ``cost_until`` until ``quotient``
            # reaches ``cost_until - 1 + (cost_until & 1)``.
            end = steps + (
                cost_until - 1 + (cost_until & 1) - quotient if tie
                else cost_until - mean
            )
            if boundaries < end:
                end = boundaries
            lim = bound
            for walker in walkers:
                if walker[1] and walker[0] < lim:
                    lim = walker[0]
            if end <= steps or t >= lim:
                continue
            # The clock's closed form stops before the add that finds it
            # at ``lim``.  A growth inside the run meters its own
            # boundary at the pre-growth occupancy, as the per-boundary
            # step does; a loud one ends the run before its boundary,
            # and the next pass finds it loud and ends the span.
            run_start = (t, busy_s, energy_j, kv_occupancy_s)
            t, run_len = repeat_add_below(t, step_s, end - steps, lim)
            end = steps + run_len
            kv_runs = []  # (addend, boundaries) of the occupancy integral
            first = steps
            while next_growth < end and growths is not None:
                g = next_growth
                pending = growths.take(g)
                if pending is None:
                    end = g
                    run_len = g - steps
                    t = repeat_add(run_start[0], step_s, run_len)
                    break
                applied.append((g, pending))
                kv_runs.append((occupancy * step_s, g + 1 - first))
                first = g + 1
                occupancy = growths.occupancy()
                next_growth = growths.next
            kv_runs.append((occupancy * step_s, end - first))
            for a, count in kv_runs:
                kv_occupancy_s = repeat_add(kv_occupancy_s, a, count)
            busy_s = repeat_add(busy_s, step_s, run_len)
            energy_j = repeat_add(energy_j, step_j, run_len)
            steps = end
            if tie:
                quotient += run_len
                mean = quotient + (quotient & 1)
            else:
                mean += run_len
        if steps == 0:
            return False  # first boundary already capped
        # Exact-tie guard: pushing our next _STEP at the very timestamp
        # of a walked pod's *trigger* boundary would give our event a
        # lower seq than that pod's future push -- the single-step path
        # pushes from the previous boundary instead, so the tie could
        # resolve the other way.  Back off one boundary (the replayed
        # boundary then runs the single-step path, whose push order
        # matches the original exactly).  Quiet-boundary and already-
        # heaped ties are order-insensitive and need no guard.
        if t in trigs or self._walk_tie(walkers, t):
            if steps < 2:
                return False
            steps -= 1
            if run_len:
                # The dropped boundary closed a uniform run, which kept
                # no per-boundary saves: replay the run from its start,
                # one boundary short, occupancy addends included.
                t, busy_s, energy_j, kv_occupancy_s = run_start
                short = run_len - 1
                t = repeat_add(t, step_s, short)
                busy_s = repeat_add(busy_s, step_s, short)
                energy_j = repeat_add(energy_j, step_j, short)
                for a, count in kv_runs:
                    count = min(count, short)
                    kv_occupancy_s = repeat_add(kv_occupancy_s, a, count)
                    short -= count
            else:
                t = prev_t
                busy_s = prev_busy
                energy_j = prev_energy
                kv_occupancy_s = prev_kvocc
            if applied and applied[-1][0] == steps:
                applied.pop()  # the dropped boundary's growths, unapplied
        pod.busy_s = busy_s
        pod.energy_j = energy_j
        pod.kv_occupancy_s = kv_occupancy_s
        for entry in active:
            entry.tokens_done += steps
        scheduler.owed_tokens -= batch * steps
        if applied:
            # Replay the committed growths on the store for real.  No
            # admission, release or reclaim touched the pool inside the
            # span, so the deferred ``grow`` calls see the same running
            # ledger value, in the same order, as in-boundary growth
            # would have -- bit-identical floats.
            store = scheduler.store
            for _idx, pending in applied:
                for gentry in pending:
                    gentry.blocks_held += 1
                    gentry.kv_reserved_bytes = (
                        gentry.blocks_held * gentry.bytes_per_block
                    )
                    store.grow(gentry.request.request_id)
        self._push(t, _STEP, pod)
        return True

    def _quiet_horizon(
        self, now: float, pod: DecodePod
    ) -> tuple[float, list[list]]:
        """How far ``pod``'s bulk lane may run before another actor can
        observably act: ``(horizon, quiet_walkers)``.

        Every pending non-``_STEP`` event is a hard cap (read off the
        ``_hard_events`` mirror heap, O(1) amortized).  The pending
        ``_STEP`` of *another* decode pod is soft: if that pod is
        provably quiet (nothing admissible -- checked with the pure
        probes, every sequence mid-decode, no trigger at its very next
        boundary), only its own first *trigger* boundary caps the span,
        not its quiet boundaries in between.  Quiet boundaries of
        different pods commute -- they touch disjoint pod-local state,
        and the prefill drain the caller found blocked stays blocked
        until the horizon -- so leaping over them cannot change any
        digest-visible ordering.  Each quiet pod
        contributes a resumable walk state.  The caller advances it
        lazily: only once the caller's clock catches up with the walk's,
        and then ahead to the caller's projected span end, never past
        the horizon.  So walk work is bounded by the span the caller
        expects to commit rather than by the other pod's (possibly far
        later) trigger.
        """
        calendar = self._calendar
        if calendar.open_batch_pending():
            return -math.inf, []
        hard = self._hard_events
        while hard and hard[0] <= now:
            heapq.heappop(hard)  # already dispatched (times are unique-ish)
        horizon = hard[0] if hard else math.inf
        walkers: list[list] = []
        for other in self.decode_pods:
            if other is pod or not other.stepping:
                continue
            when = other.step_when
            if when >= horizon:
                continue  # nothing of it can happen inside the horizon
            state = self._pod_quiet_state(other, when)
            if state is None:  # observable next boundary: hard cap
                horizon = when
            elif state:  # non-empty batch; [] parks silently, no cap
                walkers.append(state)
        return horizon, walkers

    @pure_probe
    def _pod_quiet_state(self, pod: DecodePod, start: float) -> list | None:
        """Resumable quiet-chain walk state for ``pod``'s pending step
        chain beginning at ``start``; ``None`` when its next boundary
        is observable (admission, first token, tool-call park or
        finish), ``[]`` when the chain parks (empty batch,
        empty-or-blocked queue).  A pending tool pause bounds the walk
        like a finish does: its token index is fixed, so the walk ends
        at it as the pod's trigger.  Pure:
        probes use the side-effect-free admission mirrors, block
        growths are simulated on a virtual pool ledger, and a blocked
        queue stays blocked across the walked boundaries because
        nothing in a quiet span frees pod memory (growth only takes
        more)."""
        scheduler = pod.scheduler
        if scheduler.draft_tokens > 0:
            return None  # see the matching guard in _bulk_quiet_steps
        if not scheduler.would_admit_nothing():
            return None
        active = scheduler.active
        if not active:
            return []
        paged = scheduler.reservation is Reservation.PAGED
        boundaries = 1 << 60
        total = 0
        for entry in active:
            if entry.prefill_remaining > 0 or entry.first_token_s is None:
                return None
            request = entry.request
            done = entry.tokens_done
            pauses = request.tool_pauses
            taken = entry.pauses_taken
            stop = pauses[taken][0] if taken < len(pauses) else request.decode_len
            quiet = stop - done - 1  # next park or finish, as in the lane
            if quiet < boundaries:
                boundaries = quiet
            total += request.prompt_len + done + 1
        if boundaries < 1:
            return None
        # A fitting block growth is quiet; one that would reclaim or
        # preempt is the pod's trigger.
        growths = GrowthSchedule.due(scheduler, boundaries) if paged else None
        batch = len(active)
        quotient, remainder = divmod(total, batch)
        tie = 2 * remainder == batch
        mean = quotient + (quotient & 1) if tie else max(1, round(total / batch))
        return [start, boundaries, quotient, mean, tie, batch,
                pod._step_cache, pod.step_cost, 0, growths]

    @staticmethod
    def _advance_walk(state: list, limit: float) -> float | None:
        """Advance a quiet-chain walk until its clock passes ``limit``
        or its trigger boundary is reached; returns the exact trigger
        time once all quiet boundaries are consumed, else ``None``
        (trigger strictly later than the walk's updated clock).

        Segmented like :meth:`_bulk_quiet_steps`: after each
        per-boundary step, the boundaries up to the next cost-key
        change or the trigger only add the same latency, so the clock
        takes one closed form per run (stopped before the add that
        finds it past ``limit``), and growths inside the run are
        checked in order; a loud one ends the run before its boundary.
        The walk state advances by exactly the boundaries walked, so a
        walk stopped inside such a run resumes where it stopped, and
        the clock is the same float sum however the walk is split
        across calls."""
        (t, remaining, quotient, mean, tie, batch, cache, step_cost,
         bidx, growths) = state
        bucket = STEP_CONTEXT_BUCKET
        next_growth = growths.next if growths else 1 << 60
        cost = None
        cost_until = -1  # see the run-length fetch in _bulk_quiet_steps
        while remaining and t <= limit:
            if bidx == next_growth:
                # KV block growths at this boundary: a loud one (see
                # ``GrowthSchedule.take``) is the chain's trigger.
                if growths.take(bidx) is None:
                    remaining = 0
                    break
                next_growth = growths.next
            if mean >= cost_until:
                context = mean if mean <= bucket else mean // bucket * bucket
                cost = cache.get((batch, context))
                if cost is None:
                    cost = step_cost(batch, mean)
                cost_until = mean + 1 if mean < bucket else context + bucket
            step_s = cost[0]
            t += step_s
            remaining -= 1
            bidx += 1
            if tie:
                quotient += 1
                mean = quotient + (quotient & 1)
            else:
                mean += 1
            if mean >= cost_until:
                continue
            # Uniform run (run length as in _bulk_quiet_steps).
            n = (
                cost_until - 1 + (cost_until & 1) - quotient if tie
                else cost_until - mean
            )
            if remaining < n:
                n = remaining
            start = t
            t, n = repeat_add_below(t, step_s, n, limit, inclusive=True)
            while next_growth < bidx + n:
                if growths.take(next_growth) is None:
                    n = next_growth - bidx
                    t = repeat_add(start, step_s, n)
                    break
                next_growth = growths.next
            if n > 0:
                remaining -= n
                bidx += n
                if tie:
                    quotient += n
                    mean = quotient + (quotient & 1)
                else:
                    mean += n
        state[0] = t
        state[1] = remaining
        state[2] = quotient
        state[3] = mean
        state[8] = bidx
        return t if not remaining else None

    def _walk_tie(self, capped: list[list], t: float) -> bool:
        """Does any capped quiet-chain walk trigger at exactly ``t``?
        Resumes each walk just far enough to decide."""
        for state in capped:
            if state[0] <= t and self._advance_walk(state, t) == t:
                return True
        return False

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
                and not pod.scheduler.parked
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
            decode_pressure = left_sum(
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
                template = self.prefill_pods[0]
                pod = PrefillPod(
                    pod_id=f"prefill{len(self.prefill_pods)}",
                    platform=template.platform,
                    weight_dtype=self.config.weight_dtype,
                    kv_dtype=self.config.kv_dtype,
                    active=False,
                    cost_cache=template.cost_cache,
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
        obs = self._obs
        if obs is not None:
            obs.count("scale_up")

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
        obs = self._obs
        if obs is not None:
            obs.count("scale_down")
        self._finish_drains(now)  # an idle victim parks immediately
        return True

    # -- run -----------------------------------------------------------
    def _stall_report(self, records: list[RequestRecord]) -> str:
        """The :class:`SimulationStalled` message: where each of up to
        ten stranded requests last stood, then every decode pod's
        queue, batch and parked counts and its KV store's byte ledgers
        (leased, shared and cached against the pod budget, then host)."""
        stage: dict[int, str] = {}
        for job in self._queue:
            stage[job.record.request.request_id] = (
                f"queued at {job.enqueued_s!r} s"
            )
        for pod in self.decode_pods:
            scheduler = pod.scheduler
            for queued in scheduler.queue:
                record = self._records_by_id[queued.request.request_id]
                stage[queued.request.request_id] = (
                    f"hand-off to {pod.pod_id} at {record.transfer_end_s!r} s"
                )
            for entry in scheduler.active:
                stage[entry.request.request_id] = (
                    f"admitted on {pod.pod_id} at {entry.admitted_s!r} s"
                )
            for entry in scheduler.parked:
                stage[entry.request.request_id] = (
                    f"parked on {pod.pod_id} at token {entry.tokens_done}"
                )
        stranded = [r for r in records if not (r.done or r.rejected or r.shed)]
        lines = [
            f"simulation stalled: {len(stranded)} of {len(records)} requests "
            f"unresolved (tally {self._unresolved}), {len(self._queue)} "
            "jobs left in the prefill queue"
        ]
        for record in stranded[:10]:
            request_id = record.request.request_id
            where = stage.get(request_id) or (
                f"prefill at {record.prefill_start_s!r} s, "
                "then in no queue, batch or parked list"
            )
            lines.append(f"  request {request_id}: {where}")
        if len(stranded) > 10:
            lines.append(f"  ... and {len(stranded) - 10} more")
        for pod in self.decode_pods:
            scheduler = pod.scheduler
            store = pod.store
            lines.append(
                f"  {pod.pod_id}: queue {len(scheduler.queue)}, "
                f"batch {len(scheduler.active)}, "
                f"parked {len(scheduler.parked)}, "
                f"KV {store.bytes_in_use!r} leased + "
                f"{store.shared_bytes!r} shared + "
                f"{store.cached_bytes!r} cached of {store.budget_bytes!r} B, "
                f"host {store.host_bytes!r} B"
            )
        return "\n".join(lines)

    def run(self, requests: list[Request]) -> ClusterReport:
        """Simulate until every submitted request completes (or is
        rejected) and all pods drain."""
        self._build_pods()
        self._calendar = EventCalendar()
        #: Mirror min-heap of the *times* of pending non-``_STEP``
        #: events (lazily pruned).  The bulk decode lane's quiet
        #: horizon needs "earliest event that is not another pod's
        #: step" -- the calendar's heap can only peek its overall
        #: minimum, and scanning it is O(pending arrivals).
        self._hard_events: list[float] = []
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
        #: Opt-in telemetry: a fresh recorder per run (None = off).
        self._obs = (
            TraceRecorder(self.config.trace)
            if self.config.trace is not None
            else None
        )
        records = [RequestRecord(request) for request in requests]
        #: Scheduler entries resolve to their record by request id, and
        #: pinned prefixes and block-store leases are keyed by it too.
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

        last_time = run_loop(
            self._calendar,
            self._handlers(),
            stale=self._stale,
            after=self._drain_prefill_queue,
            observe=self._observe_event if self._obs is not None else None,
        )

        if self._queue or self._unresolved != 0:
            raise SimulationStalled(self._stall_report(records))
        obs = self._obs
        trace = timeline = None
        if obs is not None:
            # Final forced sample: the timeline covers the full run
            # window even when the last period had not elapsed.
            obs.finish(last_time, self._gauges(last_time))
            trace = obs.recording()
            if obs.config.metrics:
                timeline = obs.timeline
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
            trace=trace,
            timeline=timeline,
        )


def simulate(config: ClusterConfig, requests: list[Request]) -> ClusterReport:
    """One-shot convenience wrapper around :class:`ClusterSim`."""
    return ClusterSim(config).run(requests)
