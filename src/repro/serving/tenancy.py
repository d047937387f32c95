"""Multi-tenant fleet operations: SLO classes, admission control, and
the autoscaling control loop's configuration.

The paper's closing argument is a datacenter-operator story: one
disaggregated fleet serving *heterogeneous* traffic -- interactive chat
next to agentic fan-out next to offline batch -- at ISO-TDP.  This
module supplies the operator-side vocabulary the fleet simulator
(:mod:`repro.serving.cluster`) consumes:

- a :class:`TenantSpec` names one tenant's traffic, its
  :class:`SloClass` (per-class TTFT/TPOT targets), its scheduling
  priority, and its *admission weight* (its share of the shed budget
  under pressure);
- :class:`AdmissionConfig` + :class:`TokenBucket` implement load
  shedding: when the fleet-pressure signal (prefill queue depth, KV
  occupancy) says projected goodput is collapsing, arrivals must pay
  decode tokens from their tenant's bucket or be dropped -- so the
  lowest-value work (smallest admission weight) is shed first and the
  interactive tenants keep their SLO;
- :class:`AutoscalerConfig` drives the control loop: on a fixed control
  period the cluster spins pods up/down (or reallocates between the
  prefill and decode pools when ``max_total_pods`` caps the fleet)
  against the per-pool pressure bands;
- :class:`CostModel` prices pod-hours so elasticity is scored in
  dollars: a report's ``usd_per_mtok`` is the number the operator
  actually buys hardware on;
- :class:`TenantReport` is the per-tenant slice of a
  :class:`~repro.serving.cluster.ClusterReport` -- SLO attainment
  against the tenant's own class targets, shed counts, and token share
  -- and :func:`fairness` condenses the fleet into the max/min
  attainment ratio.

Everything here is pure configuration and accounting; the event loop
that acts on it lives in :mod:`repro.serving.cluster`.  All knobs
default *off* (no tenants, no shedding, no autoscaler), in which case
the simulator is bit-identical to the single-tenant fleet it grew from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from typing import Any


# ----------------------------------------------------------------------
# SLO classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloClass:
    """Per-class latency targets a tenant's completions are scored
    against.

    A completed request *attains* its tenant's SLO when every finite
    target holds: TTFT (arrival to first token), TPOT (steady decode
    pace), and end-to-end latency.  ``float("inf")`` disables a target;
    the :data:`BATCH` class disables all three, so attainment
    degenerates to "it completed" (shed and rejected work still counts
    against the tenant's offered total).
    """

    name: str
    ttft_s: float = float("inf")
    tpot_s: float = float("inf")
    e2e_s: float = float("inf")

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SloClass needs a non-empty name")
        for label, value in (
            ("ttft_s", self.ttft_s),
            ("tpot_s", self.tpot_s),
            ("e2e_s", self.e2e_s),
        ):
            if not value > 0:
                raise ValueError(f"{label} must be positive, got {value}")

    def attained(self, ttft_s: float, tpot_s: float, e2e_s: float) -> bool:
        """Does a completion with these latencies meet the class?"""
        return (
            ttft_s <= self.ttft_s
            and tpot_s <= self.tpot_s
            and e2e_s <= self.e2e_s
        )


#: Human-in-the-loop chat: tight first-token and pacing targets.
INTERACTIVE = SloClass("interactive", ttft_s=3.0, tpot_s=0.2)
#: Tool-calling / agentic work: a human is waiting, but on the loop,
#: not in it.
STANDARD = SloClass("standard", ttft_s=10.0, tpot_s=0.5)
#: Offline batch: nobody is waiting; completion is the only target.
BATCH = SloClass("batch")


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its traffic, SLO class, priority, and admission
    weight.

    ``traffic`` is the tenant's
    :class:`~repro.serving.requests.TrafficSpec` (typed loosely because
    that module imports this one).  ``priority`` is *added* to the
    priority of every request the tenant generates (the paged preempter
    and the PRIORITY prefill policy act on it); ``weight`` sets the
    tenant's share of the admission token bucket when the fleet sheds
    load -- double the weight, double the decode tokens the tenant may
    push through a saturated fleet.

    The empty name is reserved for the *anonymous* default tenant that
    a flat (single-mix) :class:`~repro.serving.requests.TrafficSpec`
    denotes; rosters require every tenant to be named
    (:func:`check_roster_names`).
    """

    name: str
    traffic: Any = None
    slo: SloClass = STANDARD
    priority: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


def check_roster_names(tenants: Iterable[TenantSpec]) -> None:
    """Reject a tenant roster whose names repeat or are empty."""
    names = [tenant.name for tenant in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    if any(not name for name in names):
        raise ValueError(
            "roster tenants need non-empty names (the empty name is "
            "the anonymous single-tenant default)"
        )


# ----------------------------------------------------------------------
# Admission control / load shedding
# ----------------------------------------------------------------------
@dataclass
class TokenBucket:
    """Deterministic token bucket: refills continuously at ``rate``
    tokens/s up to ``capacity``; :meth:`take` either pays in full or
    leaves the bucket untouched (no partial admission)."""

    rate: float
    capacity: float
    tokens: float = field(init=False)
    _t: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not self.rate > 0 or not self.capacity > 0:
            raise ValueError("token bucket rate and capacity must be > 0")
        self.tokens = self.capacity  # start full: calm fleets shed nothing

    def level(self, now: float) -> float:
        """Read-only balance at ``now``: the refill is *computed*, not
        settled, so the bucket's float state is untouched.  This is the
        telemetry read -- :meth:`peek` settles the refill, and settling
        at a sample boundary would split the refill arithmetic into a
        different float-addition order than the untraced run."""
        if now <= self._t:
            return self.tokens
        return min(self.capacity, self.tokens + self.rate * (now - self._t))

    def peek(self, now: float) -> float:
        """Balance after refilling to ``now`` (no state change beyond
        the refill itself)."""
        if now > self._t:
            self.tokens = min(
                self.capacity, self.tokens + self.rate * (now - self._t)
            )
            self._t = now
        return self.tokens

    def take(self, now: float, amount: float) -> bool:
        """Pay ``amount`` tokens if the balance covers it."""
        if self.peek(now) >= amount:
            self.tokens -= amount
            return True
        return False


@dataclass(frozen=True)
class AdmissionConfig:
    """Load shedding: when fleet pressure says goodput is about to
    collapse, arrivals must pay their tenant's token bucket or be
    dropped at the door.

    Fleet pressure is ``max(queue_term, kv_term)`` where the queue term
    is prefill-queue jobs per active prefill pod over
    ``queue_depth_scale`` and the KV term is the mean decode-pod pool
    occupancy -- the two signals that lead a goodput collapse (work
    piling up in front of prefill; no blocks left to grow batches).
    Below ``pressure_floor`` every feasible arrival is admitted free
    and the buckets only refill, so a calm fleet is untouched by
    admission control.

    Each tenant's bucket refills at ``weight * tokens_per_s_per_weight``
    decode tokens/s with ``burst_s`` seconds of burst capacity; an
    arrival is charged its ``decode_len`` (the decode pool is the
    scarce resource the paper sizes fleets on).
    """

    enabled: bool = False
    pressure_floor: float = 0.75
    queue_depth_scale: float = 8.0
    tokens_per_s_per_weight: float = 1500.0
    burst_s: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.pressure_floor:
            raise ValueError("pressure_floor must be positive")
        if not self.queue_depth_scale > 0:
            raise ValueError("queue_depth_scale must be positive")
        if not self.tokens_per_s_per_weight > 0:
            raise ValueError("tokens_per_s_per_weight must be positive")
        if not self.burst_s > 0:
            raise ValueError("burst_s must be positive")

    def bucket(self, weight: float) -> TokenBucket:
        """A fresh bucket for one tenant of ``weight``."""
        rate = self.tokens_per_s_per_weight * weight
        return TokenBucket(rate=rate, capacity=rate * self.burst_s)


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalerConfig:
    """The fleet control loop: every ``control_period_s`` the cluster
    reads per-pool pressure and scales.

    Prefill pressure is queued jobs per active prefill pod over
    ``queue_depth_scale``; decode pressure is mean KV-pool occupancy
    across routable decode pods.  A pool above ``scale_up_pressure``
    gains a pod (reactivating a drained one when available -- it still
    holds weights -- else cloning the template spec); below
    ``scale_down_pressure`` it drains one: prefill pods finish their
    prompt and go cold, decode pods stop taking new routes and
    deactivate once their last sequence completes.  A new pod serves
    after ``provision_s`` (weights push / model load).

    ``max_total_pods`` models a fixed hardware budget: when the hot
    pool is at the cap, a pod is *reallocated* -- the cold pool drains
    one so the hot pool can grow -- which is the
    prefill-vs-decode elasticity lever the RPU fleet story turns on.
    """

    control_period_s: float = 1.0
    scale_up_pressure: float = 0.8
    scale_down_pressure: float = 0.25
    queue_depth_scale: float = 4.0
    min_prefill_pods: int = 1
    max_prefill_pods: int = 8
    min_decode_pods: int = 1
    max_decode_pods: int = 8
    max_total_pods: int | None = None
    provision_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.control_period_s > 0:
            raise ValueError("control_period_s must be positive")
        if not 0 <= self.scale_down_pressure < self.scale_up_pressure:
            raise ValueError(
                "need 0 <= scale_down_pressure < scale_up_pressure"
            )
        if not self.queue_depth_scale > 0:
            raise ValueError("queue_depth_scale must be positive")
        for label, lo, hi in (
            ("prefill", self.min_prefill_pods, self.max_prefill_pods),
            ("decode", self.min_decode_pods, self.max_decode_pods),
        ):
            if not 1 <= lo <= hi:
                raise ValueError(
                    f"need 1 <= min_{label}_pods <= max_{label}_pods"
                )
        if self.max_total_pods is not None and self.max_total_pods < (
            self.min_prefill_pods + self.min_decode_pods
        ):
            raise ValueError(
                "max_total_pods must cover both pools' minimums"
            )
        if self.provision_s < 0:
            raise ValueError("provision_s must be >= 0")


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler action, for the report's audit trail."""

    t_s: float
    pool: str  # "prefill" | "decode"
    action: str  # "up" | "down"
    pod_id: str
    #: The pool pressure that triggered the action.
    pressure: float


# ----------------------------------------------------------------------
# Cost
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostModel:
    """Pod-hour pricing, keyed by platform name.

    Defaults are deliberately round: the comparisons that matter are
    *ratios* (RPU-heavy vs GPU-heavy fleets at ISO-TDP, elastic vs
    static), not absolute cloud list prices.
    """

    default_usd_per_pod_hour: float = 3.0
    usd_per_pod_hour: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.default_usd_per_pod_hour >= 0:
            raise ValueError("default_usd_per_pod_hour must be >= 0")
        for name, rate in self.usd_per_pod_hour.items():
            if not rate >= 0:
                raise ValueError(f"rate for {name!r} must be >= 0")

    def rate(self, platform_name: str) -> float:
        """$/pod-hour for one platform."""
        return self.usd_per_pod_hour.get(
            platform_name, self.default_usd_per_pod_hour
        )


# ----------------------------------------------------------------------
# Per-tenant accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantReport:
    """One tenant's slice of a cluster run."""

    name: str
    slo: SloClass
    offered: int
    completed: int
    shed: int
    rejected: int
    #: Completions meeting every finite target of the tenant's class.
    attained: int
    decode_tokens: int
    ttft_p95_s: float
    mean_tpot_s: float

    @property
    def attainment(self) -> float:
        """SLO attainment against *offered* load: shed and rejected
        requests count against the tenant, or shedding would look
        free."""
        return self.attained / self.offered if self.offered else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


def fairness(attainments: Mapping[str, float] | list[float]) -> float:
    """Max/min SLO-attainment ratio across tenants (1.0 = perfectly
    fair; ``inf`` when some tenant was starved to zero while another
    was served).  Degenerate inputs (no tenants, all zero) report 1.0
    -- there is nobody to be unfair to."""
    values = list(
        attainments.values() if isinstance(attainments, Mapping)
        else attainments
    )
    if not values or max(values) == 0.0:  # simlint: ok[digest-safety] zero-attainment sentinel (0/n is exact)
        return 1.0
    low = min(values)
    return float("inf") if low == 0.0 else max(values) / low  # simlint: ok[digest-safety] exact zero sentinel
