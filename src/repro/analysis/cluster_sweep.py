"""Fleet-scale sweeps: one engine, :func:`sweep`, over
:class:`repro.api.Scenario`, plus the named sweeps behind the fleet
benchmarks, each a base scenario and its axes.

``sweep(base, *axes)`` runs ``base`` once per point of the axes'
product and returns ``(scenario, report)`` rows, where ``scenario`` is
the fully overridden :class:`~repro.api.Scenario` that produced the
:class:`~repro.serving.cluster.ClusterReport`::

    from repro.analysis.cluster_sweep import sweep
    from repro.api import Scenario, TrafficSpec
    from repro.models import LLAMA3_70B
    from repro.serving import Reservation

    rows = sweep(
        Scenario(LLAMA3_70B, traffic=TrafficSpec(rate_rps=2.0, decode_mean=4096)),
        [{"kv_budget_bytes": gb * 1e9} for gb in (3.0, 4.0)],
        [{"reservation": Reservation.FULL}, {"reservation": Reservation.PAGED}],
    )
    for point, report in rows:
        print(point.kv_budget_bytes, point.reservation.value, report.goodput)

- An axis is a list of override mappings.  One mapping may set several
  ``Scenario`` fields at once (a colocated GPU pool against an ISO-TDP
  RPU pool is two fields); ``traffic.<field>`` keys override
  :class:`~repro.serving.requests.TrafficSpec` fields.
- Points run in :func:`itertools.product` order, first axis outermost.
- Consecutive points with equal traffic share one generated request
  list, so the fleets they compare see identical arrivals.  Seeds are a
  ``traffic.seed`` axis; metrics are read off the reports.

The named sweeps:

- **throughput_latency_curve**: offered load (RPS) on a fixed fleet --
  TTFT tails and goodput degrade as the decode pool saturates;
- **pod_scaling_curve**: decode-pod count at fixed offered load --
  delivered tokens/s grows until the pool absorbs the load;
- **gpu_vs_disaggregated**: the paper's Section I claim at fleet scale
  -- identical prefill pods, and a decode pool of GPU groups or of RPU
  boards sized to the *same TDP* (``rpu_iso_tdp``), on reasoning
  traffic;
- **reservation_sweep**: FULL vs PAGED KV reservation at equal KV
  budget -- full-context reservation strands the budget on 2k/4k
  reasoning traffic, paging turns it into batch depth;
- **prefix_hit_sweep**: prefix caching off vs on at each sharing level
  of agentic fan-out traffic -- hit rate, TTFT and goodput at equal
  budget;
- **prefill_policy_sweep**: the arrival-bound FIFO baseline, then every
  late-bound :class:`~repro.serving.cluster.PrefillPolicy`, at each
  offered load on one scarce prefill pod -- the recovered hit rate
  widens as the prefill queue deepens;
- **swap_crossover_sweep**: recompute (NEVER), swap (ALWAYS) and the
  AUTO cost model at each host-link bandwidth under a tight block pool;
  :func:`swap_costs` gives the analytic per-victim costs that cross
  over as the link slows.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro.api import PodGroup, Scenario, TrafficSpec
from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_cache_bytes
from repro.platform import KV_TRANSFER_BYTES_PER_S
from repro.serving.cluster import ClusterReport, ClusterSim, PrefillPolicy
from repro.serving.kvstore import SwapPolicy, swap_recompute_costs
from repro.serving.requests import Request
from repro.serving.scheduler import Reservation

#: ``(scenario, report)`` per sweep point, in run order.
Rows = list[tuple[Scenario, ClusterReport]]


def _apply(base: Scenario, overrides: Sequence[Mapping[str, object]]) -> Scenario:
    """``base`` with one value of every axis applied, later axes last."""
    fields: dict[str, object] = {}
    traffic: dict[str, object] = {}
    for mapping in overrides:
        for key, value in mapping.items():
            if key.startswith("traffic."):
                traffic[key.removeprefix("traffic.")] = value
            else:
                fields[key] = value
    if traffic:
        fields["traffic"] = replace(fields.get("traffic", base.traffic), **traffic)
    return replace(base, **fields)


def sweep(base: Scenario, *axes: Sequence[Mapping[str, object]]) -> Rows:
    """Run ``base`` at every point of the product of ``axes``.

    Every point and its fleet are built before the first one simulates,
    so a misspelt field raises ``TypeError`` (naming it) up front, and
    an incoherent knob value -- a serving knob, a ``traffic.<field>``
    one, or a KV budget below one block, which the fleet build checks --
    raises the ``ValueError`` that names its field.
    """
    points = [_apply(base, combo) for combo in itertools.product(*axes)]
    # Each fleet leaves the queue as it runs, so a finished one is freed.
    fleets = deque(ClusterSim(point.cluster()) for point in points)
    rows: Rows = []
    requests: list[Request] = []
    traffic: tuple[ModelConfig, TrafficSpec] | None = None
    for point in points:
        fleet = fleets.popleft()
        if (point.model, point.traffic) != traffic:
            traffic = (point.model, point.traffic)
            requests = point.requests()
        rows.append((point, fleet.run(requests)))
    return rows


def _reasoning(duration_s: float, rate_rps: float = 1.0) -> TrafficSpec:
    """Section IX's reasoning mix: 2k-token prompts, 4k-token chains of
    thought (:func:`repro.serving.requests.reasoning_traffic`)."""
    return TrafficSpec(rate_rps=rate_rps, duration_s=duration_s, decode_mean=4096)


def _fanout(
    duration_s: float, rate_rps: float = 1.0, share_prob: float = 0.0
) -> TrafficSpec:
    """Agentic fan-out traffic: 2k-token prompts in groups of 8 sharing
    3/4 of the founder's prompt, 512-token answers."""
    return TrafficSpec(
        rate_rps=rate_rps,
        duration_s=duration_s,
        decode_mean=512,
        prefix_share_prob=share_prob,
        prefix_frac=0.75,
    )


def throughput_latency_curve(
    model: ModelConfig,
    *,
    rates_rps: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    duration_s: float = 30.0,
) -> Rows:
    """Offered load on 2 GPU prefill + 2 RPU decode pods, one row per
    rate."""
    base = Scenario(model, traffic=_reasoning(duration_s))
    return sweep(base, [{"traffic.rate_rps": rate} for rate in rates_rps])


def pod_scaling_curve(
    model: ModelConfig,
    *,
    pod_counts: Sequence[int] = (1, 2, 4),
    rate_rps: float = 4.0,
    duration_s: float = 20.0,
) -> Rows:
    """Decode-pool size behind 4 prefill pods on identical traffic, one
    row per pod count."""
    base = Scenario(
        model,
        traffic=_reasoning(duration_s, rate_rps),
        prefill=(PodGroup("gpu", count=4),),
    )
    return sweep(base, [{"decode": (PodGroup("rpu", count=n),)} for n in pod_counts])


def gpu_vs_disaggregated(model: ModelConfig, *, duration_s: float = 30.0) -> Rows:
    """Two rows on identical traffic: 2 colocated 2xH100 decode pods
    (free hand-off, generous to the baseline), then 2 RPU decode pods
    sized to the same TDP."""
    base = Scenario(model, traffic=_reasoning(duration_s))
    return sweep(
        base,
        [
            {"decode": (PodGroup("gpu", count=2),), "colocated": True},
            {"decode": (PodGroup("rpu_iso_tdp", count=2),)},
        ],
    )


def reservation_sweep(
    model: ModelConfig,
    *,
    kv_budgets_gb: Sequence[float] = (3.0, 4.0, 6.0),
    duration_s: float = 30.0,
) -> Rows:
    """FULL then PAGED reservation at each KV budget on one decode pod,
    2 RPS of reasoning traffic."""
    base = Scenario(
        model,
        traffic=_reasoning(duration_s, rate_rps=2.0),
        decode=(PodGroup("rpu", count=1),),
    )
    return sweep(
        base,
        [{"kv_budget_bytes": gb * 1e9} for gb in kv_budgets_gb],
        [{"reservation": r} for r in (Reservation.FULL, Reservation.PAGED)],
    )


def prefix_hit_sweep(
    model: ModelConfig,
    *,
    share_probs: Sequence[float] = (0.0, 0.5, 0.9),
    rate_rps: float = 6.0,
    duration_s: float = 20.0,
) -> Rows:
    """Prefix caching off then on at each share probability, one decode
    pod with a 4 GB KV budget."""
    base = Scenario(
        model,
        traffic=_fanout(duration_s, rate_rps),
        decode=(PodGroup("rpu", count=1),),
        kv_budget_bytes=4e9,
    )
    return sweep(
        base,
        [{"traffic.prefix_share_prob": p} for p in share_probs],
        [{"prefix_caching": False}, {"prefix_caching": True}],
    )


def prefill_policy_sweep(
    model: ModelConfig,
    *,
    rates_rps: Sequence[float] = (2.0, 6.0, 10.0),
    duration_s: float = 15.0,
) -> Rows:
    """At each rate: the arrival-bound FIFO baseline (``late_binding``
    off), then each late-bound prefill policy, on one prefill pod
    serving fan-out traffic with sharing probability 0.9."""
    base = Scenario(
        model,
        traffic=_fanout(duration_s, share_prob=0.9),
        prefill=(PodGroup("gpu", count=1),),
        kv_budget_bytes=4e9,
        prefix_caching=True,
    )
    return sweep(
        base,
        [{"traffic.rate_rps": rate} for rate in rates_rps],
        [{"late_binding": False}, *({"prefill_policy": p} for p in PrefillPolicy)],
    )


def swap_crossover_sweep(
    model: ModelConfig,
    *,
    host_link_gbps: Sequence[float] = (400.0, 100.0, 25.0, 6.0, 1.5),
    duration_s: float = 20.0,
) -> Rows:
    """NEVER, ALWAYS then AUTO swapping at each host-link bandwidth,
    one decode pod with a tight 3 GB KV budget, 2 RPS of reasoning
    traffic."""
    base = Scenario(
        model,
        traffic=_reasoning(duration_s, rate_rps=2.0),
        decode=(PodGroup("rpu", count=1),),
        kv_budget_bytes=3e9,
    )
    return sweep(
        base,
        [{"swap_bytes_per_s": gbps * 1e9 / 8.0} for gbps in host_link_gbps],
        [{"swap_policy": policy} for policy in SwapPolicy],
    )


def swap_costs(point: Scenario) -> tuple[float, float]:
    """Analytic ``(swap_s, recompute_s)`` for a representative victim of
    ``point``: its full mean prompt plus half its mean reasoning, over
    the point's ``swap_bytes_per_s`` host link (which must be set).

    Swapping moves the victim's KV over the host link twice;
    recomputing re-pays the context prefill and the hand-off.  Re-prefill
    FLOPs grow superlinearly with context while swap bytes grow linearly,
    so swap wins on fast links and recompute on slow ones.
    """
    context = point.traffic.prompt_mean + point.traffic.decode_mean // 2
    prefill = point.prefill[0].build(point.sizing_workload())[0]
    return swap_recompute_costs(
        point.model,
        context,
        kv_cache_bytes(point.model, context, 1, point.kv_dtype),
        prefill_platform=prefill,
        kv_dtype=point.kv_dtype,
        handoff_bytes_per_s=KV_TRANSFER_BYTES_PER_S,
        host_bytes_per_s=point.swap_bytes_per_s,
    )
