"""Declarative serving scenarios: one dataclass in, one report out.

A :class:`Scenario` binds everything a serving experiment needs --
model, traffic statistics, fleet layout, SLO, and KV reservation policy
-- into a single frozen value whose :meth:`Scenario.run` produces a
:class:`~repro.serving.cluster.ClusterReport`.  Fleets are declared as
:class:`PodGroup` rows naming platforms from the
:mod:`repro.platform` registry (or carrying concrete
:class:`~repro.platform.Platform` instances), so every topology the
unified platform API can express -- the paper's GPU-prefill/RPU-decode
deployment, an all-GPU baseline, an inverted RPU-prefill fleet, a
3-way mixed decode pool -- is configuration::

    from repro.api import PodGroup, Scenario, TrafficSpec
    from repro.models import LLAMA3_70B

    report = Scenario(
        model=LLAMA3_70B,
        traffic=TrafficSpec(rate_rps=1.0, duration_s=30.0),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2, options={"num_cus": 128}),),
    ).run()
    print(report.summary_table())

Named presets cover the paper's motivating workloads:
``chatbot`` (short interactive turns), ``agentic_fanout`` (bursty
tool-calling sub-queries), ``batch_offline`` (throughput-oriented, no
interactive SLO), ``multi_tenant_prod`` (all three as tenants of one
fleet, with admission control and the autoscaler on) and
``reasoning_prod`` (test-time scaling: chain-of-thought bursts with
tool-call pauses plus self-consistency fan-out, ready for a
``specdec=SpecDecConfig(...)`` override); build them via
:func:`scenario`, or register your own with :func:`register_scenario`
(mirroring :func:`repro.platform.register_platform`).

Traffic is a :class:`~repro.serving.requests.TrafficSpec` (re-exported
here): either one flat mix (the ergonomic single-tenant path) or a
roster of :class:`~repro.serving.tenancy.TenantSpec` rows, each
carrying its own nested ``TrafficSpec``, SLO class, priority and
admission weight; each tenant's stream generates independently (own
seed, own trace) and the fleet sees the merged arrival order.  Arrivals
can replay an :class:`~repro.serving.requests.ArrivalTrace` (JSON/CSV
file, diurnal or flash-crowd shape) instead of the Poisson/bursty
samplers.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field, fields
from collections.abc import Callable, Mapping

from repro.models.config import ModelConfig
from repro.models.workload import Workload
from repro.platform import Platform, build_platform
from repro.serving.cluster import (
    ClusterConfig,
    ClusterReport,
    DecodePodSpec,
    PrefillPolicy,
    ServingOptions,
    simulate,
)
from repro.serving.kvstore import SwapPolicy
from repro.serving.requests import (
    ArrivalProcess,
    ArrivalTrace,
    Request,
    TrafficSpec,
)
from repro.serving.scheduler import Policy
from repro.serving.tenancy import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    AdmissionConfig,
    AutoscalerConfig,
    TenantSpec,
)
from repro.util.tables import Table


# ----------------------------------------------------------------------
# Fleet layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PodGroup:
    """``count`` identical pods of one platform.

    ``platform`` is a registry name (``"rpu"``, ``"gpu"``, ``"h100"``,
    ``"h200"``, ``"rpu_iso_tdp"``, or anything registered via
    :func:`repro.platform.register_platform`) with builder ``options``,
    or a concrete :class:`~repro.platform.Platform` instance.
    """

    platform: Platform | str
    count: int = 1
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if isinstance(self.platform, Platform) and self.options:
            raise ValueError("options only apply to registry-named platforms")

    def build(self, sizing: Workload) -> list[Platform]:
        if isinstance(self.platform, Platform):
            pod = self.platform
        else:
            pod = build_platform(self.platform, sizing=sizing, **dict(self.options))
        return [pod] * self.count


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario(ServingOptions):
    """One declarative serving experiment.

    ``run()`` generates the (seeded, replayable) traffic, builds the
    fleet from the pod groups, simulates, and returns the SLO report.
    The serving knobs (policies, KV reservation, SLO, caching and swap,
    admission and autoscaling, specdec, tracing) are the
    :class:`ServingOptions` fields, passed by keyword and checked when
    the scenario is built.
    """

    model: ModelConfig
    traffic: TrafficSpec = TrafficSpec()
    prefill: tuple[PodGroup, ...] = (PodGroup("gpu", count=2),)
    decode: tuple[PodGroup, ...] = (PodGroup("rpu", count=2),)
    _: KW_ONLY
    #: Colocated fleets (decode shares the prefill box) pay no KV
    #: hand-off; disaggregated fleets pay each decode platform's
    #: ingest rate.
    colocated: bool = False
    #: Representative workload the pod builders size memory SKUs and
    #: ISO-TDP scale against.
    sizing_batch: int = 32
    sizing_seq_len: int = 8192
    name: str = ""

    def __post_init__(self) -> None:
        if not self.prefill or not self.decode:
            raise ValueError("scenario needs at least one pod group per role")
        super().__post_init__()

    # -- construction --------------------------------------------------
    def sizing_workload(self) -> Workload:
        return Workload(
            self.model, batch_size=self.sizing_batch, seq_len=self.sizing_seq_len
        )

    def cluster(self) -> ClusterConfig:
        """The fleet this scenario declares, as a simulator config."""
        sizing = self.sizing_workload()
        prefill = tuple(
            pod for group in self.prefill for pod in group.build(sizing)
        )
        decode = tuple(
            DecodePodSpec(pod, self.model)
            for group in self.decode
            for pod in group.build(sizing)
        )
        return ClusterConfig(
            prefill,
            decode,
            kv_transfer_bytes_per_s=float("inf") if self.colocated else None,
            tenants=self.traffic.tenants,
            **{f.name: getattr(self, f.name) for f in fields(ServingOptions)},
        )

    def requests(self) -> list[Request]:
        """The scenario's seeded traffic (replayable)."""
        return self.traffic.requests(self.model)

    # -- execution -----------------------------------------------------
    def run(self, requests: list[Request] | None = None) -> ClusterReport:
        """Simulate the scenario end to end.

        ``requests`` overrides the generated traffic -- pass the same
        list to several scenarios to compare fleets on identical
        arrivals.
        """
        if requests is None:
            requests = self.requests()
        return simulate(self.cluster(), requests)


# ----------------------------------------------------------------------
# Named presets
# ----------------------------------------------------------------------
def chatbot(model: ModelConfig, **overrides: object) -> Scenario:
    """Interactive chat: short prompts, short answers, tight SLO."""
    settings: dict = dict(
        model=model,
        name="chatbot",
        traffic=TrafficSpec(rate_rps=2.0, prompt_mean=512, decode_mean=256),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
    )
    settings.update(overrides)
    return Scenario(**settings)


def agentic_fanout(model: ModelConfig, **overrides: object) -> Scenario:
    """Agentic tool-calling: bursts of sub-queries fanned off shared
    parent prompts (each group of ~8 shares 3/4 of its founder's
    prompt), with prefix caching on so the shared context is computed
    once per pod; SJF keeps the many short jobs flowing during bursts."""
    settings: dict = dict(
        model=model,
        name="agentic_fanout",
        traffic=TrafficSpec(
            rate_rps=4.0,
            process=ArrivalProcess.BURSTY,
            burst_factor=6.0,
            prompt_mean=2048,
            decode_mean=512,
            prefix_share_prob=0.85,
            prefix_fanout=8,
            prefix_frac=0.75,
        ),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        policy=Policy.SJF,
        prefix_caching=True,
    )
    settings.update(overrides)
    return Scenario(**settings)


def batch_offline(model: ModelConfig, **overrides: object) -> Scenario:
    """Offline batch generation: long chains of thought, no interactive
    SLO -- goodput degenerates to the completion rate and the
    interesting metrics are tokens/s and energy/token."""
    settings: dict = dict(
        model=model,
        name="batch_offline",
        traffic=TrafficSpec(rate_rps=1.0, prompt_mean=1024, decode_mean=4096),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        slo_s=float("inf"),
    )
    settings.update(overrides)
    return Scenario(**settings)


def multi_tenant_prod(model: ModelConfig, **overrides: object) -> Scenario:
    """A production multi-tenant fleet: an interactive chat tenant on a
    diurnal arrival trace, an agentic fan-out tenant and an offline
    batch tenant sharing the pods -- with admission control shedding
    lowest-weight work under pressure and the autoscaler reallocating
    pods between the prefill and decode pools on a 1 s control period.
    """
    duration_s = 40.0
    tenants = (
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                prompt_mean=512,
                decode_mean=256,
                seed=11,
                trace=ArrivalTrace.diurnal(2.0, duration_s, seed=11),
            ),
            slo=INTERACTIVE,
            priority=2,
            weight=2.0,
        ),
        TenantSpec(
            "agentic",
            traffic=TrafficSpec(
                prompt_mean=2048,
                decode_mean=512,
                seed=12,
                prefix_share_prob=0.85,
                prefix_fanout=8,
                prefix_frac=0.75,
                trace=ArrivalTrace.diurnal(1.5, duration_s, seed=12),
            ),
            slo=STANDARD,
            priority=1,
            weight=1.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=0.75,
                duration_s=duration_s,
                prompt_mean=1024,
                decode_mean=4096,
                seed=13,
            ),
            slo=BATCH,
            priority=0,
            weight=0.5,
        ),
    )
    settings: dict = dict(
        model=model,
        name="multi_tenant_prod",
        traffic=TrafficSpec(tenants=tenants),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        prefill_policy=PrefillPolicy.PRIORITY,
        prefix_caching=True,
        admission=AdmissionConfig(enabled=True),
        autoscaler=AutoscalerConfig(),
    )
    settings.update(overrides)
    return Scenario(**settings)


def reasoning_prod(model: ModelConfig, **overrides: object) -> Scenario:
    """A production reasoning fleet (test-time scaling): a chain-of-
    thought tenant whose requests decode in multi-turn bursts separated
    by tool-call pauses (parked KV rides the host tier when the cost
    model approves), and a self-consistency tenant fanning 4 samples
    off each prompt as one prefix group.  Section IX's 2k prompt / 4k
    reasoning split, prefix caching on, no interactive SLO.  The
    offered load saturates the decode pool, so effective decode
    throughput -- not arrivals -- is the binding resource; attach a
    :class:`~repro.specdec.SpecDecConfig` via ``specdec=...`` to run
    the same traffic under speculative decoding and watch it lift.
    """
    duration_s = 30.0
    tenants = (
        TenantSpec(
            "cot",
            traffic=TrafficSpec(
                rate_rps=4.8,
                duration_s=duration_s,
                prompt_mean=2048,
                decode_mean=4096,
                seed=21,
                cot_turns=3,
                think_time_mean_s=2.0,
            ),
            slo=BATCH,
            priority=1,
            weight=1.0,
        ),
        TenantSpec(
            "consistency",
            traffic=TrafficSpec(
                rate_rps=3.0,
                duration_s=duration_s,
                prompt_mean=2048,
                decode_mean=1024,
                seed=22,
                self_consistency_n=4,
            ),
            slo=BATCH,
            priority=0,
            weight=1.0,
        ),
    )
    settings: dict = dict(
        model=model,
        name="reasoning_prod",
        traffic=TrafficSpec(tenants=tenants),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        policy=Policy.SJF,
        prefix_caching=True,
        swap_policy=SwapPolicy.AUTO,
        host_kv_bytes=256e9,
        slo_s=float("inf"),
    )
    settings.update(overrides)
    return Scenario(**settings)


#: The scenario registry: name -> builder ``(model, **overrides) ->
#: Scenario``.  Mutate via :func:`register_scenario`; ``SCENARIOS`` is
#: the live dict (kept under its historical name for direct iteration).
SCENARIOS: dict[str, Callable[..., Scenario]] = {}


def register_scenario(
    name: str,
    builder: Callable[..., Scenario],
    *,
    overwrite: bool = False,
) -> None:
    """Register a scenario preset under ``name`` (mirroring
    :func:`repro.platform.register_platform`): ``builder(model,
    **overrides)`` must return a :class:`Scenario`.  Re-registration
    needs an explicit ``overwrite=True``."""
    if not name:
        raise ValueError("scenario name must be non-empty")
    if name in SCENARIOS and not overwrite:
        raise ValueError(
            f"scenario {name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    SCENARIOS[name] = builder


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


register_scenario("chatbot", chatbot)
register_scenario("agentic_fanout", agentic_fanout)
register_scenario("batch_offline", batch_offline)
register_scenario("multi_tenant_prod", multi_tenant_prod)
register_scenario("reasoning_prod", reasoning_prod)


def scenario(name: str, model: ModelConfig, **overrides: object) -> Scenario:
    """Build a named preset scenario for ``model``."""
    try:
        preset = SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return preset(model, **overrides)


def comparison_table(
    scenarios: list[Scenario],
    *,
    requests: list[Request] | None = None,
    reports: list[ClusterReport] | None = None,
    title: str = "Scenario comparison",
) -> Table:
    """Run several scenarios and tabulate their headline SLO metrics.

    With ``requests`` the fleets see identical arrivals (fleet
    comparison); without, each scenario generates its own traffic
    (workload comparison).  Pass precomputed ``reports`` (aligned with
    ``scenarios``) to tabulate without re-simulating.
    """
    if reports is not None and len(reports) != len(scenarios):
        raise ValueError("reports must align 1:1 with scenarios")
    table = Table(
        title,
        ["scenario", "completed", "goodput", "tok/s", "TTFT p50 (s)", "J/token"],
    )
    for index, entry in enumerate(scenarios):
        report = reports[index] if reports is not None else entry.run(requests)
        ttft = (
            f"{report.ttft_percentile(50):.2f}" if report.completed else "n/a"
        )
        table.add_row([
            entry.name or f"scenario-{index}",
            f"{len(report.completed)}/{report.num_submitted}",
            f"{report.goodput:.0%}",
            f"{report.arrival_window_tokens_per_s:,.0f}",
            ttft,
            f"{report.energy_per_token_j:.2f}",
        ])
    return table
