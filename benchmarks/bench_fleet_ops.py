"""Fleet operations benchmark: three tenants on a flash-crowd trace,
static no-shed baseline vs admission control + autoscaling -- emitted
as tables and as machine-readable ``BENCH_fleet_ops.json`` (per-tenant
attainment, fairness, $/1e6 tokens) so the trajectory is trackable
across commits.

The acceptance claim (ISSUE 6): on a flash-crowd trace with three
tenants at equal KV budget, shedding + autoscaling holds the
interactive tenant's SLO attainment >= 95% while the static no-shed
baseline collapses below 70%."""

from pathlib import Path

from conftest import emit

from _emit import write_bench_json
from repro.analysis.cluster_sweep import sweep
from repro.api import PodGroup, Scenario, TrafficSpec
from repro.models.llama3 import LLAMA3_70B
from repro.serving import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    AdmissionConfig,
    ArrivalTrace,
    AutoscalerConfig,
    TenantSpec,
)
from repro.util.tables import Table

JSON_PATH = Path(__file__).resolve().parent / "BENCH_fleet_ops.json"

KV_BUDGET_BYTES = 1e9  # equal per-pod budget, tight enough to bind
PEAK_SCALES = (2.0, 4.0)


def _roster() -> tuple[TenantSpec, ...]:
    """Three tenants: a flash crowd on the interactive one, steady
    agentic and batch load underneath."""
    spike = ArrivalTrace.flash_crowd(
        1.0, 30.0, peak_rps=12.0, spike_start_s=10.0, spike_duration_s=8.0,
        seed=7,
    )
    return (
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                trace=spike, prompt_mean=512, decode_mean=256, seed=11
            ),
            slo=INTERACTIVE,
            priority=2,
            weight=2.0,
        ),
        TenantSpec(
            "agentic",
            traffic=TrafficSpec(
                rate_rps=1.0, duration_s=30.0,
                prompt_mean=2048, decode_mean=512, seed=12,
            ),
            slo=STANDARD,
            priority=1,
            weight=1.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=2.0, duration_s=30.0,
                prompt_mean=1024, decode_mean=4096, seed=13,
            ),
            slo=BATCH,
            priority=0,
            weight=0.5,
        ),
    )


def _fleet(*, elastic: bool) -> Scenario:
    return Scenario(
        model=LLAMA3_70B,
        traffic=TrafficSpec(tenants=_roster()),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=1, options={"num_cus": 128}),),
        kv_budget_bytes=KV_BUDGET_BYTES,
        admission=AdmissionConfig(enabled=elastic),
        autoscaler=(
            AutoscalerConfig(min_decode_pods=1, max_decode_pods=4)
            if elastic
            else None
        ),
        name="elastic" if elastic else "static",
    )


def _autoscaler_sweep():
    """Static peak-provisioned fleet vs an elastic one on the same
    flash-crowd reasoning trace, at each spike multiple of a 0.5 RPS
    base.  The static fleet keeps 4 decode pods for the whole run and
    pays for them; the elastic fleet starts at 1, scales up through the
    spike and drains back down afterwards."""
    base = Scenario(
        model=LLAMA3_70B,
        traffic=TrafficSpec(decode_mean=4096),
        kv_budget_bytes=3e9,
    )
    return sweep(
        base,
        [
            {"traffic.trace": ArrivalTrace.flash_crowd(0.5, 20.0, peak_rps=0.5 * peak)}
            for peak in PEAK_SCALES
        ],
        [
            {"decode": (PodGroup("rpu", count=4),)},
            {
                "decode": (PodGroup("rpu", count=1),),
                "autoscaler": AutoscalerConfig(
                    min_decode_pods=1,
                    max_decode_pods=4,
                    min_prefill_pods=2,
                    max_prefill_pods=2,
                ),
            },
        ],
    )


def _scaling_point(peak, point, report):
    """One autoscaler-sweep row, as emitted."""
    return {
        "peak_scale": peak,
        "elastic": point.autoscaler is not None,
        "goodput": report.goodput,
        "ttft_p95_s": report.ttft_percentile(95),
        "completed": len(report.completed),
        "scale_ups": sum(1 for e in report.scaling_events if e.action == "up"),
        "scale_downs": sum(
            1 for e in report.scaling_events if e.action == "down"
        ),
        "cost_usd": report.cost_usd,
        "usd_per_mtok": report.usd_per_mtok,
    }


def build():
    static = _fleet(elastic=False).run()
    elastic = _fleet(elastic=True).run()
    # Rows run peak-major: the static fleet, then the elastic one.
    peaks = [peak for peak in PEAK_SCALES for _ in ("static", "elastic")]
    scaling = [
        _scaling_point(peak, *row)
        for peak, row in zip(peaks, _autoscaler_sweep())
    ]
    return static, elastic, scaling


def test_fleet_ops(benchmark):
    static, elastic, scaling = benchmark.pedantic(
        build, rounds=1, iterations=1
    )

    tenant_table = Table(
        "Flash crowd, three tenants at equal KV budget: static no-shed "
        "baseline vs admission control + autoscaling (Llama3-70B)",
        ["fleet", "tenant", "offered", "shed", "attainment",
         "TTFT p95 (s)"],
    )
    for label, report in (("static", static), ("elastic", elastic)):
        for name, tenant in sorted(report.per_tenant().items()):
            tenant_table.add_row([
                label, name, tenant.offered, tenant.shed,
                f"{tenant.attainment:.1%}", f"{tenant.ttft_p95_s:.2f}",
            ])

    fleet_table = Table(
        "Fleet-level operations metrics",
        ["fleet", "fairness", "scale up/down", "cost ($)", "$/Mtok"],
    )
    for label, report in (("static", static), ("elastic", elastic)):
        ups = sum(1 for e in report.scaling_events if e.action == "up")
        downs = sum(1 for e in report.scaling_events if e.action == "down")
        fleet_table.add_row([
            label, f"{report.fairness:.2f}", f"{ups} / {downs}",
            f"{report.cost_usd:.3f}", f"{report.usd_per_mtok:.2f}",
        ])

    scaling_table = Table(
        "Static peak-provisioned vs elastic fleet on flash-crowd traffic",
        ["peak", "fleet", "goodput", "TTFT p95 (s)", "up/down", "$/Mtok"],
    )
    for p in scaling:
        scaling_table.add_row([
            f"{p['peak_scale']:g}x", "elastic" if p["elastic"] else "static",
            f"{p['goodput']:.0%}", f"{p['ttft_p95_s']:.2f}",
            f"{p['scale_ups']} / {p['scale_downs']}",
            f"{p['usd_per_mtok']:.2f}",
        ])
    emit(tenant_table, fleet_table, scaling_table)

    # -- acceptance: shedding + autoscaling holds the interactive SLO
    # through the flash crowd; the static no-shed baseline collapses ---
    static_tenants = static.per_tenant()
    elastic_tenants = elastic.per_tenant()
    assert elastic_tenants["interactive"].attainment >= 0.95
    assert static_tenants["interactive"].attainment < 0.70
    # The protection comes from shedding the low-weight tenant, not
    # from dropping interactive traffic.
    assert elastic_tenants["interactive"].shed == 0
    assert elastic_tenants["batch"].shed > 0
    # The autoscaler actually acted, and elastic serving is cheaper
    # per delivered token than the overwhelmed static pod.
    assert any(e.action == "up" for e in elastic.scaling_events)
    assert elastic.usd_per_mtok < static.usd_per_mtok
    # Fairness: the elastic fleet's attainment spread is tighter.
    assert elastic.fairness < static.fairness

    # -- conservation: every offered request is accounted for, per
    # tenant and fleet-wide -------------------------------------------
    for report in (static, elastic):
        tenants = report.per_tenant()
        for tenant in tenants.values():
            assert (
                tenant.completed + tenant.shed + tenant.rejected
                == tenant.offered
            )
        assert sum(t.offered for t in tenants.values()) == report.num_submitted

    # -- the elastic fleet undercuts the static peak-provisioned fleet
    # on $/Mtok at comparable goodput on every spike multiple ----------
    by_peak = {}
    for p in scaling:
        by_peak.setdefault(p["peak_scale"], {})[p["elastic"]] = p
    for peak, pair in by_peak.items():
        assert pair[True]["usd_per_mtok"] < pair[False]["usd_per_mtok"]
        assert pair[True]["goodput"] >= pair[False]["goodput"] - 0.10

    write_bench_json(
        JSON_PATH,
        "fleet_ops",
        config={
            "model": LLAMA3_70B.name,
            "kv_budget_bytes": KV_BUDGET_BYTES,
            "peak_scales": list(PEAK_SCALES),
            "sweep_duration_s": 20.0,
        },
        metrics={
            # Full reports via ClusterReport.to_json(): per-tenant
            # attainment, fairness and $/Mtok live under "tenants",
            # "fairness" and "usd_per_mtok".
            "flash_crowd": {
                "static": static.to_json(),
                "elastic": elastic.to_json(),
            },
            "autoscaler_sweep": scaling,
        },
    )
    emit(f"wrote {JSON_PATH.name}")
