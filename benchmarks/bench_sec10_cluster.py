"""Fleet-scale serving: cluster throughput/latency curves and the
GPU-vs-RPU goodput comparison at equal decode power (extends the paper's
Section I deployment argument to request-level traffic)."""

import math

from conftest import emit

from repro.analysis.cluster_sweep import (
    gpu_vs_disaggregated,
    pod_scaling_curve,
    throughput_latency_curve,
)
from repro.models.llama3 import LLAMA3_70B
from repro.util.tables import Table


def build():
    return (
        throughput_latency_curve(
            LLAMA3_70B, rates_rps=(0.25, 0.5, 1.0, 2.0, 4.0), duration_s=20.0
        ),
        pod_scaling_curve(
            LLAMA3_70B, pod_counts=(1, 2, 4), rate_rps=4.0, duration_s=15.0
        ),
        gpu_vs_disaggregated(LLAMA3_70B, duration_s=20.0),
    )


def test_sec10_cluster(benchmark):
    curve, scaling, versus = benchmark.pedantic(build, rounds=1, iterations=1)

    load = Table(
        "Throughput-latency: Llama3-70B reasoning traffic, 2 RPU decode pods",
        ["RPS", "tok/s", "goodput", "TTFT p50 (s)", "TTFT p99 (s)", "queue (s)"],
    )
    for point, r in curve:
        load.add_row([
            point.traffic.rate_rps, f"{r.tokens_per_s:,.0f}", f"{r.goodput:.0%}",
            f"{r.ttft_percentile(50):.2f}", f"{r.ttft_percentile(99):.2f}",
            f"{r.mean_queueing_delay_s:.3f}",
        ])

    pods = Table(
        "Fleet sizing: decode pods at 4 RPS offered load",
        ["decode pods", "tok/s", "goodput", "decode util"],
    )
    for point, r in scaling:
        decode = [p for p in r.pod_stats if p.kind == "decode"]
        util = sum(p.utilization(r.duration_s) for p in decode) / len(decode)
        pods.add_row([
            point.decode[0].count, f"{r.tokens_per_s:,.0f}",
            f"{r.goodput:.0%}", f"{util:.0%}",
        ])

    (gpu_point, gpu_only), (rpu_point, disaggregated) = versus
    gpu_pod = gpu_point.cluster().decode_pods[0].engine
    rpu_pod = rpu_point.cluster().decode_pods[0].engine
    iso = Table(
        f"ISO-power decode pools ({gpu_pod.tdp_w:.0f} W/pod): "
        f"2xH100 vs RPU-{rpu_pod.system.num_cus}CU",
        ["fleet", "goodput", "tok/s", "TTFT p50 (s)", "energy/token (J)"],
    )
    for name, report in (
        ("GPU-only", gpu_only),
        ("disaggregated", disaggregated),
    ):
        iso.add_row([
            name, f"{report.goodput:.0%}", f"{report.tokens_per_s:,.0f}",
            f"{report.ttft_percentile(50):.2f}",
            f"{report.energy_per_token_j:.2f}",
        ])
    emit(load, pods, iso)

    # Delivered throughput grows with offered load and with pool size.
    # (simlint: the saturation filter used exact `goodput == 1.0`; use a
    # closeness test so a single SLO near-miss can't silently skip it.)
    assert all(b.tokens_per_s >= a.tokens_per_s * 0.99
               for (_, a), (_, b) in zip(curve, curve[1:])
               if math.isclose(a.goodput, 1.0))
    assert all(b.tokens_per_s >= a.tokens_per_s * 0.99
               for (_, a), (_, b) in zip(scaling, scaling[1:]))
    # The Section I claim at fleet scale: at equal decode power the
    # disaggregated fleet answers reasoning queries interactively.
    assert disaggregated.goodput >= gpu_only.goodput
    assert disaggregated.goodput > 0.9
