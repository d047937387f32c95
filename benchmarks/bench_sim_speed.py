"""Simulator-speed benchmark: the bulk quiet decode lane against the
per-step decode lane on a production multi-tenant scenario -- emitted as
a table and as machine-readable ``BENCH_sim_speed.<mode>.json``.

``ClusterSim._bulk_quiet_steps`` returning False sends every decode
boundary through the per-step path, the oracle
``tests/serving/test_bulk_lane.py`` checks the lane against.  So the
same scenario runs once as shipped (lane on) and once with that method
patched off through pytest's ``monkeypatch`` (lane off); the simulator
has no switch for it.  The bench asserts:

- digest: both lanes reproduce the report digest pinned for the mode
  (``DIGESTS``) -- same floats, same event order, same JSON;
- speed: lane-off / lane-on wall-clock is at least the mode's floor;
- coverage: ``ContinuousBatchScheduler.advance`` calls (exact and
  machine-independent) satisfy lane-on x ``MIN_COLLAPSE`` <= lane-off,
  so a patch that silently stops working cannot time the fast lane
  twice.  Both timed runs count through the same wrapper, which costs
  about 0.1 us per call (under 1% of the lane-off run);
- observation: a traced lane-on run keeps the digest and costs at most
  ``MAX_TRACE_OVERHEAD`` x the untraced one.

Two modes share one scenario shape, scaled by stretching the arrival
traces' duration (rates, tenants, policies untouched), and each writes
its own artifact, so a smoke run never overwrites the full one:

- smoke (default, CI): about 1.3k requests.
- full: ``REPRO_SIM_SPEED_FULL=1`` -- about 102k requests; about 25
  minutes on a 2-vCPU Xeon VM, most of it the lane-off run.

Wall-clock depends on the host, so the payload stamps the Python
version and ``os.cpu_count()``.
"""

import dataclasses
import os
import platform
import time
from pathlib import Path

from conftest import emit

from _emit import write_bench_json
from repro import TraceConfig
from repro.api import (
    AdmissionConfig,
    ArrivalTrace,
    AutoscalerConfig,
    PodGroup,
    PrefillPolicy,
    Scenario,
    TenantSpec,
    TrafficSpec,
)
from repro.models.llama3 import LLAMA3_8B
from repro.serving import BATCH, INTERACTIVE, STANDARD
from repro.serving.cluster import ClusterSim
from repro.serving.engine import report_digest
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.util.tables import Table

FULL = bool(os.environ.get("REPRO_SIM_SPEED_FULL"))
MODE = "full" if FULL else "smoke"
JSON_PATH = Path(__file__).resolve().parent / f"BENCH_sim_speed.{MODE}.json"

SCALES = {"smoke": 8, "full": 600}  # ~1.3k / ~102k requests
#: Report digest of each mode's scenario; both lanes must reproduce it.
DIGESTS = {
    "smoke": "d71e7fe936c6b8e6c54a3af043190d11a6b4662a50884b73cbf03b9a6de16ca8",
    "full": "c1ca71828d66449d80c4184f51a7188262f9b5832eb41feeaba254df1db344c0",
}
#: Lane-off / lane-on wall-clock floor.  Smoke leaves CI-machine slack;
#: full is the acceptance pin of the batched engine.
MIN_LANE_RATIO = {"smoke": 4.0, "full": 10.0}
MIN_COLLAPSE = 20          # lane-on advance calls x this <= lane-off
MAX_TRACE_OVERHEAD = 1.25  # traced run may cost at most 25% wall-clock
TRACE_TIMING_ROUNDS = {"smoke": 3, "full": 1}  # min-of-N absorbs noise


def scenario(scale: float) -> Scenario:
    """The ``multi_tenant_prod`` roster with its arrival traces
    stretched to ``scale`` x the preset's 40 s window -- same tenants,
    rates, policies, admission control and autoscaler."""
    duration_s = 40.0 * scale
    tenants = (
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                prompt_mean=512, decode_mean=256, seed=11,
                trace=ArrivalTrace.diurnal(2.0, duration_s, seed=11),
            ),
            slo=INTERACTIVE, priority=2, weight=2.0,
        ),
        TenantSpec(
            "agentic",
            traffic=TrafficSpec(
                prompt_mean=2048, decode_mean=512, seed=12,
                prefix_share_prob=0.85, prefix_fanout=8, prefix_frac=0.75,
                trace=ArrivalTrace.diurnal(1.5, duration_s, seed=12),
            ),
            slo=STANDARD, priority=1, weight=1.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=0.75, duration_s=duration_s,
                prompt_mean=1024, decode_mean=4096, seed=13,
            ),
            slo=BATCH, priority=0, weight=0.5,
        ),
    )
    return Scenario(
        model=LLAMA3_8B,
        name="sim_speed",
        traffic=TrafficSpec(tenants=tenants),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        prefill_policy=PrefillPolicy.PRIORITY,
        prefix_caching=True,
        admission=AdmissionConfig(enabled=True),
        autoscaler=AutoscalerConfig(),
    )


def build(scale: float):
    """(config, requests) for one run; called once per run so each
    gets a fresh, identically-seeded request list."""
    scn = scenario(scale)
    return scn.cluster(), scn.requests()


def lane_run(monkeypatch, scale: float, *, lane: bool = True,
             traced: bool = False):
    """(report, wall seconds, ``advance`` calls) of one run on a fresh
    config and request list, with the bulk quiet lane on or patched
    off, and tracing off or on."""
    config, requests = build(scale)
    if traced:
        config = dataclasses.replace(config, trace=TraceConfig())
    calls = [0]
    advance = ContinuousBatchScheduler.advance

    def counted(self, step_end_s):
        calls[0] += 1
        return advance(self, step_end_s)

    with monkeypatch.context() as patch:
        patch.setattr(ContinuousBatchScheduler, "advance", counted)
        if not lane:
            patch.setattr(
                ClusterSim, "_bulk_quiet_steps", lambda self, now, pod: False
            )
        t0 = time.perf_counter()
        report = ClusterSim(config).run(requests)
        wall_s = time.perf_counter() - t0
    return report, wall_s, calls[0]


def test_sim_speed(benchmark, monkeypatch):
    scale = SCALES[MODE]
    pinned = DIGESTS[MODE]

    report, on_s, on_calls = benchmark.pedantic(
        lambda: lane_run(monkeypatch, scale, lane=True), rounds=1, iterations=1
    )
    num_requests = report.num_submitted
    if FULL:
        assert num_requests >= 100_000
    assert report_digest(report) == pinned, "lane-on digest moved"
    off_report, off_s, off_calls = lane_run(monkeypatch, scale, lane=False)
    assert report_digest(off_report) == pinned, "lane-off digest moved"

    assert on_calls * MIN_COLLAPSE <= off_calls, (
        f"lane-on made {on_calls:,} advance calls and lane-off "
        f"{off_calls:,}: the patch no longer turns the bulk lane off"
    )
    lane_ratio = off_s / on_s
    floor = MIN_LANE_RATIO[MODE]
    assert lane_ratio >= floor, (
        f"bulk lane {lane_ratio:.2f}x faster than per-step, under the "
        f"{floor:.0f}x floor (lane on {on_s:.2f}s vs off {off_s:.2f}s)"
    )

    # -- observability overhead: the traced run must stay digest-
    # identical (zero-cost-off is pinned in the test suite; this pins
    # bounded-cost-ON) and within MAX_TRACE_OVERHEAD of the untraced
    # wall-clock, min-of-N timed so machine noise can't flake the bound.
    best_s = {}
    for traced in (False, True):
        best_s[traced] = float("inf")
        for _ in range(TRACE_TIMING_ROUNDS[MODE]):
            run, wall_s, _ = lane_run(monkeypatch, scale, traced=traced)
            assert report_digest(run) == pinned, f"traced={traced} digest moved"
            best_s[traced] = min(best_s[traced], wall_s)
    untraced_s, traced_s = best_s[False], best_s[True]
    trace_overhead = traced_s / untraced_s
    assert trace_overhead <= MAX_TRACE_OVERHEAD, (
        f"traced run cost {trace_overhead:.3f}x the untraced one, over the "
        f"{MAX_TRACE_OVERHEAD:.2f}x bound "
        f"(traced {traced_s:.3f}s vs untraced {untraced_s:.3f}s)"
    )

    machine = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    table = Table("Simulator speed: bulk quiet lane vs per-step lane",
                  ["metric", "value"])
    table.add_row(["mode", MODE])
    table.add_row(["requests", f"{num_requests:,}"])
    table.add_row(["decode tokens", f"{report.decode_tokens:,}"])
    table.add_row(["lane-off wall (s)", f"{off_s:.2f}"])
    table.add_row(["lane-on wall (s)", f"{on_s:.2f}"])
    table.add_row(["lane ratio", f"{lane_ratio:.2f}x"])
    table.add_row(["advance calls off / on", f"{off_calls:,} / {on_calls:,}"])
    table.add_row(["trace overhead", f"{trace_overhead:.3f}x"])
    table.add_row(["report digest", pinned[:16]])
    table.add_row(["machine", ", ".join(f"{k} {v}" for k, v in machine.items())])
    emit(table)

    write_bench_json(
        JSON_PATH,
        "sim_speed",
        config={
            "mode": MODE,
            "scale": scale,
            "min_lane_ratio": floor,
            "min_collapse": MIN_COLLAPSE,
            "max_trace_overhead": MAX_TRACE_OVERHEAD,
        },
        metrics={
            "requests": num_requests,
            "decode_tokens": report.decode_tokens,
            "lane_off_wall_s": off_s,
            "lane_on_wall_s": on_s,
            "lane_ratio": lane_ratio,
            "lane_off_advance_calls": off_calls,
            "lane_on_advance_calls": on_calls,
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "trace_overhead": trace_overhead,
            "digest": pinned,
            "machine": machine,
            "report": {
                "goodput": report.goodput,
                "tokens_per_s": report.tokens_per_s,
                "ttft_p95_s": report.ttft_percentile(95),
                "completed": len(report.completed),
                "shed": len(report.shed),
            },
        },
    )
    emit(f"wrote {JSON_PATH.name}")
