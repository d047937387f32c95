"""Paged vs full-context KV reservation at equal KV budget: the
occupancy argument behind the fleet deployment.  Full-context
reservation strands most of a decode pod's KV budget on the paper's
2k-prompt/4k-reasoning traffic; block-granular (paged) allocation with
preemption turns that stranded capacity into batch depth."""

from conftest import emit

from repro.analysis.cluster_sweep import reservation_sweep
from repro.models.llama3 import LLAMA3_70B
from repro.serving.scheduler import Reservation
from repro.util.tables import Table


def build():
    return reservation_sweep(
        LLAMA3_70B, kv_budgets_gb=(3.0, 4.0, 6.0), duration_s=30.0
    )


def test_paged_kv(benchmark):
    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    table = Table(
        "KV reservation policy at equal budget: Llama3-70B reasoning "
        "traffic, 1 RPU decode pod, 2 RPS",
        ["KV budget", "policy", "goodput", "tok/s", "KV occupancy",
         "preemptions", "completed"],
    )
    for point, r in rows:
        table.add_row([
            f"{point.kv_budget_bytes / 1e9:.0f} GB", point.reservation.value,
            f"{r.goodput:.0%}", f"{r.tokens_per_s:,.0f}",
            f"{r.mean_decode_kv_occupancy:.0%}", r.total_preemptions,
            len(r.completed),
        ])
    emit(table)

    full = {point.kv_budget_bytes: r for point, r in rows
            if point.reservation is Reservation.FULL}
    paged = {point.kv_budget_bytes: r for point, r in rows
             if point.reservation is Reservation.PAGED}
    for budget, f in full.items():
        p = paged[budget]
        # The acceptance claim: at equal KV budget on the reasoning mix,
        # paged reservation never loses goodput and strictly wins decode
        # throughput (deeper batches from un-stranding the KV pool).
        assert p.goodput >= f.goodput
        assert p.tokens_per_s > f.tokens_per_s
        assert len(p.completed) == len(f.completed)
    # The win comes from occupancy, not magic: where FULL is
    # admission-starved (tightest budget), paged lifts goodput sharply.
    assert paged[3e9].goodput - full[3e9].goodput > 0.2
