#!/usr/bin/env python3
"""The KV cache hierarchy in action: prefix caching + host swap tier.

Part 1 serves the ``agentic_fanout`` scenario (bursts of sub-queries
fanned off shared parent prompts) twice on the same fleet with identical
traffic -- prefix caching off, then on -- and prints both SLO reports:
cached prefixes skip prefill, the KV hand-off and block allocation, so
TTFT drops and goodput rises at equal KV budget.

Part 2 sweeps the host-link bandwidth under a deliberately tight block
pool and shows the swap-vs-recompute crossover: swapping a preempted
sequence's KV to host beats recomputing it on fast links, loses on slow
ones, and ``SwapPolicy.AUTO`` tracks the cheaper branch at every point.

Run:  python examples/prefix_caching.py
"""

from repro.api import PodGroup, agentic_fanout
from repro.analysis.cluster_sweep import swap_costs, swap_crossover_sweep
from repro.models import LLAMA3_70B
from repro.serving import SwapPolicy

KV_BUDGET_GB = 2.0


def main() -> None:
    scenario = agentic_fanout(
        LLAMA3_70B,
        kv_budget_bytes=KV_BUDGET_GB * 1e9,
        prefill=(PodGroup("gpu", count=1),),  # prefill-bound on purpose
    )
    requests = scenario.requests()
    groups = len({r.prefix_id for r in requests if r.prefix_id is not None})
    print(
        f"Traffic: {len(requests)} agentic sub-queries in {groups} "
        f"shared-prefix groups; 1 GPU prefill pod, 2 RPU decode pods, "
        f"{KV_BUDGET_GB:.0f} GB KV budget each\n"
    )

    for caching in (False, True):
        report = agentic_fanout(
            LLAMA3_70B,
            kv_budget_bytes=KV_BUDGET_GB * 1e9,
            prefill=(PodGroup("gpu", count=1),),
            prefix_caching=caching,
        ).run(requests)
        label = "prefix caching ON" if caching else "prefix caching OFF"
        print(report.summary_table(label))
        print()

    print("Swap-vs-recompute crossover (tight pool, host link sweep):")
    rows = swap_crossover_sweep(LLAMA3_70B, host_link_gbps=(100.0, 25.0, 6.0, 1.5))
    for point, auto in rows:
        if point.swap_policy is not SwapPolicy.AUTO:
            continue
        swap_s, recompute_s = swap_costs(point)
        winner = "swap" if swap_s < recompute_s else "recompute"
        swapped = auto.total_swaps / max(auto.total_preemptions, 1)
        print(
            f"  {point.swap_bytes_per_s * 8 / 1e9:6g} Gb/s host link: "
            f"swap {swap_s:5.2f} s vs recompute {recompute_s:5.2f} s -> "
            f"{winner:9s}  (AUTO swapped {swapped:4.0%} of "
            f"{auto.total_preemptions} preemptions)"
        )


if __name__ == "__main__":
    main()
