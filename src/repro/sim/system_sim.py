"""Representative-CU system simulation.

Column-sharded tensor parallelism makes every CU execute the same program
on its own shard, so the system is simulated by running one CU's cores in
full detail and modelling cross-CU interaction through the ring-collective
hop chain (exactly the reduction the paper's Fig 8 visualization makes).

``detail_cores`` controls how many of the CU's 16 cores are simulated;
they share the CU's ring interface (scaled to their share), so link
contention is representative.  Energy, stalls and arbitration cover
every simulated core; the traces are core 0's alone, so no other core
records any.

One core does not give sixteen cores' timing.  On the ``rpu`` pod (128
CUs, sized for BS=32 at 8k context), Llama3-8B with MXFP4 weights and
FP8 KV:

==================  =========  =========  =====
point               1 core     16 cores   gap
==================  =========  =========  =====
BS=8, context 512   113.40 us  87.40 us   +30%
BS=32, context 128  333.60 us  277.59 us  +20%
==================  =========  =========  =====

Why the two disagree is open: see ROADMAP.md, item 2 ("The fleet's
decode cost, checked where the fleet runs").
"""

from __future__ import annotations

from repro.arch.specs import CORES_PER_CU, RING_LINK_BANDWIDTH_BYTES_PER_S
from repro.arch.system import RpuSystem
from repro.compiler.lowering import compile_decode_step
from repro.isa.program import Program
from repro.models.workload import Workload
from repro.sim.arbiter import PipelineArbiter
from repro.sim.buffers import SramBuffer
from repro.sim.energy import EnergyMeter
from repro.sim.engines import CoreContext, build_plan, run_core
from repro.sim.kernel import Simulator
from repro.sim.resources import BandwidthResource
from repro.sim.results import SimResult
from repro.sim.trace import PipelineTrace
from repro.util.stats import left_sum


def simulate_decode_step(
    system: RpuSystem,
    workload: Workload,
    *,
    program: Program | None = None,
    detail_cores: int = 1,
) -> SimResult:
    """Simulate one decode step; returns traces, energy and latency.

    ``program`` defaults to ``compile_decode_step(workload, system)``;
    compile one yourself for another chunk size.
    """
    if not 1 <= detail_cores <= CORES_PER_CU:
        raise ValueError(f"detail_cores must be in [1, {CORES_PER_CU}]")
    if not system.fits(workload.memory_footprint_bytes()):
        raise ValueError(
            f"{system} cannot hold {workload} "
            f"({workload.memory_footprint_bytes() / 1e9:.1f} GB)"
        )
    if program is None:
        program = compile_decode_step(workload, system)

    sim = Simulator()
    meter = EnergyMeter()
    spec = system.cu.core.spec
    # One plan for every core: the cores run one SPMD program.
    plan = build_plan(program.core, system, workload.weight_dtype)

    # The CU's ring interface, scaled to the simulated cores' share.
    link = BandwidthResource(
        sim, RING_LINK_BANDWIDTH_BYTES_PER_S * detail_cores / CORES_PER_CU
    )

    contexts: list[CoreContext] = []
    for index in range(detail_cores):
        name = f"core{index}"
        # Only core 0's traces are reported, so only core 0 records any.
        traced = index == 0
        ctx = CoreContext(
            sim=sim,
            name=name,
            plan=plan,
            mem_buffer=SramBuffer(
                sim, f"{name}.membuf", spec.mem_buffer_bytes, trace=traced
            ),
            net_buffer=SramBuffer(
                sim, f"{name}.netbuf", spec.net_buffer_bytes, trace=traced
            ),
            channel=BandwidthResource(sim, system.cu.core.mem_bandwidth_bytes_per_s),
            link=link,
            arbiter=PipelineArbiter(sim),
            meter=meter,
            mem_trace=PipelineTrace("memory") if traced else None,
            comp_trace=PipelineTrace("compute") if traced else None,
            net_trace=PipelineTrace("network") if traced else None,
        )
        contexts.append(ctx)
        run_core(ctx)

    latency = sim.run()

    # Report the first core's traces (cores are symmetric); stalls and
    # arbitration aggregate over all simulated cores.
    first = contexts[0]
    stalls = {
        "mem_buffer_write_stall_s": left_sum(c.mem_buffer.write_stall_s for c in contexts),
        "net_buffer_write_stall_s": left_sum(c.net_buffer.write_stall_s for c in contexts),
        "compute_read_stall_s": left_sum(
            c.mem_buffer.read_stall_s + c.net_buffer.read_stall_s for c in contexts
        ),
    }
    arbitration = {
        "grants": sum(c.arbiter.grants for c in contexts),
        "conflicts": sum(c.arbiter.conflicts for c in contexts),
    }
    return SimResult(
        latency_s=latency,
        num_cus=system.num_cus,
        cores_per_cu=CORES_PER_CU,
        simulated_cores=detail_cores,
        peak_flops_per_core=spec.peak_flops,
        mem_trace=first.mem_trace,
        comp_trace=first.comp_trace,
        net_trace=first.net_trace,
        meter=meter,
        mem_buffer_trace=first.mem_buffer.occupancy_trace,
        net_buffer_trace=first.net_buffer.occupancy_trace,
        stalls=stalls,
        arbitration=arbitration,
    )
