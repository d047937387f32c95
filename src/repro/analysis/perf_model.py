"""Fast analytical RPU decode model.

Decoupled pipelines let each stream run at its own pace, bounded by buffer
back-pressure; at steady state the token latency is the busiest pipeline's
total time:

- memory: total HBM traffic at the per-core streaming rate;
- compute: the serialized kernel chain (TMAC-limited or stream-decoder-
  limited per kernel);
- network: the serialized collective chain (pipelined ring: hop chain +
  payload over the CU link).

``decoupled=False`` models a conventional coupled execution (each kernel
waits for its own memory, compute and collective in sequence) -- the
baseline of the Section IX decoupling ablation.

Validated against :func:`repro.sim.simulate_decode_step` (tests assert
agreement within ~10%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.power import decode_tdp_per_cu, memory_path_pj_per_bit
from repro.arch.specs import (
    CU_HOP_LATENCY_S,
    CU_STATIC_POWER_W,
    ENERGY,
    RING_LINK_BANDWIDTH_BYTES_PER_S,
    STACKS_PER_CU,
)
from repro.arch.system import RpuSystem
from repro.gpu.system import GpuSystem
from repro.memory.sku import sku_for_system
from repro.models.flops import (
    KernelKind,
    KernelProfile,
    decode_step_layer_values,
    derive_per_layer,
    step_arithmetic_intensity,
)
from repro.models.workload import Workload
from repro.quant.stream_decoder import StreamDecoder

_PJ = 1e-12


@dataclass(frozen=True)
class RpuPerfResult:
    """Analytical decode-step outcome."""

    latency_s: float
    t_mem_s: float
    t_comp_s: float
    t_net_s: float
    mem_bw_utilization: float
    comp_utilization: float
    energy_mem_j: float  # per step, whole system
    energy_comp_j: float
    energy_net_j: float
    energy_static_j: float
    num_cus: int

    @property
    def bound(self) -> str:
        """Which pipeline bounds the step."""
        times = {"memory": self.t_mem_s, "compute": self.t_comp_s, "network": self.t_net_s}
        return max(times, key=times.get)

    @property
    def energy_per_step_j(self) -> float:
        return (
            self.energy_mem_j
            + self.energy_comp_j
            + self.energy_net_j
            + self.energy_static_j
        )

    def energy_per_token_j(self, batch_size: int = 1) -> float:
        return self.energy_per_step_j / batch_size

    @property
    def avg_power_w(self) -> float:
        return self.energy_per_step_j / self.latency_s if self.latency_s else 0.0

    def tokens_per_s(self, batch_size: int = 1) -> float:
        return batch_size / self.latency_s if self.latency_s else 0.0

    @property
    def otps_per_query(self) -> float:
        return 1.0 / self.latency_s if self.latency_s else 0.0


def decode_step_perf(
    system: RpuSystem,
    workload: Workload,
    *,
    decoupled: bool = True,
    check_capacity: bool = True,
) -> RpuPerfResult:
    """Analytical latency/energy of one decode step on ``system``."""
    if check_capacity and not system.fits(workload.memory_footprint_bytes()):
        raise ValueError(
            f"{system} cannot hold {workload} "
            f"({workload.memory_footprint_bytes() / 1e9:.1f} GB)"
        )
    num_cores = system.num_cores
    core = system.cu.core
    core_bw = core.mem_bandwidth_bytes_per_s
    peak_flops = core.spec.peak_flops
    decoder_bw = StreamDecoder(core.spec.clock_hz).compressed_bandwidth_bytes_per_s(
        workload.weight_dtype
    )
    kv_heads = workload.model.attention.num_kv_heads
    gqa_span = max(1, min(system.num_cus, system.num_cus // kv_heads or 1))

    def derive(kernels: list[KernelProfile]) -> list[tuple[float, ...]]:
        """Per-kernel derived quantities for one layer's kernel list."""
        rows = []
        for kernel in kernels:
            mem_k = kernel.hbm_bytes / num_cores / core_bw
            comp_k = kernel.flops / num_cores / peak_flops
            if kernel.kind is KernelKind.VOPS:
                comp_k = kernel.flops / num_cores / core.spec.peak_vops
            if kernel.weight_bytes:
                # Compressed weights rate-limit the front-end via the
                # decoder; KV traffic feeds the TMACs directly over the
                # compute bus.
                comp_k = max(comp_k, kernel.weight_bytes / num_cores / decoder_bw)

            net_k = 0.0
            if kernel.collective_bytes > 0:
                participants = (
                    system.num_cus
                    if kernel.kind in (KernelKind.LINEAR, KernelKind.MOE)
                    else gqa_span
                )
                net_k = (participants - 1) * CU_HOP_LATENCY_S + (
                    kernel.collective_bytes / RING_LINK_BANDWIDTH_BYTES_PER_S
                )
            elif kernel.kind is KernelKind.SDPA:
                # Q/KV gather across the GQA span.
                net_k = (gqa_span - 1) * CU_HOP_LATENCY_S
            rows.append((
                mem_k,
                comp_k,
                net_k,
                max(mem_k, comp_k) + net_k,
                kernel.flops,
                kernel.hbm_bytes,
                kernel.collective_bytes,
                kernel.weight_bytes + kernel.kv_bytes,
                kernel.act_bytes,
            ))
        return rows

    t_mem = t_comp = t_net = 0.0
    t_coupled = 0.0
    flops_total = 0.0
    hbm_total = 0.0
    net_payload_total = 0.0
    wkv_bytes_total = 0.0
    act_bytes_total = 0.0

    for rows in derive_per_layer(decode_step_layer_values(workload), derive):
        for mem_k, comp_k, net_k, coupled_k, fl, hbm, coll, wkv, act in rows:
            t_mem += mem_k
            t_comp += comp_k
            t_net += net_k
            t_coupled += coupled_k
            flops_total += fl
            hbm_total += hbm
            if coll > 0:
                net_payload_total += coll
            wkv_bytes_total += wkv
            act_bytes_total += act

    latency = max(t_mem, t_comp, t_net) if decoupled else t_coupled

    # Energy (whole system, one step) -- same coefficients as the
    # simulator's energy meters.
    epb_mem = memory_path_pj_per_bit(system.cu)
    energy_mem = hbm_total * 8 * epb_mem * _PJ
    weight_bits = wkv_bytes_total * 8
    energy_comp = (
        flops_total * ENERGY.tmac_pj_per_flop * _PJ
        + weight_bits * (ENERGY.sram_read_pj_per_bit + ENERGY.stream_decode_pj_per_bit) * _PJ
        + act_bytes_total * 8 * ENERGY.sram_write_pj_per_bit * _PJ
    )
    energy_net = (
        net_payload_total
        * system.num_cus  # payload crosses every CU's link once
        * 8
        * (ENERGY.ucie_in_package_pj_per_bit + ENERGY.sram_write_pj_per_bit)
        * _PJ
    )
    energy_static = CU_STATIC_POWER_W * system.num_cus * latency

    return RpuPerfResult(
        latency_s=latency,
        t_mem_s=t_mem,
        t_comp_s=t_comp,
        t_net_s=t_net,
        mem_bw_utilization=min(t_mem / latency, 1.0) if latency else 0.0,
        comp_utilization=(
            min(flops_total / (system.peak_flops * latency), 1.0) if latency else 0.0
        ),
        energy_mem_j=energy_mem,
        energy_comp_j=energy_comp,
        energy_net_j=energy_net,
        energy_static_j=energy_static,
        num_cus=system.num_cus,
    )


# ----------------------------------------------------------------------
# System sizing helpers
# ----------------------------------------------------------------------
def min_cus_for(workload: Workload) -> int:
    """Smallest CU count whose largest-SKU capacity holds the workload."""
    from repro.memory.design_space import sku_family

    largest = max(sku_family(), key=lambda p: p.capacity_bytes)
    per_cu = largest.capacity_bytes * STACKS_PER_CU
    return max(1, math.ceil(workload.memory_footprint_bytes() / per_cu))


def system_for(num_cus: int, workload: Workload) -> RpuSystem:
    """An RPU of ``num_cus`` with the optimal (smallest fitting) SKU."""
    sku = sku_for_system(
        workload.memory_footprint_bytes(), num_cus * STACKS_PER_CU
    )
    return RpuSystem.with_memory(num_cus, sku)


def iso_tdp_system(gpu: GpuSystem, workload: Workload) -> RpuSystem:
    """The RPU whose decode power matches ``gpu``'s TDP (paper's ISO-TDP)."""
    intensity = step_arithmetic_intensity(workload)
    probe = RpuSystem(1)
    per_cu_w = decode_tdp_per_cu(probe.cu, intensity)
    num_cus = max(1, math.floor(gpu.tdp_w / per_cu_w))
    # Re-pick the SKU for the chosen scale (capacity per stack shrinks).
    return system_for(num_cus, workload)
