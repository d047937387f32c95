"""End-to-end GPU inference model: tensor-parallel decode and prefill.

Consumes the same kernel profiles (:mod:`repro.models.flops`) as the RPU
models, so GPU-vs-RPU comparisons measure architecture, not workload
accounting.  Per kernel: the roofline with the empirical utilization
curves plus a launch overhead; per layer: two NVLink all-reduces (Megatron
tensor parallelism).  Power integrates the fitted NVML model over the
step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.collectives import allreduce_latency_s
from repro.gpu.efficiency import (
    bandwidth_utilization,
    compute_utilization,
    gpu_power_w,
)
from repro.gpu.system import GpuSystem
from repro.models.flops import (
    KernelKind,
    KernelProfile,
    chunked_prefill_flops,
    decode_step_layer_values,
    derive_per_layer,
)
from repro.models.workload import Workload


@dataclass(frozen=True)
class GpuStepResult:
    """One decode step on a GPU system."""

    latency_s: float
    energy_j: float
    avg_power_w: float
    mem_bw_utilization: float
    comp_utilization: float

    def tokens_per_s(self, batch_size: int) -> float:
        return batch_size / self.latency_s

    @property
    def otps_per_query(self) -> float:
        """Output tokens per second per query (Fig 11, bottom left)."""
        return 1.0 / self.latency_s


def _kernel_time_s(
    system: GpuSystem, workload: Workload, kernel: KernelProfile
) -> float:
    """Latency of one kernel on the system: the slower of its memory
    and compute time, plus the launch overhead."""
    spec = system.spec
    count = system.count

    hbm_bytes = kernel.hbm_bytes / count
    act_bytes = kernel.act_bytes / count
    flops = kernel.flops / count

    mem_time = 0.0
    if hbm_bytes > 0:
        util = bandwidth_utilization(hbm_bytes, distributed=count > 1)
        mem_time = hbm_bytes / (spec.mem_bandwidth_bytes_per_s * util)
    elif act_bytes > 0:
        # Vector ops stream activations through HBM/L2 at modest size.
        util = bandwidth_utilization(max(act_bytes, 1.0))
        mem_time = act_bytes / (spec.mem_bandwidth_bytes_per_s * util)

    comp_time = 0.0
    if flops > 0:
        if kernel.kind in (KernelKind.LINEAR, KernelKind.MOE):
            tokens = workload.batch_size
            rate = spec.peak_flops(workload.weight_dtype.label)
            comp_time = flops / (rate * compute_utilization(tokens))
        else:
            # SDPA / vector kernels run on the vector pipeline at a
            # fraction of tensor-core rate; they are memory-bound anyway.
            comp_time = flops / (0.1 * spec.peak_bf16_flops)

    return max(mem_time, comp_time) + spec.kernel_launch_s


def decode_step(system: GpuSystem, workload: Workload) -> GpuStepResult:
    """Latency/power/energy of one decode step (all sequences advance one
    token)."""
    if not system.fits(workload.memory_footprint_bytes()):
        raise ValueError(
            f"{system.name} ({system.mem_capacity_bytes / 1e9:.0f} GB) cannot "
            f"hold {workload} ({workload.memory_footprint_bytes() / 1e9:.0f} GB)"
        )

    def derive(kernels: list[KernelProfile]) -> list[tuple[float, float, float]]:
        return [
            (_kernel_time_s(system, workload, kernel), kernel.hbm_bytes, kernel.flops)
            for kernel in kernels
        ]

    total_time = 0.0
    hbm_bytes_total = 0.0
    flops_total = 0.0

    for rows in derive_per_layer(decode_step_layer_values(workload), derive):
        for latency, hbm_bytes, flops in rows:
            total_time += latency
            hbm_bytes_total += hbm_bytes
            flops_total += flops

    # Two all-reduces per layer (attention output, MLP output).
    payload = workload.batch_size * workload.model.hidden_size * workload.act_dtype.nbytes
    collective_time = (
        2.0
        * workload.model.num_layers
        * allreduce_latency_s(payload, system.count)
    )
    total_time += collective_time

    mem_bw_util = hbm_bytes_total / (system.mem_bandwidth_bytes_per_s * total_time)
    comp_util = flops_total / (system.peak_bf16_flops * total_time)
    power = gpu_power_w(system.spec, min(comp_util, 1.0), min(mem_bw_util, 1.0))
    system_power = power * system.count
    return GpuStepResult(
        latency_s=total_time,
        energy_j=system_power * total_time,
        avg_power_w=system_power,
        mem_bw_utilization=mem_bw_util,
        comp_utilization=comp_util,
    )


def decode_bandwidth_utilization(system: GpuSystem, workload: Workload) -> float:
    """System-wide decode memory-bandwidth utilization (paper: ~32%)."""
    return decode_step(system, workload).mem_bw_utilization


def prefill_time_and_power(
    system: GpuSystem, workload: Workload, *, chunk_tokens: int = 2048
) -> tuple[float, float]:
    """(duration, average power) of prefilling the workload's prompt.

    Prefill is compute-bound and runs near full tensor-core utilization
    (the paper measures 70.3% compute utilization at 90% TDP).
    """
    if workload.prefill_len == 0:
        return 0.0, system.spec.idle_w * system.count
    flops = chunked_prefill_flops(workload, chunk_tokens)
    comp_util = 0.70
    rate = system.peak_bf16_flops * comp_util
    duration = flops / rate
    power = gpu_power_w(system.spec, comp_util, 0.35) * system.count
    return duration, power
