"""Shared-row cost paths against flat per-kernel oracles.

The cost models derive kernel rows once per distinct layer list and fold
them in layer order (:func:`repro.models.flops.derive_per_layer`).  The
flat loops below walk every kernel of the labeled profiles instead; they
are the references, and every comparison is exact (``==``): the shared
paths must accumulate the same float sequence, not a close one.

The grid covers every registered model, and ``seq_len`` spans Llama4's
8,192-token local window from below, at and above (Maverick also
interleaves MoE every second layer).
"""

import pytest

from repro.analysis.perf_model import (
    RpuPerfResult,
    decode_step_perf,
    min_cus_for,
    system_for,
)
from repro.arch.power import memory_path_pj_per_bit
from repro.arch.specs import (
    CU_HOP_LATENCY_S,
    CU_STATIC_POWER_W,
    ENERGY,
    RING_LINK_BANDWIDTH_BYTES_PER_S,
)
from repro.gpu.collectives import allreduce_latency_s
from repro.gpu.efficiency import gpu_power_w
from repro.gpu.inference import GpuStepResult, _kernel_time_s, decode_step
from repro.gpu.system import GpuSystem
from repro.models.flops import (
    KernelKind,
    chunked_prefill_flops,
    decode_step_layer_values,
    decode_step_profile,
    layer_step_profiles,
    prefill_step_profile,
)
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.models.llama4 import LLAMA4_MAVERICK, LLAMA4_SCOUT
from repro.models.registry import MODELS
from repro.models.workload import Workload
from repro.quant.stream_decoder import StreamDecoder

BATCHES = (1, 7, 32)
SEQ_LENS = (300, 8192, 9000, 40000)

WORKLOADS = [
    # decode_len=128 gives every point a prompt for the prefill check.
    Workload(model, batch_size=batch, seq_len=seq_len, decode_len=128)
    for model in MODELS.values()
    for batch in BATCHES
    for seq_len in SEQ_LENS
]
IDS = [f"{w.model.name}-bs{w.batch_size}-seq{w.seq_len}" for w in WORKLOADS]


def flat_gpu_decode_step(system: GpuSystem, workload: Workload) -> GpuStepResult:
    total_time = 0.0
    hbm_bytes_total = 0.0
    flops_total = 0.0
    for kernel in decode_step_profile(workload):
        total_time += _kernel_time_s(system, workload, kernel)
        hbm_bytes_total += kernel.hbm_bytes
        flops_total += kernel.flops
    payload = workload.batch_size * workload.model.hidden_size * workload.act_dtype.nbytes
    total_time += (
        2.0 * workload.model.num_layers * allreduce_latency_s(payload, system.count)
    )
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


def flat_decode_step_perf(system, workload: Workload, *, decoupled: bool) -> RpuPerfResult:
    num_cores = system.num_cores
    core = system.cu.core
    decoder_bw = StreamDecoder(core.spec.clock_hz).compressed_bandwidth_bytes_per_s(
        workload.weight_dtype
    )
    kv_heads = workload.model.attention.num_kv_heads
    gqa_span = max(1, min(system.num_cus, system.num_cus // kv_heads or 1))

    t_mem = t_comp = t_net = t_coupled = 0.0
    flops_total = hbm_total = net_payload_total = 0.0
    wkv_bytes_total = act_bytes_total = 0.0
    for kernel in decode_step_profile(workload):
        mem_k = kernel.hbm_bytes / num_cores / core.mem_bandwidth_bytes_per_s
        comp_k = kernel.flops / num_cores / core.spec.peak_flops
        if kernel.kind is KernelKind.VOPS:
            comp_k = kernel.flops / num_cores / core.spec.peak_vops
        if kernel.weight_bytes:
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
            net_payload_total += kernel.collective_bytes
        elif kernel.kind is KernelKind.SDPA:
            net_k = (gqa_span - 1) * CU_HOP_LATENCY_S
        t_mem += mem_k
        t_comp += comp_k
        t_net += net_k
        t_coupled += max(mem_k, comp_k) + net_k
        flops_total += kernel.flops
        hbm_total += kernel.hbm_bytes
        wkv_bytes_total += kernel.weight_bytes + kernel.kv_bytes
        act_bytes_total += kernel.act_bytes

    latency = max(t_mem, t_comp, t_net) if decoupled else t_coupled
    pj = 1e-12
    return RpuPerfResult(
        latency_s=latency,
        t_mem_s=t_mem,
        t_comp_s=t_comp,
        t_net_s=t_net,
        mem_bw_utilization=min(t_mem / latency, 1.0),
        comp_utilization=min(flops_total / (system.peak_flops * latency), 1.0),
        energy_mem_j=hbm_total * 8 * memory_path_pj_per_bit(system.cu) * pj,
        energy_comp_j=(
            flops_total * ENERGY.tmac_pj_per_flop * pj
            + wkv_bytes_total * 8
            * (ENERGY.sram_read_pj_per_bit + ENERGY.stream_decode_pj_per_bit) * pj
            + act_bytes_total * 8 * ENERGY.sram_write_pj_per_bit * pj
        ),
        energy_net_j=(
            net_payload_total * system.num_cus * 8
            * (ENERGY.ucie_in_package_pj_per_bit + ENERGY.sram_write_pj_per_bit) * pj
        ),
        energy_static_j=CU_STATIC_POWER_W * system.num_cus * latency,
        num_cus=system.num_cus,
    )


def flat_chunked_prefill_flops(workload: Workload, chunk_tokens: int = 2048) -> float:
    num_chunks = max(1, round(workload.prefill_len / chunk_tokens))
    total = 0.0
    for kernel in prefill_step_profile(workload, workload.prefill_len // num_chunks):
        total += kernel.flops
    return total * num_chunks


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_layer_values_flatten_to_the_labeled_profile(workload):
    shared = [
        kernel._replace(layer=None)
        for kernels in decode_step_layer_values(workload)
        for kernel in kernels
    ]
    assert shared == [k._replace(layer=None) for k in decode_step_profile(workload)]


@pytest.mark.parametrize("count", (8, 16))
@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_gpu_decode_step_matches_flat_loop(workload, count):
    system = GpuSystem(count=count)
    assert decode_step(system, workload) == flat_gpu_decode_step(system, workload)


@pytest.mark.parametrize("decoupled", (True, False), ids=("decoupled", "coupled"))
@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_rpu_decode_step_perf_matches_flat_loop(workload, decoupled):
    system = system_for(max(min_cus_for(workload), 64), workload)
    assert decode_step_perf(system, workload, decoupled=decoupled) == (
        flat_decode_step_perf(system, workload, decoupled=decoupled)
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=IDS)
def test_chunked_prefill_flops_matches_flat_loop(workload):
    assert chunked_prefill_flops(workload) == flat_chunked_prefill_flops(workload)


class TestLayerPeriod:
    def test_values(self):
        for model in (LLAMA3_8B, LLAMA3_70B, LLAMA3_405B):
            assert model.layer_period == 1
        for model in (LLAMA4_SCOUT, LLAMA4_MAVERICK):
            assert model.layer_period == 4

    @pytest.mark.parametrize("seq_len", SEQ_LENS)
    @pytest.mark.parametrize("name", list(MODELS))
    def test_layers_repeat_with_the_period(self, name, seq_len):
        model = MODELS[name]
        attn = model.attention
        profiles = layer_step_profiles(Workload(model, seq_len=seq_len), tokens=1)
        assert len(profiles) == model.num_layers
        first_of: dict[tuple[int, bool], int] = {}
        for i in range(model.num_layers):
            j = i % model.layer_period
            signature = (attn.attention_span(i, seq_len), model.is_moe_layer(i))
            assert signature == (attn.attention_span(j, seq_len), model.is_moe_layer(j))
            assert profiles[i] is profiles[j]
            # One list per signature, labeled with its first layer.
            first = first_of.setdefault(signature, i)
            assert profiles[i] is profiles[first]
            assert {k.layer for k in profiles[i]} == {first}
