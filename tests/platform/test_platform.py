"""Platform interface: parity with the direct models, registry, shims."""

import pytest

from repro.analysis.perf_model import decode_step_perf, iso_tdp_system, system_for
from repro.gpu.inference import decode_step, prefill_time_and_power
from repro.gpu.specs import H200
from repro.gpu.system import GpuSystem
from repro.models.dtypes import DType
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B
from repro.models.workload import Workload
from repro.platform import (
    HOST_TURNAROUND_S,
    KV_TRANSFER_BYTES_PER_S,
    GpuPlatform,
    Platform,
    RpuPlatform,
    as_platform,
    available_platforms,
    build_platform,
    register_platform,
)
from repro.platform.registry import _REGISTRY


@pytest.fixture(scope="module")
def workload():
    return Workload(LLAMA3_70B, batch_size=1, seq_len=8192, decode_len=2048)


@pytest.fixture(scope="module")
def rpu(workload):
    return RpuPlatform(system_for(128, workload))


@pytest.fixture(scope="module")
def gpu():
    return GpuPlatform(GpuSystem(count=2))


class TestDecodeParity:
    """Platform-routed costs must match the direct models bit-for-bit
    (the refactor's no-drift guarantee)."""

    def test_rpu_decode_is_model_plus_turnaround(self, rpu, workload):
        direct = decode_step_perf(rpu.system, workload)
        step = rpu.decode_step(workload)
        assert step.latency_s == direct.latency_s + HOST_TURNAROUND_S
        assert step.energy_j == direct.energy_per_step_j

    def test_gpu_decode_matches_model(self, gpu, workload):
        direct = decode_step(gpu.system, workload)
        step = gpu.decode_step(workload)
        assert step.latency_s == direct.latency_s
        assert step.energy_j == direct.energy_j

    def test_gpu_prefill_matches_model(self, gpu, workload):
        assert gpu.prefill(workload) == prefill_time_and_power(gpu.system, workload)

    def test_capacity_check_raises_like_models(self, workload):
        tiny_rpu = RpuPlatform(system_for(1, Workload(LLAMA3_8B, seq_len=128)))
        big = Workload(LLAMA3_70B, batch_size=8, seq_len=16384, decode_len=1)
        with pytest.raises(ValueError):
            tiny_rpu.decode_step(big)
        tiny_gpu = GpuPlatform(GpuSystem(count=1))
        huge = Workload(LLAMA3_70B, batch_size=128, seq_len=16384, decode_len=1)
        with pytest.raises(ValueError):
            tiny_gpu.decode_step(huge)
        # The fleet path shrinks the evaluation context instead.
        cost = tiny_gpu.decode_step(huge, check_capacity=False)
        assert cost.latency_s > 0

    def test_step_cost_power_property(self, rpu, workload):
        step = rpu.decode_step(workload)
        assert step.avg_power_w == pytest.approx(step.energy_j / step.latency_s)


class TestRpuPrefill:
    """The new RPU-prefill cost model (inverted pod roles)."""

    def test_duration_scales_with_prompt(self, rpu):
        short = rpu.prefill(Workload(LLAMA3_70B, seq_len=2048, decode_len=0))
        long = rpu.prefill(Workload(LLAMA3_70B, seq_len=8192, decode_len=0))
        assert long[0] > 3.5 * short[0]  # compute-bound: ~linear in tokens
        assert short[0] > 0 and short[1] > 0

    def test_zero_prompt_is_idle(self, rpu):
        duration, power = rpu.prefill(
            Workload(LLAMA3_70B, seq_len=2048, decode_len=2048)
        )
        assert duration == 0.0
        assert power > 0  # static power, not zero

    def test_prefill_power_within_decode_tdp(self, rpu, workload):
        """Prefill runs the memory path well below saturation (35% vs
        100% during decode), so its power must stay under the
        memory-saturated decode TDP the board is provisioned for."""
        _, power = rpu.prefill(workload)
        assert 0 < power < rpu.tdp_w


class TestKvPolicy:
    def test_kv_budget_is_capacity_minus_weights(self, rpu):
        budget = rpu.kv_budget_bytes(LLAMA3_70B, DType.MXFP4)
        assert budget == pytest.approx(
            rpu.mem_capacity_bytes - LLAMA3_70B.weight_bytes(DType.MXFP4.nbytes)
        )

    def test_kv_budget_raises_when_weights_dont_fit(self):
        tiny = RpuPlatform(system_for(1, Workload(LLAMA3_8B, seq_len=128)))
        with pytest.raises(ValueError, match="do not fit"):
            tiny.kv_budget_bytes(LLAMA3_70B, DType.BF16)

    def test_default_ingest_rate_is_ring_station(self, rpu, gpu):
        assert rpu.kv_ingest_bytes_per_s == KV_TRANSFER_BYTES_PER_S
        assert gpu.kv_ingest_bytes_per_s == KV_TRANSFER_BYTES_PER_S

    def test_dtype_policy_defaults(self, rpu):
        assert rpu.preferred_weight_dtype is DType.MXFP4
        assert rpu.preferred_kv_dtype is DType.FP8


class TestEnvelope:
    def test_tdp_positive_and_scales_with_cus(self, workload):
        small = RpuPlatform(system_for(64, workload))
        large = RpuPlatform(system_for(128, workload))
        assert 0 < small.tdp_w < large.tdp_w

    def test_gpu_tdp_matches_system(self, gpu):
        assert gpu.tdp_w == gpu.system.tdp_w

    def test_names(self, rpu, gpu):
        assert rpu.name == "rpu-128cu"
        assert "H100" in gpu.name


class TestCoercion:
    def test_platform_passes_through(self, rpu):
        assert as_platform(rpu) is rpu

    def test_raw_systems_wrap_silently_by_default(self, workload):
        assert isinstance(as_platform(system_for(8, workload)), RpuPlatform)
        assert isinstance(as_platform(GpuSystem(count=1)), GpuPlatform)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            as_platform(object())


class TestRegistry:
    def test_builtins_registered(self):
        names = available_platforms()
        for name in ("rpu", "gpu", "h100", "h200", "rpu_iso_tdp"):
            assert name in names

    def test_build_rpu_sizes_sku(self, workload):
        pod = build_platform("rpu", sizing=workload, num_cus=64)
        assert isinstance(pod, RpuPlatform)
        assert pod.system.num_cus == 64
        assert pod.system == system_for(64, workload)

    def test_build_h200(self):
        pod = build_platform("h200", gpus=4)
        assert pod.system.spec is H200
        assert pod.system.count == 4

    def test_iso_tdp_builder_matches_sizing_rule(self, workload):
        pod = build_platform("rpu_iso_tdp", sizing=workload, gpus=2)
        assert pod.system == iso_tdp_system(GpuSystem(count=2), workload)

    def test_iso_tdp_requires_sizing(self):
        with pytest.raises(ValueError, match="sizing"):
            build_platform("rpu_iso_tdp")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown platform"):
            build_platform("tpu")

    def test_register_custom_platform(self, rpu):
        register_platform("test_custom", lambda *, sizing=None: rpu)
        try:
            assert build_platform("test_custom") is rpu
            with pytest.raises(ValueError, match="already registered"):
                register_platform("test_custom", lambda *, sizing=None: rpu)
            register_platform(
                "test_custom", lambda *, sizing=None: rpu, overwrite=True
            )
        finally:
            _REGISTRY.pop("test_custom", None)

    def test_custom_platform_class_is_enough(self, workload):
        """A new hardware family only needs the Platform contract."""

        class FixedRate(Platform):
            name = "fixed"
            engine = None
            tdp_w = 100.0
            mem_capacity_bytes = 1e12

            def prefill(self, wl):
                return 0.1, 50.0

            def decode_step(self, wl, *, check_capacity=True):
                from repro.platform import StepCost

                return StepCost(1e-3, 0.05)

        pod = FixedRate()
        assert pod.kv_budget_bytes(LLAMA3_8B, DType.MXFP4) > 0
        assert pod.decode_step(workload).latency_s == 1e-3
