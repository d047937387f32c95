"""End-to-end event simulation: decoupling behaviour, energy, agreement
with the analytical model."""

import hashlib
import json

import pytest

from repro.analysis.perf_model import decode_step_perf
from repro.arch.system import RpuSystem
from repro.memory.sku import sku_for_system
from repro.models.llama3 import LLAMA3_8B
from repro.models.workload import Workload
from repro.sim import system_sim
from repro.sim.system_sim import simulate_decode_step


@pytest.fixture(scope="module")
def bs1_result():
    workload = Workload(LLAMA3_8B, batch_size=1, seq_len=16384)
    return simulate_decode_step(RpuSystem(64), workload)


def _bs32_system(workload):
    sku = sku_for_system(workload.memory_footprint_bytes(), 128)
    return RpuSystem.with_memory(64, sku)


@pytest.fixture(scope="module")
def bs32_result():
    workload = Workload(LLAMA3_8B, batch_size=32, seq_len=8192)
    return simulate_decode_step(_bs32_system(workload), workload)


@pytest.fixture(scope="module")
def sixteen_core_result():
    """All 16 cores of one CU: their arbiters queue (109 conflicts)."""
    workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
    return simulate_decode_step(RpuSystem(64), workload, detail_cores=16)


class TestBs1:
    def test_memory_bandwidth_saturated(self, bs1_result):
        """Paper: at BS=1 the RPU saturates memory bandwidth."""
        assert bs1_result.mem_utilization > 0.9

    def test_compute_utilization_low(self, bs1_result):
        """AI ~4 against a 30 Ops/Byte design -> low TMAC utilization."""
        assert bs1_result.comp_utilization < 0.3

    def test_decoder_occupancy_high(self, bs1_result):
        """...but the stream-decoder front-end stays busy."""
        assert bs1_result.decoder_occupancy > 0.85

    def test_network_utilization_low(self, bs1_result):
        assert bs1_result.net_utilization < 0.2

    def test_per_layer_latency_matches_fig8(self, bs1_result):
        """Fig 8 top: one layer spans ~4.5 us on a 64-CU system."""
        per_layer = bs1_result.latency_s / 32
        assert per_layer == pytest.approx(4.5e-6, rel=0.15)

    def test_power_in_paper_band(self, bs1_result):
        """Decode power ~8-11 W/CU, memory-dominated."""
        assert 7.0 < bs1_result.avg_power_per_cu_w() < 12.0

    def test_memory_energy_dominates(self, bs1_result):
        energy = bs1_result.energy_per_cu_j()
        assert energy["mem"] > 2 * (energy["comp"] + energy["net"])

    def test_no_arbitration_deadlock(self, bs1_result):
        assert bs1_result.arbitration["grants"] > 0


class TestBs32:
    def test_buffer_fills_to_capacity(self, bs32_result):
        """Fig 8 bottom: deep prefetch fills the 512 KiB memory buffer."""
        peak = max(b for _, b in bs32_result.mem_buffer_trace)
        assert peak == pytest.approx(512 * 1024, rel=0.01)

    def test_compute_utilization_rises(self, bs32_result):
        """Batching pushes weight kernels toward compute-bound."""
        assert bs32_result.comp_utilization > 0.5

    def test_step_slower_than_bs1(self, bs32_result, bs1_result):
        assert bs32_result.latency_s > 3 * bs1_result.latency_s

    def test_energy_per_token_amortized(self, bs32_result, bs1_result):
        assert bs32_result.energy_per_token_j(32) < 0.5 * bs1_result.energy_per_token_j(1)

    def test_kernel_table_covers_fig8_labels(self, bs32_result):
        kernels = {name for name, _, _ in bs32_result.kernel_table()}
        for expected in ("wQKV", "QK^T", "wUp/wGate", "wDown"):
            assert expected in kernels


class TestAgreementWithPerfModel:
    @pytest.mark.parametrize(
        "batch, seq, num_cus", [(1, 16384, 64), (1, 8192, 32), (8, 8192, 64)]
    )
    def test_latency_within_10pct(self, batch, seq, num_cus):
        workload = Workload(LLAMA3_8B, batch_size=batch, seq_len=seq)
        sku = sku_for_system(workload.memory_footprint_bytes(), num_cus * 2)
        system = RpuSystem.with_memory(num_cus, sku)
        simulated = simulate_decode_step(system, workload).latency_s
        modeled = decode_step_perf(system, workload).latency_s
        assert modeled == pytest.approx(simulated, rel=0.12)

    def test_energy_within_10pct(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=8192)
        system = RpuSystem(64)
        simulated = simulate_decode_step(system, workload)
        modeled = decode_step_perf(system, workload)
        sim_j = sum(simulated.energy_per_cu_j().values()) * system.num_cus
        model_j = modeled.energy_per_step_j - modeled.energy_static_j
        assert model_j == pytest.approx(sim_j, rel=0.10)


class TestValidation:
    def test_capacity_check(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=16384)
        with pytest.raises(ValueError, match="cannot hold"):
            simulate_decode_step(RpuSystem(2), workload)

    def test_detail_cores_bounds(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=8192)
        with pytest.raises(ValueError):
            simulate_decode_step(RpuSystem(64), workload, detail_cores=0)

    def test_multi_core_detail_consistent(self):
        """Simulating 2 symmetric cores should match 1 core's timing."""
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        one = simulate_decode_step(RpuSystem(64), workload, detail_cores=1)
        two = simulate_decode_step(RpuSystem(64), workload, detail_cores=2)
        assert two.latency_s == pytest.approx(one.latency_s, rel=0.05)

    def test_only_core0_records_traces(self, monkeypatch):
        contexts = []
        run_core = system_sim.run_core

        def spy(ctx, program):
            contexts.append(ctx)
            return run_core(ctx, program)

        monkeypatch.setattr(system_sim, "run_core", spy)
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        result = simulate_decode_step(RpuSystem(64), workload, detail_cores=3)
        first, *others = contexts
        assert len(others) == 2
        assert result.mem_trace is first.mem_trace and result.mem_trace.intervals
        assert result.comp_trace is first.comp_trace
        assert result.net_trace is first.net_trace
        assert result.mem_buffer_trace is first.mem_buffer.occupancy_trace
        assert result.net_buffer_trace is first.net_buffer.occupancy_trace
        for ctx in others:
            assert ctx.mem_trace is ctx.comp_trace is ctx.net_trace is None
            assert ctx.mem_buffer.occupancy_trace is None
            assert ctx.net_buffer.occupancy_trace is None

    def test_one_record_table_per_simulation(self, monkeypatch):
        """A simulation's cores share one table of energy records, each
        shape built once; the next simulation starts a new table."""
        tables = []
        run_core = system_sim.run_core

        def spy(ctx, program):
            tables.append(ctx.records)
            return run_core(ctx, program)

        monkeypatch.setattr(system_sim, "run_core", spy)
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        results = [
            simulate_decode_step(RpuSystem(64), workload, detail_cores=3) for _ in range(2)
        ]
        assert tables[0] is tables[1] is tables[2]
        assert tables[3] is tables[4] is tables[5]
        assert tables[0] is not tables[3]
        for table, result in zip((tables[0], tables[3]), results):
            built = [*table.mem.values(), *table.comp.values(), *table.net.values()]
            assert sorted(r.index for r in built) == list(range(len(built)))
            assert all(result.meter.records[r.index] is r for r in built)
            assert len(result.meter.records) == len(built)

    def test_energy_meter_power_trace_integrates(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        result = simulate_decode_step(RpuSystem(64), workload)
        times, watts = result.meter.power_trace("mem", result.latency_s)
        integrated = sum(watts) * result.meter.bin_s
        assert integrated == pytest.approx(result.meter.total_j("mem"), rel=0.02)


class TestOutputPin:
    """The whole simulated output of three small points, power bins
    included, hashed with every float rendered by ``repr``: a change to
    the engines, the meter or the event order that moves any bit fails
    here.  The two ``detail_cores=2`` points never queue at BS=32 and
    rarely at BS=1; the 16-core point queues 109 times, so it also pins
    the arbiter's wait order."""

    PINS = {
        "bs1": "f0043473cfdf360fb06de08b8df6f1923381c12069c95e402a5ac4cb6d67056c",
        "bs32": "b173ebeae67db7f83cb779050eb323aeab77c15e6def1a68f85ee8a21575722e",
        "bs1_16core": "9f32a80e842d0a5c30d72acdc4f7779dc488496a710ccd248289ef3901d24034",
    }

    @staticmethod
    def output_digest(result):
        meter = result.meter
        row = {
            "latency_s": repr(result.latency_s),
            "breakdown": {
                group: {component: repr(j) for component, j in components.items()}
                for group, components in meter.breakdown().items()
            },
            "stalls": {name: repr(s) for name, s in result.stalls.items()},
            "arbitration": result.arbitration,
            "util": [
                repr(result.mem_utilization),
                repr(result.comp_utilization),
                repr(result.net_utilization),
            ],
            "power": {
                group: [repr(w) for w in meter.power_trace(group, result.latency_s)[1]]
                for group in ("mem", "comp", "net")
            },
        }
        return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()

    def test_bs1_output_is_pinned(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        result = simulate_decode_step(RpuSystem(64), workload, detail_cores=2)
        assert self.output_digest(result) == self.PINS["bs1"]

    def test_bs32_output_is_pinned(self):
        workload = Workload(LLAMA3_8B, batch_size=32, seq_len=8192)
        result = simulate_decode_step(_bs32_system(workload), workload, detail_cores=2)
        assert self.output_digest(result) == self.PINS["bs32"]

    def test_16core_output_is_pinned(self, sixteen_core_result):
        assert sixteen_core_result.arbitration == {"grants": 13424, "conflicts": 109}
        assert self.output_digest(sixteen_core_result) == self.PINS["bs1_16core"]


class TestCoreTracePin:
    """Core 0's reported traces at the same three points: the occupancy
    samples of both buffers and every ``(start, end, kernel, work)``
    interval of the three pipelines, floats rendered by ``repr``."""

    PINS = {
        "bs1": "6a135e62d0673e9be35506762456f565181fe0616898c0fb14bd97c605e2bd52",
        "bs32": "4bec39cc13fe847142745627c36214a3a5472bd14472e7674fab26a083c18646",
        "bs1_16core": "2ec8b060501705c74f3429c617fba1970bf3cda6b8e3471bec0bf56cde079322",
    }

    @staticmethod
    def trace_digest(result):
        row = {
            "mem_buffer": [[repr(t), repr(b)] for t, b in result.mem_buffer_trace],
            "net_buffer": [[repr(t), repr(b)] for t, b in result.net_buffer_trace],
            "pipelines": {
                trace.name: [
                    [repr(i.start), repr(i.end), i.kernel, repr(i.work)]
                    for i in trace.intervals
                ]
                for trace in (result.mem_trace, result.comp_trace, result.net_trace)
            },
        }
        return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()

    def test_bs1_core0_traces_are_pinned(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        result = simulate_decode_step(RpuSystem(64), workload, detail_cores=2)
        assert self.trace_digest(result) == self.PINS["bs1"]

    def test_bs32_core0_traces_are_pinned(self):
        workload = Workload(LLAMA3_8B, batch_size=32, seq_len=8192)
        result = simulate_decode_step(_bs32_system(workload), workload, detail_cores=2)
        assert self.trace_digest(result) == self.PINS["bs32"]

    def test_16core_core0_traces_are_pinned(self, sixteen_core_result):
        assert self.trace_digest(sixteen_core_result) == self.PINS["bs1_16core"]
