"""End-to-end event simulation: decoupling behaviour, energy, agreement
with the analytical model."""

import hashlib
import json

import pytest

from repro.analysis.perf_model import decode_step_perf
from repro.arch.specs import CORES_PER_CU, CU_HOP_LATENCY_S
from repro.arch.system import RpuSystem
from repro.compiler.lowering import compile_decode_step
from repro.isa.instructions import MemLoad, NetCollective, NetForward, SlotRef
from repro.isa.program import CoreProgram, Program
from repro.memory.sku import sku_for_system
from repro.models.llama3 import LLAMA3_8B
from repro.models.workload import Workload
from repro.quant.stream_decoder import StreamDecoder
from repro.sim import engines, system_sim
from repro.sim.buffers import BufferError
from repro.sim.energy import EnergyRecord
from repro.sim.system_sim import simulate_decode_step


@pytest.fixture(scope="module")
def bs1_result():
    workload = Workload(LLAMA3_8B, batch_size=1, seq_len=16384)
    return simulate_decode_step(RpuSystem(64), workload)


def _sized_system(workload):
    """64 CUs with the memory SKU ``workload``'s footprint needs."""
    sku = sku_for_system(workload.memory_footprint_bytes(), 128)
    return RpuSystem.with_memory(64, sku)


@pytest.fixture(scope="module")
def bs32_result():
    workload = Workload(LLAMA3_8B, batch_size=32, seq_len=8192)
    return simulate_decode_step(_sized_system(workload), workload)


#: The CU points whose output and core-0 traces are pinned, by name:
#: (batch, context, memory sized to the footprint, simulated cores).
#: Each runs Llama3-8B on 64 CUs.  The two 2-core points never queue at
#: BS=32 and rarely at BS=1; all 16 cores of one CU queue 74 times, so
#: the last point also pins the arbiter's wait order.
PIN_POINTS = {
    "bs1": (1, 4096, False, 2),
    "bs32": (32, 8192, True, 2),
    "bs1_16core": (1, 4096, False, 16),
}


def simulate_pin_point(name):
    batch, seq_len, sized, detail_cores = PIN_POINTS[name]
    workload = Workload(LLAMA3_8B, batch_size=batch, seq_len=seq_len)
    system = _sized_system(workload) if sized else RpuSystem(64)
    return simulate_decode_step(system, workload, detail_cores=detail_cores)


@pytest.fixture(scope="module")
def pinned():
    """Every pinned point's result, simulated once for both pin classes."""
    return {name: simulate_pin_point(name) for name in PIN_POINTS}


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

        def spy(ctx):
            contexts.append(ctx)
            run_core(ctx)

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

    def test_one_plan_per_simulation(self, monkeypatch):
        """A simulation's cores share one plan, which holds one record
        object per energy shape, built once; the next simulation builds
        its own plan and records."""
        plans = []
        built = []
        run_core = system_sim.run_core

        def spy(ctx):
            plans.append(ctx.plan)
            run_core(ctx)

        class CountedRecord(EnergyRecord):
            __slots__ = ()

            def __init__(self, parts):
                super().__init__(parts)
                built.append(self)

        monkeypatch.setattr(system_sim, "run_core", spy)
        monkeypatch.setattr(engines, "EnergyRecord", CountedRecord)
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        for _ in range(2):
            simulate_decode_step(RpuSystem(64), workload, detail_cores=3)
        assert plans[0] is plans[1] is plans[2]
        assert plans[3] is plans[4] is plans[5]
        assert plans[0] is not plans[3]
        program = compile_decode_step(workload, RpuSystem(64)).core
        shapes = (
            {i.nbytes for i in program.mem},
            {(i.engine, i.flops, i.weight_bytes, i.out_bytes) for i in program.comp},
            {
                i.nbytes if isinstance(i, NetForward)
                else i.payload_bytes / CORES_PER_CU + i.local_bytes
                for i in program.net
            },
        )
        stored = []
        for plan in (plans[0], plans[3]):
            for steps, group_shapes in zip((plan.mem, plan.comp, plan.net), shapes):
                records = {id(step[-1]) for step in steps}
                assert len(records) == len(group_shapes)
                stored += records
        assert sorted(stored) == sorted(map(id, built))

    def test_plan_shares_one_timeout_per_duration(self):
        """Each compute step waits exactly its instruction's duration and
        each collective its hop chain; steps of equal duration share one
        ``Timeout``, and no ``Timeout`` serves two durations."""
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        system = RpuSystem(64)
        program = compile_decode_step(workload, system).core
        plan = engines.build_plan(program, system, workload.weight_dtype)
        spec = system.cu.core.spec
        decode_bandwidth = StreamDecoder(
            clock_hz=spec.clock_hz
        ).compressed_bandwidth_bytes_per_s(workload.weight_dtype)
        waits = []
        for instr, (_reads, busy, *_rest) in zip(program.comp, plan.comp, strict=True):
            rate = spec.peak_flops if instr.engine == "tmac" else spec.peak_vops
            duration = instr.flops / rate if instr.flops else 0.0
            if instr.weight_bytes:
                duration = max(duration, instr.weight_bytes / decode_bandwidth)
            assert (busy.delay if busy else 0.0) == duration
            waits.append(busy)
        for instr, (_key, _local, _count, _link, hop, *_rest) in zip(
            program.net, plan.net, strict=True
        ):
            if isinstance(instr, NetCollective) and instr.participants > 1:
                assert hop.delay == (instr.participants - 1) * CU_HOP_LATENCY_S
                waits.append(hop)
            else:
                assert hop is None
        timeouts = {id(wait): wait for wait in waits if wait is not None}
        delays = {wait.delay for wait in timeouts.values()}
        assert len(timeouts) == len(delays) > 1

    @staticmethod
    def hand_built(*loads):
        return Program(CoreProgram(mem=list(loads)), num_cus=64, cores_per_cu=16)

    def test_load_larger_than_the_memory_buffer_raises(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        system = RpuSystem(64)
        capacity = system.cu.core.spec.mem_buffer_bytes
        program = self.hand_built(MemLoad(SlotRef("mem", "w.big"), 2 * capacity))
        with pytest.raises(
            BufferError, match=r"core0\.membuf: entry 'w\.big' .* exceeds buffer capacity"
        ):
            simulate_decode_step(system, workload, program=program)

    def test_entry_written_twice_raises(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        program = self.hand_built(
            MemLoad(SlotRef("mem", "w0"), 1024.0), MemLoad(SlotRef("mem", "w0"), 1024.0)
        )
        with pytest.raises(BufferError, match=r"core0\.membuf: double write to entry 'w0'"):
            simulate_decode_step(RpuSystem(64), workload, program=program)

    def test_pins_cover_every_waiting_path(self, pinned):
        """The pinned points take each resource's waiting process phase,
        not only its inline step: the 16 cores queue at their arbiters,
        and allocations and reads wait in both buffers."""
        cores16, bs32 = pinned["bs1_16core"], pinned["bs32"]
        assert cores16.arbitration["conflicts"] > 0
        assert cores16.stalls["net_buffer_write_stall_s"] > 0
        assert cores16.stalls["compute_read_stall_s"] > 0
        assert bs32.stalls["mem_buffer_write_stall_s"] > 0


class TestOutputPin:
    """The whole simulated output of each pinned point, hashed with
    every float rendered by ``repr``: a change to the engines, the meter
    or the event order that moves any bit fails here."""

    PINS = {
        "bs1": "0c1b9f9f86f9ba15e6eb3c1de969ecb7408477d0370fde8681745d02fc88f51c",
        "bs32": "3f55324f163755c08417bf829f82f1fb445e946e768b6d9d911c54d0bfb4f52e",
        "bs1_16core": "09a0610abf74bbf4199addbbc8ceda6c38da4fb397e543ce3ff4cb0c1bc91901",
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
        }
        return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()

    def test_bs1_output_is_pinned(self, pinned):
        assert self.output_digest(pinned["bs1"]) == self.PINS["bs1"]

    def test_bs32_output_is_pinned(self, pinned):
        assert self.output_digest(pinned["bs32"]) == self.PINS["bs32"]

    def test_16core_output_is_pinned(self, pinned):
        assert pinned["bs1_16core"].arbitration == {"grants": 13424, "conflicts": 74}
        assert self.output_digest(pinned["bs1_16core"]) == self.PINS["bs1_16core"]


class TestCoreTracePin:
    """Core 0's reported traces at each pinned point: the occupancy
    samples of both buffers and every ``(start, end, kernel, work)``
    interval of the three pipelines, floats rendered by ``repr``."""

    PINS = {
        "bs1": "3e2467342911ecd2e4108461936536f24a822e4cfcd68b50be6fd675591c40aa",
        "bs32": "4bec39cc13fe847142745627c36214a3a5472bd14472e7674fab26a083c18646",
        "bs1_16core": "5a238cef9f994c38fc3369e5b068fb1fcd4fac0b1b656986af1bede5c1e8eacb",
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

    def test_bs1_core0_traces_are_pinned(self, pinned):
        assert self.trace_digest(pinned["bs1"]) == self.PINS["bs1"]

    def test_bs32_core0_traces_are_pinned(self, pinned):
        assert self.trace_digest(pinned["bs32"]) == self.PINS["bs32"]

    def test_16core_core0_traces_are_pinned(self, pinned):
        assert self.trace_digest(pinned["bs1_16core"]) == self.PINS["bs1_16core"]
