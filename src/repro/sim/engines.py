"""The three decoupled engines of one reasoning core.

Each engine is a process walking its instruction stream:

- **memory engine**: HBM-CO pseudo-channel -> memory buffer (chunked DMA,
  runs ahead of compute until the buffer back-pressures);
- **compute engine**: blocks on operand validity (pipeline-arbiter reads),
  occupies the TMACs / HP-VOPs, pulls compressed weights through the
  stream decoder;
- **network engine**: ring collectives and forwards, landing payload
  windows in the network buffer.

Engines interact only through buffers and valid counters -- the paper's
data-dependent synchronization.

Each pipeline interval is charged one :class:`~repro.sim.energy.EnergyRecord`.
A program has few energy shapes (a 405B decode step has 22), so the
engines build a shape's record the first time any core meets it and
reuse it after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.specs import CORES_PER_CU, CU_HOP_LATENCY_S, ENERGY, MEM_PATH_WIRE_MM
from repro.isa.instructions import Compute, MemLoad, NetCollective, NetForward
from repro.isa.program import CoreProgram
from repro.models.dtypes import DType
from repro.quant.stream_decoder import StreamDecoder
from repro.sim.arbiter import PipelineArbiter
from repro.sim.buffers import SramBuffer
from repro.sim.energy import EnergyMeter, EnergyRecord
from repro.sim.kernel import Simulator, Timeout
from repro.sim.resources import BandwidthResource
from repro.sim.trace import PipelineTrace

_PJ = 1e-12


@dataclass
class EnergyRecords:
    """One simulation's energy records by shape, shared by its cores.

    Memory and network shapes are keyed by bytes; compute shapes by
    ``(engine, flops, weight_bytes, out_bytes)``.
    """

    mem: dict[float, EnergyRecord] = field(default_factory=dict)
    comp: dict[tuple[str, float, float, float], EnergyRecord] = field(default_factory=dict)
    net: dict[float, EnergyRecord] = field(default_factory=dict)


@dataclass
class CoreContext:
    """Everything one core's engines share."""

    sim: Simulator
    name: str
    mem_buffer: SramBuffer
    net_buffer: SramBuffer
    channel: BandwidthResource  # HBM-CO pseudo-channel
    link: BandwidthResource  # this core's share of the CU ring interface
    arbiter: PipelineArbiter
    meter: EnergyMeter
    records: EnergyRecords
    # Busy-interval logs; ``None`` on a core whose traces are not reported.
    mem_trace: PipelineTrace | None
    comp_trace: PipelineTrace | None
    net_trace: PipelineTrace | None
    peak_flops: float
    peak_vops: float
    device_energy: dict[str, float]  # pJ/bit by HBM-CO component
    weight_dtype: DType
    decoder: StreamDecoder

    def buffer(self, name: str) -> SramBuffer:
        if name == "mem":
            return self.mem_buffer
        if name == "net":
            return self.net_buffer
        raise KeyError(f"core has no buffer {name!r}")


# ----------------------------------------------------------------------
# Memory engine
# ----------------------------------------------------------------------
def memory_engine(ctx: CoreContext, stream: list[MemLoad]):
    trace = ctx.mem_trace
    records = ctx.records.mem
    for instr in stream:
        nbytes = instr.nbytes
        yield from ctx.mem_buffer.allocate(instr.dst.key, nbytes, instr.valid_count)
        start, end = yield from ctx.channel.transfer(nbytes)
        yield from ctx.arbiter.access("memory")
        ctx.mem_buffer.commit(instr.dst.key)
        if trace is not None:
            trace.add(start, end, instr.kernel)
        record = records.get(nbytes) or _memory_record(ctx, nbytes)
        ctx.meter.charge("mem", start, end, record)


def _memory_record(ctx: CoreContext, nbytes: float) -> EnergyRecord:
    bits = nbytes * 8
    device = ctx.device_energy
    wire = ENERGY.bus_pj_per_bit_mm * MEM_PATH_WIRE_MM
    record = EnergyRecord((
        ("act", bits * device["activation"] * _PJ),
        ("mov-mem", bits * device["movement"] * _PJ),
        ("tsvs", bits * device["tsv"] * _PJ),
        ("io", bits * device["io"] * _PJ),
        ("mov-si", bits * wire * _PJ),
        ("sram-w", bits * ENERGY.sram_write_pj_per_bit * _PJ),
    ))
    ctx.records.mem[nbytes] = record
    return record


# ----------------------------------------------------------------------
# Compute engine
# ----------------------------------------------------------------------
def compute_engine(ctx: CoreContext, stream: list[Compute]):
    trace = ctx.comp_trace
    records = ctx.records.comp
    decode_bandwidth = ctx.decoder.compressed_bandwidth_bytes_per_s(ctx.weight_dtype)
    for instr in stream:
        for read in instr.reads:
            yield from ctx.arbiter.access("compute")
            yield from ctx.buffer(read.slot.buffer).read(read.slot.key, read.consume)
        rate = ctx.peak_flops if instr.engine == "tmac" else ctx.peak_vops
        duration = instr.flops / rate if instr.flops else 0.0
        if instr.weight_bytes:
            duration = max(duration, instr.weight_bytes / decode_bandwidth)
        start = ctx.sim.now
        if duration:
            yield Timeout(duration)
        end = ctx.sim.now
        if trace is not None:
            trace.add(start, end, instr.kernel, work=instr.flops)
        shape = (instr.engine, instr.flops, instr.weight_bytes, instr.out_bytes)
        record = records.get(shape) or _compute_record(ctx, shape)
        ctx.meter.charge("comp", start, end, record)


def _compute_record(ctx: CoreContext, shape: tuple[str, float, float, float]) -> EnergyRecord:
    engine, flops, weight_bytes, out_bytes = shape
    if engine == "tmac":
        parts = [("tmac", flops * ENERGY.tmac_pj_per_flop * _PJ)]
    else:
        parts = [("hp-op", flops * ENERGY.vec_op_pj * _PJ)]
    if weight_bytes:
        bits = weight_bytes * 8
        parts.append(("wei-sram_r", bits * ENERGY.sram_read_pj_per_bit * _PJ))
        parts.append(("wei-dc", bits * ENERGY.stream_decode_pj_per_bit * _PJ))
    if out_bytes:
        bits = out_bytes * 8
        parts.append(("act-sram", bits * ENERGY.sram_write_pj_per_bit * _PJ))
    record = EnergyRecord(parts)
    ctx.records.comp[shape] = record
    return record


# ----------------------------------------------------------------------
# Network engine
# ----------------------------------------------------------------------
def network_engine(ctx: CoreContext, stream: list[NetCollective | NetForward]):
    trace = ctx.net_trace
    records = ctx.records.net
    for instr in stream:
        if isinstance(instr, NetForward):
            nbytes = instr.nbytes
            start, end = yield from ctx.link.transfer(nbytes)
            if trace is not None:
                trace.add(start, end, instr.kernel)
            record = records.get(nbytes) or _network_record(ctx, nbytes)
            ctx.meter.charge("net", start, max(end, start), record)
            continue

        yield from ctx.net_buffer.allocate(
            instr.dst.key, instr.local_bytes, instr.valid_count
        )
        # This core's share of the CU's ring traffic: the full payload
        # crosses the CU interface once, split across its cores.
        share = instr.payload_bytes / CORES_PER_CU
        start, end = yield from ctx.link.transfer(share)
        # Serial hop chain of the pipelined ring collective.
        hop_chain = (instr.participants - 1) * CU_HOP_LATENCY_S
        if hop_chain:
            yield Timeout(hop_chain)
        yield from ctx.arbiter.access("network")
        ctx.net_buffer.commit(instr.dst.key)
        if trace is not None:
            trace.add(start, end, instr.kernel)
        nbytes = share + instr.local_bytes
        record = records.get(nbytes) or _network_record(ctx, nbytes)
        ctx.meter.charge("net", start, max(ctx.sim.now, start), record)


def _network_record(ctx: CoreContext, nbytes: float) -> EnergyRecord:
    bits = nbytes * 8
    record = EnergyRecord((
        ("io", bits * ENERGY.ucie_in_package_pj_per_bit * _PJ),
        ("sram_w", bits * ENERGY.sram_write_pj_per_bit * _PJ),
    ))
    ctx.records.net[nbytes] = record
    return record


def run_core(ctx: CoreContext, program: CoreProgram) -> None:
    """Spawn the core's three engine processes."""
    ctx.sim.process(memory_engine(ctx, program.mem), f"{ctx.name}.mem")
    ctx.sim.process(compute_engine(ctx, program.comp), f"{ctx.name}.comp")
    ctx.sim.process(network_engine(ctx, program.net), f"{ctx.name}.net")
