"""The three decoupled engines of one reasoning core, and the plan they run.

Each engine is a process walking its stream of the core's plan:

- **memory engine**: HBM-CO pseudo-channel -> memory buffer (chunked DMA,
  runs ahead of compute until the buffer back-pressures);
- **compute engine**: blocks on operand validity (pipeline-arbiter reads),
  occupies the TMACs / HP-VOPs, pulls compressed weights through the
  stream decoder;
- **network engine**: ring collectives and forwards, landing payload
  windows in the network buffer.

Engines interact only through buffers and valid counters -- the paper's
data-dependent synchronization.

The cores of a CU run one SPMD program, so a simulation compiles it once
into a :class:`CorePlan` (:func:`build_plan`) and the engines of every
core iterate that plan.  Each step carries what its instruction means on
this system, derived once: entry keys, bytes and valid counts, a compute
instruction's busy time, a collective's per-core share of the ring and
its hop chain, and the :class:`~repro.sim.energy.EnergyRecord` its
interval is charged.  A plan holds one record per energy shape (a 405B
decode step has 22) and one :class:`Timeout` per distinct duration.

An engine takes an arbiter grant, a buffer allocation or read and a link
reservation inline, through the resource's non-blocking step
(``try_grant``, ``try_allocate``, ``try_read``, ``reserve``), and hands
over to the resource's process phase (``access``, ``allocate``,
``read``) only when the step cannot proceed and the engine must wait.
Either way it yields the same delays in the same order.  A link
reservation always succeeds; the engine then waits until the slot's
finish with a :class:`Timeout`.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from functools import partial
from typing import TypeVar

from repro.arch.specs import CORES_PER_CU, CU_HOP_LATENCY_S, ENERGY, MEM_PATH_WIRE_MM
from repro.arch.system import RpuSystem
from repro.isa.instructions import NetForward
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

#: The buffers a compute read may name, by their index in a read step.
_READ_BUFFERS = ("mem", "net")

#: A memory load: entry key, bytes, valid count, kernel label, record.
MemStep = tuple[str, float, int, str, EnergyRecord]
#: A compute instruction: its reads as ``(buffer index, key, consume)``
#: (index into ``_READ_BUFFERS``), its busy :class:`Timeout` (``None``
#: when it takes no time), kernel label, flops and record.
CompStep = tuple[
    tuple[tuple[int, str, bool], ...], Timeout | None, str, float, EnergyRecord
]
#: A network instruction: the entry a collective lands (``None`` for a
#: forward, which lands nothing), its local bytes and valid count, the
#: bytes it moves over the link (a collective's per-core share), its
#: hop-chain :class:`Timeout` (``None`` when there is none), kernel
#: label and record.
NetStep = tuple[str | None, float, int, float, Timeout | None, str, EnergyRecord]


@dataclass
class CorePlan:
    """One simulation's compiled core program, shared by all its cores."""

    mem: list[MemStep]
    comp: list[CompStep]
    net: list[NetStep]


_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


def _once(table: dict[_K, _V], key: _K, build: Callable[[_K], _V]) -> _V:
    """``table[key]``, built by ``build(key)`` the first time it is asked for."""
    value = table.get(key)
    if value is None:
        value = table[key] = build(key)
    return value


def build_plan(core: CoreProgram, system: RpuSystem, weight_dtype: DType) -> CorePlan:
    """Compile ``core`` for ``system``'s cores streaming ``weight_dtype``
    weights.

    Memory and network records are shared by bytes, compute records by
    ``(engine, flops, weight_bytes, out_bytes)``, and timeouts by delay.
    """
    spec = system.cu.core.spec
    device = system.cu.memory.energy.as_dict()
    decode_bandwidth = StreamDecoder(
        clock_hz=spec.clock_hz
    ).compressed_bandwidth_bytes_per_s(weight_dtype)
    mem_records: dict[float, EnergyRecord] = {}
    comp_records: dict[tuple[str, float, float, float], EnergyRecord] = {}
    net_records: dict[float, EnergyRecord] = {}
    timeouts: dict[float, Timeout] = {}

    memory_record = partial(_memory_record, device)
    mem = [
        (
            instr.dst.key,
            instr.nbytes,
            instr.valid_count,
            instr.kernel,
            _once(mem_records, instr.nbytes, memory_record),
        )
        for instr in core.mem
    ]

    comp: list[CompStep] = []
    for instr in core.comp:
        reads = tuple(
            (_read_buffer(read.slot.buffer), read.slot.key, read.consume)
            for read in instr.reads
        )
        rate = spec.peak_flops if instr.engine == "tmac" else spec.peak_vops
        duration = instr.flops / rate if instr.flops else 0.0
        if instr.weight_bytes:
            duration = max(duration, instr.weight_bytes / decode_bandwidth)
        shape = (instr.engine, instr.flops, instr.weight_bytes, instr.out_bytes)
        comp.append((
            reads,
            _once(timeouts, duration, Timeout) if duration else None,
            instr.kernel,
            instr.flops,
            _once(comp_records, shape, _compute_record),
        ))

    net: list[NetStep] = []
    for instr in core.net:
        if isinstance(instr, NetForward):
            net.append((
                None, 0.0, 0, instr.nbytes, None, instr.kernel,
                _once(net_records, instr.nbytes, _network_record),
            ))
            continue
        # This core's share of the CU's ring traffic: the full payload
        # crosses the CU interface once, split across its cores.
        share = instr.payload_bytes / CORES_PER_CU
        # Serial hop chain of the pipelined ring collective.
        hop_chain = (instr.participants - 1) * CU_HOP_LATENCY_S
        net.append((
            instr.dst.key,
            instr.local_bytes,
            instr.valid_count,
            share,
            _once(timeouts, hop_chain, Timeout) if hop_chain else None,
            instr.kernel,
            _once(net_records, share + instr.local_bytes, _network_record),
        ))
    return CorePlan(mem, comp, net)


def _read_buffer(name: str) -> int:
    if name not in _READ_BUFFERS:
        raise KeyError(f"core has no buffer {name!r}")
    return _READ_BUFFERS.index(name)


def _memory_record(device: dict[str, float], nbytes: float) -> EnergyRecord:
    bits = nbytes * 8
    wire = ENERGY.bus_pj_per_bit_mm * MEM_PATH_WIRE_MM
    return EnergyRecord((
        ("act", bits * device["activation"] * _PJ),
        ("mov-mem", bits * device["movement"] * _PJ),
        ("tsvs", bits * device["tsv"] * _PJ),
        ("io", bits * device["io"] * _PJ),
        ("mov-si", bits * wire * _PJ),
        ("sram-w", bits * ENERGY.sram_write_pj_per_bit * _PJ),
    ))


def _compute_record(shape: tuple[str, float, float, float]) -> EnergyRecord:
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
    return EnergyRecord(parts)


def _network_record(nbytes: float) -> EnergyRecord:
    bits = nbytes * 8
    return EnergyRecord((
        ("io", bits * ENERGY.ucie_in_package_pj_per_bit * _PJ),
        ("sram_w", bits * ENERGY.sram_write_pj_per_bit * _PJ),
    ))


@dataclass
class CoreContext:
    """Everything one core's engines share."""

    sim: Simulator
    name: str
    plan: CorePlan
    mem_buffer: SramBuffer
    net_buffer: SramBuffer
    channel: BandwidthResource  # HBM-CO pseudo-channel
    link: BandwidthResource  # this core's share of the CU ring interface
    arbiter: PipelineArbiter
    meter: EnergyMeter
    # Busy-interval logs; ``None`` on a core whose traces are not reported.
    mem_trace: PipelineTrace | None
    comp_trace: PipelineTrace | None
    net_trace: PipelineTrace | None


# ----------------------------------------------------------------------
# The engines
# ----------------------------------------------------------------------
def memory_engine(ctx: CoreContext):
    sim = ctx.sim
    buffer = ctx.mem_buffer
    try_allocate = buffer.try_allocate
    commit = buffer.commit
    reserve = ctx.channel.reserve
    arbiter = ctx.arbiter
    try_grant = arbiter.try_grant
    release = arbiter.release
    hold = arbiter.hold
    charge = ctx.meter.charge
    trace = ctx.mem_trace
    for key, nbytes, valid_count, kernel, record in ctx.plan.mem:
        if not try_allocate(key, nbytes, valid_count):
            yield from buffer.allocate(key, nbytes, valid_count)
        start, end = reserve(nbytes)
        yield Timeout(end - sim.now)
        if try_grant():
            yield hold
            release()
        else:
            yield from arbiter.access("memory")
        commit(key)
        if trace is not None:
            trace.add(start, end, kernel)
        charge("mem", start, end, record)


def compute_engine(ctx: CoreContext):
    sim = ctx.sim
    buffers = (ctx.mem_buffer, ctx.net_buffer)  # in ``_READ_BUFFERS`` order
    try_reads = tuple(buffer.try_read for buffer in buffers)
    arbiter = ctx.arbiter
    try_grant = arbiter.try_grant
    release = arbiter.release
    hold = arbiter.hold
    charge = ctx.meter.charge
    trace = ctx.comp_trace
    for reads, busy, kernel, flops, record in ctx.plan.comp:
        for index, key, consume in reads:
            if try_grant():
                yield hold
                release()
            else:
                yield from arbiter.access("compute")
            if not try_reads[index](key, consume):
                yield from buffers[index].read(key, consume)
        start = sim.now
        if busy is not None:
            yield busy
        end = sim.now
        if trace is not None:
            trace.add(start, end, kernel, work=flops)
        charge("comp", start, end, record)


def network_engine(ctx: CoreContext):
    sim = ctx.sim
    buffer = ctx.net_buffer
    try_allocate = buffer.try_allocate
    commit = buffer.commit
    reserve = ctx.link.reserve
    arbiter = ctx.arbiter
    try_grant = arbiter.try_grant
    release = arbiter.release
    hold = arbiter.hold
    charge = ctx.meter.charge
    trace = ctx.net_trace
    for key, local_bytes, valid_count, link_bytes, hop, kernel, record in ctx.plan.net:
        if key is not None and not try_allocate(key, local_bytes, valid_count):
            yield from buffer.allocate(key, local_bytes, valid_count)
        start, end = reserve(link_bytes)
        yield Timeout(end - sim.now)
        if key is None:
            # A forward lands nothing: its interval is its link slot.
            if trace is not None:
                trace.add(start, end, kernel)
            charge("net", start, end, record)
            continue
        if hop is not None:
            yield hop
        if try_grant():
            yield hold
            release()
        else:
            yield from arbiter.access("network")
        commit(key)
        if trace is not None:
            trace.add(start, end, kernel)
        charge("net", start, max(sim.now, start), record)


def run_core(ctx: CoreContext) -> None:
    """Spawn the core's three engine processes."""
    ctx.sim.process(memory_engine(ctx), f"{ctx.name}.mem")
    ctx.sim.process(compute_engine(ctx), f"{ctx.name}.comp")
    ctx.sim.process(network_engine(ctx), f"{ctx.name}.net")
