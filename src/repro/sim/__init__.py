"""Event-driven RPU simulator (paper Section VI).

A process-based discrete-event simulator that executes compiled RPU
programs with symbolic transactions (address, size, type -- no tensor
data), reproducing the decoupled-pipeline behaviour of the reasoning core:

- :mod:`repro.sim.kernel` -- the event kernel (processes, timeouts, signals);
- :mod:`repro.sim.buffers` -- SRAM buffers with per-entry valid counters;
- :mod:`repro.sim.arbiter` -- pipeline arbiters (prioritized, serialized
  access to buffer entries);
- :mod:`repro.sim.resources` -- FIFO bandwidth resources (memory channels,
  ring links);
- :mod:`repro.sim.engines` -- the three DMA/pipeline engines per core;
- :mod:`repro.sim.energy` -- per-component energy totals;
- :mod:`repro.sim.trace` -- utilization timelines and buffer occupancy;
- :mod:`repro.sim.system_sim` -- representative-CU simulation of an N-CU
  system (all CUs are symmetric under column sharding, so one CU is
  simulated in detail and ring collectives model the rest -- the same
  reduction the paper's Fig 8 visualizes).
"""

from repro.sim.kernel import Simulator, Timeout, Signal
from repro.sim.buffers import SramBuffer
from repro.sim.arbiter import PipelineArbiter
from repro.sim.resources import BandwidthResource
from repro.sim.results import SimResult
from repro.sim.system_sim import simulate_decode_step

__all__ = [
    "BandwidthResource",
    "PipelineArbiter",
    "Signal",
    "SimResult",
    "Simulator",
    "SramBuffer",
    "Timeout",
    "simulate_decode_step",
]
