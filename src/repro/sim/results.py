"""Simulation results: latency, utilization, energy, traces."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.energy import EnergyMeter
from repro.sim.trace import PipelineTrace
from repro.util.stats import left_sum


@dataclass
class SimResult:
    """Outcome of simulating one decode step on a representative CU.

    All energies are *per simulated core*; scaling helpers convert to CU
    and system totals under the SPMD symmetry the compiler guarantees.
    The pipeline and buffer traces are core 0's; the other simulated
    cores record none.
    """

    latency_s: float
    num_cus: int
    cores_per_cu: int
    simulated_cores: int
    peak_flops_per_core: float
    mem_trace: PipelineTrace
    comp_trace: PipelineTrace
    net_trace: PipelineTrace
    meter: EnergyMeter
    mem_buffer_trace: list[tuple[float, float]]
    net_buffer_trace: list[tuple[float, float]]
    stalls: dict[str, float] = field(default_factory=dict)
    arbitration: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Utilization
    # ------------------------------------------------------------------
    @property
    def mem_utilization(self) -> float:
        return self.mem_trace.utilization(self.latency_s)

    @property
    def comp_utilization(self) -> float:
        """TMAC FLOP utilization (work-based, Fig 8's compute panel).

        Weight-streaming kernels occupy the decoder at the memory rate but
        only use TMACs at the workload's arithmetic intensity, so this is
        well below the decoder's busy fraction at low batch.
        """
        if self.latency_s == 0 or self.peak_flops_per_core == 0:  # simlint: ok[digest-safety] zero sentinels
            return 0.0
        work = self.comp_trace.total_work
        return min(work / (self.peak_flops_per_core * self.latency_s), 1.0)

    @property
    def decoder_occupancy(self) -> float:
        """Busy fraction of the compute pipeline front-end (stream decoder)."""
        return self.comp_trace.utilization(self.latency_s)

    @property
    def net_utilization(self) -> float:
        return self.net_trace.utilization(self.latency_s)

    # ------------------------------------------------------------------
    # Energy (scaled from simulated cores to system)
    # ------------------------------------------------------------------
    @property
    def _core_scale(self) -> float:
        return 1.0 / self.simulated_cores

    def energy_per_cu_j(self) -> dict[str, float]:
        """Joules per CU for this step, by pipeline group."""
        scale = self._core_scale * self.cores_per_cu
        return {
            group: self.meter.total_j(group) * scale
            for group in ("mem", "comp", "net")
        }

    def energy_per_token_j(self, batch_size: int = 1) -> float:
        """System energy per generated token."""
        per_cu = left_sum(self.energy_per_cu_j().values())
        return per_cu * self.num_cus / batch_size

    def avg_power_per_cu_w(self) -> float:
        if self.latency_s == 0:  # simlint: ok[digest-safety] zero sentinel
            return 0.0
        return left_sum(self.energy_per_cu_j().values()) / self.latency_s

    # ------------------------------------------------------------------
    def tokens_per_s(self, batch_size: int = 1) -> float:
        return batch_size / self.latency_s if self.latency_s else 0.0

    def kernel_table(self) -> list[tuple[str, float, float]]:
        """(kernel, span seconds, avg utilization) in execution order --
        the red-line annotations of Fig 8."""
        rows = []
        for kernel, (start, end, busy) in self.comp_trace.kernel_spans().items():
            span = end - start
            rows.append((kernel, span, busy / span if span else 0.0))
        return rows

    def summary(self) -> str:
        return (
            f"latency {self.latency_s * 1e6:.2f} us | util mem "
            f"{self.mem_utilization:.0%} comp {self.comp_utilization:.0%} "
            f"net {self.net_utilization:.0%} | "
            f"{self.avg_power_per_cu_w():.2f} W/CU"
        )
