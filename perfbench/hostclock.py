"""Host time in reference seconds.

Shared virtual machines change speed underneath a benchmark: on a 2-vCPU
2.0 GHz Xeon VM, a fixed pure-Python loop ran 1.1x-1.8x slower than its
fastest from one 3-second bucket to the next, and simulator runs of one
seed spread 15-30% between processes.  :class:`HostClock` measures that
drift while the simulator runs: a ``SIGALRM`` every
``SAMPLE_PERIOD_S`` runs a fixed reference loop and records how long it
took.  An interval is then reported twice:

- raw: wall seconds minus the time the sampler itself took;
- reference: raw seconds x ``LOOP_NOMINAL_S`` / the loop's mean time
  during the interval -- the interval's length on a host that runs the
  loop in ``LOOP_NOMINAL_S``.  Simulator and loop are both
  interpreter-bound and slow down together (the per-run spread of one
  seed fell from 11-17% raw to 3-5% in reference seconds on the VM
  above).

The handler only runs the loop and appends to a list, between two
bytecodes of the main thread, so it cannot change what the simulator
computes (every run's report digest is checked regardless).
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

#: How often the sampler measures the reference loop.
SAMPLE_PERIOD_S = 0.1
#: The reference loop's length in reference seconds (about its time on
#: the 2.0 GHz Xeon above, Python 3.11, in the VM's fast state).
LOOP_NOMINAL_S = 0.004
LOOP_ITERATIONS = 30_000


def reference_loop() -> int:
    """Fixed interpreter-bound work: dict stores and int arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(LOOP_ITERATIONS):
        table[i & 1023] = acc
        acc += i * 3 % 7
    return acc


@dataclass(frozen=True)
class Mark:
    wall: float
    spent: float  # sampler seconds so far
    samples: int  # samples taken so far


@dataclass(frozen=True)
class Span:
    """One measured interval."""

    raw_s: float
    factor: float  # reference seconds per raw second

    @property
    def ref_s(self) -> float:
        return self.raw_s * self.factor


class HostClock:
    """Context manager: samples the reference loop while active."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.loop_s.append(took)
        self.spent += took

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.spent, len(self.loop_s))

    def factor(self, start: Mark, end: Mark) -> float:
        """Reference seconds per raw second between two marks (one
        sample is taken on the spot if none fell inside)."""
        if end.samples == start.samples:
            self._sample()
            window = self.loop_s[-1:]
        else:
            window = self.loop_s[start.samples:end.samples]
        return LOOP_NOMINAL_S / statistics.fmean(window)

    def span(self, start: Mark, end: Mark, factor: float | None = None) -> Span:
        """The interval between two marks, net of the sampler's time,
        calibrated by ``factor`` (default: its own samples)."""
        raw = (end.wall - start.wall) - (end.spent - start.spent)
        return Span(raw, self.factor(start, end) if factor is None else factor)
