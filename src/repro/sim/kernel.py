"""Minimal process-based discrete-event kernel.

The simulator runs generator-based processes.  A process yields:

- :class:`Timeout` -- resume after a simulated delay;
- :class:`Signal` -- resume when the signal fires (many waiters allowed);
- another :class:`Process` -- resume when that process finishes.

This is the same programming model as SimPy, implemented from scratch so
the repository is self-contained and the semantics are exactly what the
tests pin down: deterministic FIFO ordering of same-time events and
monotonically non-decreasing simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Generator
from typing import Any

#: What a process may yield.
Yieldable = "Timeout | Signal | Process"


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. running a finished simulator)."""


class Timeout:
    """Resume the yielding process after ``delay`` simulated seconds.

    It holds nothing but its delay, so one object may be yielded any
    number of times, by any number of processes.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        self.delay = delay


class Signal:
    """A one-shot event: processes wait on it; ``fire`` wakes them all.

    Re-firing an already-fired signal is a no-op; waiting on a fired
    signal resumes immediately.
    """

    __slots__ = ("sim", "fired", "_waiters", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: list[Process] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim._schedule(0.0, process, value)

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            self.sim._schedule(0.0, process, self.value)
        else:
            self._waiters.append(process)


class Process:
    """A running generator; finishes when the generator returns.

    :meth:`Simulator.run` resumes it and schedules what it yields.
    """

    __slots__ = ("generator", "name", "done", "_finished_signal")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "proc"):
        self.generator = generator
        self.name = name
        self.done = False
        self._finished_signal = Signal(sim)


class Simulator:
    """The event loop: a time-ordered heap of process resumptions.

    Heap entries are ``(time, seq, process, value)``; ``seq`` counts
    every resumption scheduled, so same-time events run in the order
    they were scheduled.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Process, Any]] = []
        self._counter = itertools.count()  # FIFO tie-break at equal times

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def process(self, generator: Generator, name: str = "proc") -> Process:
        """Register and start a process at the current time."""
        process = Process(self, generator, name)
        self._schedule(0.0, process)
        return process

    def signal(self) -> Signal:
        return Signal(self)

    # ------------------------------------------------------------------
    # Scheduling / running
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, process: Process, value: Any = None) -> None:
        heapq.heappush(
            self._heap, (self.now + delay, next(self._counter), process, value)
        )

    def run(self, until: float | None = None) -> float:
        """Run to quiescence (or to ``until``); returns the final time.

        Each event is popped once and resumes its process here.  A
        yielded :class:`Timeout` goes straight back on the heap, keyed
        ``(now + delay, seq)``; a :class:`Signal` or :class:`Process`
        takes the process as a waiter.  The first event later than
        ``until`` goes back on the heap under its own key, and the clock
        stops at ``until``, which may not lie before the current time.
        """
        now = self.now
        if until is not None and until < now:
            raise SimulationError(
                f"cannot run until {until}: the clock already reads {now}"
            )
        limit = math.inf if until is None else until
        heap = self._heap
        counter = self._counter
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            time, seq, process, value = heappop(heap)
            if time > limit:
                heappush(heap, (time, seq, process, value))
                self.now = limit
                return limit
            if time < now:
                raise SimulationError(f"time went backwards: {time} < {now}")
            self.now = now = time
            if process.done:
                raise SimulationError(f"process {process.name} resumed after finishing")
            try:
                yielded = process.generator.send(value)
            except StopIteration as stop:
                process.done = True
                process._finished_signal.fire(stop.value)
                continue
            if isinstance(yielded, Timeout):
                heappush(heap, (time + yielded.delay, next(counter), process, None))
            elif isinstance(yielded, Signal):
                yielded._add_waiter(process)
            elif isinstance(yielded, Process):
                yielded._finished_signal._add_waiter(process)
            else:
                raise SimulationError(
                    f"process {process.name} yielded {yielded!r}; expected "
                    f"Timeout, Signal, or Process"
                )
        return self.now
