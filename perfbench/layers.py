"""Span recording for the traced run, from outside the simulator.

:class:`SpanRecorder` keeps every span in memory as four parallel
arrays (name, start, end, parent) and turns them into per-layer self
time and call counts when the run ends.  :func:`instrument` installs
wrappers around each layer's public functions for the duration of a
``with`` block and restores the originals on exit, so untraced runs
execute the simulator exactly as shipped.

Layers and the functions whose calls open their spans:

=====================  ====================================================
``engine``             ``run_loop`` (the event loop itself)
``cluster``            each event handler and the per-event prefill drain
                       that ``ClusterSim`` hands to ``run_loop``
``scheduler.admit``    ``ContinuousBatchScheduler.admit``
``scheduler.advance``  ``ContinuousBatchScheduler.advance``
``platform.decode``    ``RpuPlatform.decode_step``, ``GpuPlatform.decode_step``
``platform.prefill``   ``RpuPlatform.prefill``, ``GpuPlatform.prefill``
``kvstore.prefix``     ``KvBlockStore.acquire_prefix/peek_prefix/register_prefix``
``kvstore.swap``       ``KvBlockStore.swap_out/swap_in``
``kvstore.reclaim``    ``KvBlockStore.reclaim_cached``
``tenancy``            ``TokenBucket.take``
=====================  ====================================================

The harness opens the remaining spans itself around the calls it makes
(``requests.generate``, ``platform.build``, ``cluster`` for
``ClusterSim.run``, ``report``, ``compiler``, ``sim``).  Hot functions
whose own time is negligible are counted without a span:
``EventCalendar.push``, ``EventCalendar.pop_batch`` and
``DecodePod.step_cost``.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections.abc import Callable, Iterator

import repro.serving.cluster as cluster_mod
from repro.platform import GpuPlatform, RpuPlatform
from repro.serving.engine import EventCalendar
from repro.serving.kvstore import KvBlockStore
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.serving.tenancy import TokenBucket

#: (owner, attribute, span name) for every wrapped layer method.
SPANNED_METHODS: tuple[tuple[type, str, str], ...] = (
    (ContinuousBatchScheduler, "admit", "scheduler.admit"),
    (ContinuousBatchScheduler, "advance", "scheduler.advance"),
    (RpuPlatform, "decode_step", "platform.decode"),
    (GpuPlatform, "decode_step", "platform.decode"),
    (RpuPlatform, "prefill", "platform.prefill"),
    (GpuPlatform, "prefill", "platform.prefill"),
    (KvBlockStore, "acquire_prefix", "kvstore.prefix"),
    (KvBlockStore, "peek_prefix", "kvstore.prefix"),
    (KvBlockStore, "register_prefix", "kvstore.prefix"),
    (KvBlockStore, "swap_out", "kvstore.swap"),
    (KvBlockStore, "swap_in", "kvstore.swap"),
    (KvBlockStore, "reclaim_cached", "kvstore.reclaim"),
    (TokenBucket, "take", "tenancy"),
)

#: (owner, attribute, counter name) for count-only wrappers.
COUNTED_METHODS: tuple[tuple[type, str, str], ...] = (
    (EventCalendar, "push", "engine.push"),
    (EventCalendar, "pop_batch", "engine.pop_batch"),
    (cluster_mod.DecodePod, "step_cost", "cluster.step_cost"),
)


class SpanRecorder:
    """In-memory span store: name id, start, end and parent per span.

    Spans nest strictly (one thread, ``with``/``try`` discipline), so a
    span's children never overlap and its self time is its duration
    minus the sum of its children's durations.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Count-only counters, one single-element list cell each.
        self.counters: dict[str, list[int]] = {}

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def _open(self, ident: int) -> int:
        index = len(self.start)
        self.name_ix.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the harness's own code."""
        index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one ``name`` span (the
        body of :meth:`_open`/:meth:`_close` inlined: this runs on the
        simulator's hot paths)."""
        ident = self.name_id(name)
        stack = self._stack
        starts, ends = self.start, self.end
        add_name, add_parent = self.name_ix.append, self.parent.append
        add_start, add_end = starts.append, ends.append
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(starts)
            add_name(ident)
            add_parent(stack[-1] if stack else -1)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to bump counter ``name`` on every call."""
        cell = self.counter(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.name_ix[i]]] += ends[i] - starts[i] - child[i]
        return out

    def span_counts(self) -> dict[str, int]:
        """Number of spans per span name."""
        tally = [0] * len(self.names)
        for ident in self.name_ix:
            tally[ident] += 1
        return {name: tally[i] for i, name in enumerate(self.names)}

    def counts(self) -> dict[str, int]:
        """Span counts plus the count-only counters."""
        out = self.span_counts()
        out.update({name: cell[0] for name, cell in self.counters.items()})
        return out

    def write_chrome(self, path: str) -> None:
        """Every span as a Chrome trace-event file (``chrome://tracing``
        or Perfetto): one complete event per span, its parent's index in
        ``args``."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"traceEvents": [\n')
            for i in range(len(self.start)):
                event = {
                    "name": self.names[self.name_ix[i]], "ph": "X",
                    "pid": 0, "tid": 0,
                    "ts": (self.start[i] - origin) * 1e6,
                    "dur": (self.end[i] - self.start[i]) * 1e6,
                    "args": {"index": i, "parent": self.parent[i]},
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")


def _patch(owner: object, attr: str, replacement: Callable,
           undo: list[tuple[object, str, object]]) -> None:
    """Replace ``owner.attr`` (defined on ``owner`` itself, never
    inherited), remembering the original."""
    undo.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, replacement)


def _traced_loop(recorder: SpanRecorder, run_loop: Callable) -> Callable:
    """``run_loop`` as an ``engine`` span whose handler and after-hook
    calls are ``cluster`` spans (the cluster's code the loop drives)."""
    engine_loop = recorder.wrap("engine", run_loop)

    def traced_run_loop(calendar, handlers, *, stale=None, after=None,
                        observe=None):
        handlers = [recorder.wrap("cluster", h) for h in handlers]
        if after is not None:
            after = recorder.wrap("cluster", after)
        return engine_loop(calendar, handlers, stale=stale, after=after,
                           observe=observe)

    return traced_run_loop


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer boundary for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name in SPANNED_METHODS:
            _patch(owner, attr, recorder.wrap(name, vars(owner)[attr]), undo)
        for owner, attr, name in COUNTED_METHODS:
            _patch(owner, attr, recorder.count(name, vars(owner)[attr]), undo)
        _patch(cluster_mod, "run_loop",
               _traced_loop(recorder, cluster_mod.run_loop), undo)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
