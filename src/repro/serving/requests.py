"""Request-level traffic generation for the fleet simulator.

A serving fleet sees a *stream* of queries, not one workload: arrivals
cluster (diurnal bursts, agentic fan-out), prompt and reasoning lengths
vary by orders of magnitude, and traffic mixes several models.  A
:class:`TrafficSpec` declares those statistics -- an arrival process
plus a :class:`RequestShape`, a mix of :class:`TrafficClass` rows, or a
tenant roster -- and :meth:`TrafficSpec.requests` turns them into a
concrete, seeded, replayable list of :class:`Request` objects that
:mod:`repro.serving.cluster` consumes.

Two arrival processes are modeled:

- **Poisson**: memoryless arrivals at a fixed rate -- the standard
  open-loop load model (vLLM / Splitwise benchmarking methodology);
- **Bursty**: a two-state Markov-modulated Poisson process that
  alternates busy periods (rate scaled up by ``burst_factor``) and quiet
  periods, keeping the same *average* rate.  Bursts are what stress a
  continuous-batching scheduler's admission control.

Arrivals can also come from an :class:`ArrivalTrace` -- a replayable
schedule loaded from a JSON/CSV trace file or synthesized by the
:meth:`ArrivalTrace.diurnal` / :meth:`ArrivalTrace.flash_crowd`
generators (non-homogeneous Poisson via thinning) -- which a
``TrafficSpec(trace=...)`` replays, sampling any lengths the trace
leaves unspecified.  Multi-tenant traffic merges one stream per tenant
with :func:`merge_requests`.

Traffic can carry **shared-prefix structure**: with
``RequestShape.prefix_share_prob`` set, arrivals join prefix groups
(same ``Request.prefix_id``, identical first ``prefix_len`` prompt
tokens -- agentic fan-out sub-queries, shared system prompts) that a
prefix-caching KV store (:mod:`repro.serving.kvstore`) can serve from
resident blocks.

Prompt/decode lengths are sampled log-normally (heavy right tail, like
production traces), *resampling* out-of-bounds draws (bounded retries)
rather than clamping them -- clamping piles probability mass onto the
bounds and silently shifts the realized mean.  The realized mean is the
truncated-lognormal mean, which :func:`truncated_lognormal_mean`
computes exactly so offered token load stays auditable.  All randomness
flows through one ``random.Random(seed)`` so a :class:`TrafficSpec` is
fully deterministic given its configuration.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import itertools
import json
import math
import random
from dataclasses import KW_ONLY, dataclass, fields, replace
from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.models.config import ModelConfig
from repro.models.dtypes import DType
from repro.models.workload import Workload
from repro.serving.tenancy import TenantSpec, check_roster_names
from repro.util.stats import left_sum


class ArrivalProcess(enum.Enum):
    """How request inter-arrival times are drawn."""

    POISSON = "poisson"
    BURSTY = "bursty"


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def truncated_lognormal_mean(
    mean: float, sigma: float, lo: float, hi: float
) -> float:
    """Exact mean of a log-normal with (unclamped) mean ``mean`` and
    log-space spread ``sigma``, truncated to ``[lo, hi]`` by resampling.

    This is the length the traffic generator actually realizes, so the
    offered token load of a :class:`TrafficClass` is
    ``rate_rps * truncated_lognormal_mean(...)``, not ``rate * mean``
    (the two coincide only when the bounds are loose).
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mu = math.log(mean) - sigma * sigma / 2.0
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    mass = _phi(b) - _phi(a)
    if mass <= 0.0:
        # Degenerate bounds: everything lands on one edge.
        return lo if math.log(mean) < math.log(lo) else hi
    return mean * (_phi(b - sigma) - _phi(a - sigma)) / mass


@dataclass(frozen=True)
class Request:
    """One query submitted to the fleet."""

    request_id: int
    arrival_s: float
    model: ModelConfig
    prompt_len: int
    decode_len: int
    weight_dtype: DType = DType.MXFP4
    kv_dtype: DType = DType.FP8
    #: Scheduling priority; under paged KV the *lowest*-priority active
    #: request is preempted first when the block pool runs dry.
    priority: int = 0
    #: Shared-prefix group identity: requests with the same
    #: ``prefix_id`` start with identical first ``prefix_len`` prompt
    #: tokens (a shared system prompt, or an agentic fan-out parent
    #: context), so a prefix-caching KV store can serve those tokens
    #: from resident blocks.  ``None`` = no shared structure.
    prefix_id: int | None = None
    prefix_len: int = 0
    #: Owning tenant's name ("" = untagged single-tenant traffic).  The
    #: fleet simulator's admission control charges this tenant's token
    #: bucket and the report's ``per_tenant()`` groups on it.
    tenant: str = ""
    #: Tool-call pauses: ``(tokens_done, think_time_s)`` pairs, strictly
    #: ascending in ``tokens_done``.  After emitting that many decode
    #: tokens the sequence parks -- its KV blocks stay on the pod (or go
    #: to the host swap tier) while the "tool" runs -- and decode
    #: resumes ``think_time_s`` later.  Empty (the default) decodes
    #: straight through.
    tool_pauses: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.prompt_len < 1:
            raise ValueError(f"prompt_len must be >= 1, got {self.prompt_len}")
        if self.decode_len < 1:
            raise ValueError(f"decode_len must be >= 1, got {self.decode_len}")
        if self.prefix_len < 0 or self.prefix_len > self.prompt_len:
            raise ValueError(
                f"prefix_len must be in [0, prompt_len], got {self.prefix_len}"
            )
        if self.prefix_id is None and self.prefix_len > 0:
            raise ValueError("prefix_len > 0 requires a prefix_id")
        last = 0
        for at, think_s in self.tool_pauses:
            if not last < at < self.decode_len:
                raise ValueError(
                    "tool_pauses must be strictly ascending and inside "
                    f"(0, decode_len), got pause at {at} of {self.tool_pauses}"
                )
            if not think_s > 0.0:
                raise ValueError(
                    f"tool pause think times must be positive, got {think_s}"
                )
            last = at

    @property
    def total_len(self) -> int:
        """Context length at the last generated token."""
        return self.prompt_len + self.decode_len

    def workload(
        self,
        *,
        weight_dtype: DType | None = None,
        kv_dtype: DType | None = None,
    ) -> Workload:
        """The single-query workload this request corresponds to.

        The dtype overrides let a serving fleet charge this request at
        *its* configured serving point rather than the request's
        defaults (the pod, not the client, decides storage dtypes).
        """
        return Workload(
            self.model,
            batch_size=1,
            seq_len=self.total_len,
            decode_len=self.decode_len,
            weight_dtype=weight_dtype or self.weight_dtype,
            kv_dtype=kv_dtype or self.kv_dtype,
        )


def sibling_ttft_mean(records: Iterable, founders: set[int]) -> float:
    """Mean TTFT over completed *sibling* records: shared-prefix
    requests that are not their group's founder (see
    :func:`prefix_founders`).

    ``records`` are completed
    :class:`~repro.serving.cluster.RequestRecord` objects (anything with
    ``.request`` and ``.ttft_s``).  Siblings are the requests a
    late-binding prefix cache serves from resident blocks, so their
    TTFT isolates the benefit.  Returns 0.0 with no siblings.
    """
    values = [
        record.ttft_s
        for record in records
        if record.request.prefix_id is not None
        and record.request.request_id not in founders
    ]
    return left_sum(values) / len(values) if values else 0.0


def prefix_founders(requests: Iterable[Request]) -> set[int]:
    """Request ids of each prefix group's *founder* (its first-arriving
    member).

    The founder is the request that pays the shared prefix's prefill;
    every later group member (a *sibling*) can be served from the
    prefix cache.  Splitting a report along this line is how the
    late-binding analyses measure sibling TTFT separately from founder
    TTFT.  Requests without a ``prefix_id`` are neither.  Groups are
    keyed by ``(model, prefix_id)``, matching the simulator's prefix
    index, so hand-built traffic reusing an id across models gets one
    founder per model.
    """
    seen: set[tuple[str, int]] = set()
    founders: set[int] = set()
    for request in sorted(
        requests, key=lambda r: (r.arrival_s, r.request_id)
    ):
        if request.prefix_id is None:
            continue
        key = (request.model.name, request.prefix_id)
        if key not in seen:
            seen.add(key)
            founders.add(request.request_id)
    return founders


@dataclass(frozen=True, kw_only=True)
class RequestShape:
    """What a traffic mix's requests look like: log-normal lengths,
    priority, shared-prefix and reasoning structure.  Declared, defaulted
    and checked once here for :class:`TrafficClass` (one model's share
    of a mix) and :class:`TrafficSpec` (a whole offered load); every
    knob is keyword-only.
    """

    prompt_mean: int = 2048
    decode_mean: int = 1024
    prompt_sigma: float = 0.6  # log-space spread of the log-normal
    decode_sigma: float = 0.6
    #: Priority stamped on every request (paged-KV preemption evicts
    #: the lowest priority first).
    priority: int = 0
    #: Shared-prefix structure: with probability ``prefix_share_prob``
    #: an arrival joins the class's open prefix group (same
    #: ``prefix_id``, identical first ``prefix_len`` prompt tokens)
    #: instead of minting a fresh prefix; groups close after
    #: ``prefix_fanout`` members.  The group's shared prefix is
    #: ``prefix_frac`` of its founder's sampled prompt.  0.0 (the
    #: default) disables sharing and leaves the generated stream --
    #: including its RNG consumption -- identical to before.
    prefix_share_prob: float = 0.0
    prefix_fanout: int = 8
    prefix_frac: float = 0.5
    #: Reasoning test-time-scaling structure (all defaults off; until a
    #: knob is turned on the generated stream -- including its RNG
    #: consumption -- is identical to before).  ``cot_turns`` splits
    #: decode into that many sampled chain-of-thought bursts separated
    #: by tool-call pauses whose think time is log-normal with mean
    #: ``think_time_mean_s`` (spread ``think_time_sigma``); the request
    #: parks its KV on the pod between turns.
    cot_turns: int = 1
    think_time_mean_s: float = 2.0
    think_time_sigma: float = 0.6
    #: Self-consistency fan-out: each logical arrival emits this many
    #: samples at the same instant, sharing the *full* prompt as a fresh
    #: prefix group (each sample draws its own decode shape).  Takes
    #: precedence over ``prefix_share_prob`` group assignment.
    self_consistency_n: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.prefix_share_prob <= 1.0:
            raise ValueError("prefix_share_prob must be in [0, 1]")
        if self.prefix_fanout < 1:
            raise ValueError("prefix_fanout must be >= 1")
        if not 0.0 < self.prefix_frac <= 1.0:
            raise ValueError("prefix_frac must be in (0, 1]")
        if self.cot_turns < 1:
            raise ValueError(f"cot_turns must be >= 1, got {self.cot_turns}")
        if not self.think_time_mean_s > 0:
            raise ValueError("think_time_mean_s must be positive")
        if not self.think_time_sigma > 0:
            raise ValueError("think_time_sigma must be positive")
        if self.self_consistency_n < 1:
            raise ValueError(
                f"self_consistency_n must be >= 1, got {self.self_consistency_n}"
            )


@dataclass(frozen=True)
class TrafficClass(RequestShape):
    """One model's share of the fleet traffic and its length statistics.

    ``prompt_mean``/``decode_mean`` are the means of the *untruncated*
    log-normal length distributions.  Out-of-bounds draws are resampled,
    so the realized mean is the truncated-lognormal mean --
    :attr:`expected_prompt_len` / :attr:`expected_decode_len` -- and the
    offered token load is ``rate_rps * expected_decode_len`` (slightly
    below ``rate_rps * decode_mean`` when the bounds are tight).
    """

    model: ModelConfig
    _: KW_ONLY
    weight: float = 1.0
    min_len: int = 16
    max_prompt: int = 16384
    max_decode: int = 8192

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.prompt_mean < self.min_len or self.decode_mean < self.min_len:
            raise ValueError("mean lengths must be >= min_len")
        super().__post_init__()

    @property
    def expected_prompt_len(self) -> float:
        """Realized mean prompt length after truncation to bounds."""
        return truncated_lognormal_mean(
            self.prompt_mean, self.prompt_sigma, self.min_len, self.max_prompt
        )

    @property
    def expected_decode_len(self) -> float:
        """Realized mean decode length after truncation to bounds."""
        return truncated_lognormal_mean(
            self.decode_mean, self.decode_sigma, self.min_len, self.max_decode
        )


def reasoning_traffic(model: ModelConfig) -> TrafficClass:
    """The paper's motivating workload: short prompt, long chain of
    thought (Section IX's 2k prompt / 4k reasoning split)."""
    return TrafficClass(model, prompt_mean=2048, decode_mean=4096)


# ----------------------------------------------------------------------
# Arrival traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceRow:
    """One arrival in an :class:`ArrivalTrace`.

    Only the timestamp is mandatory; lengths left ``None`` are sampled
    from the replaying :class:`TrafficSpec`'s traffic classes, so a
    timestamps-only production trace still exercises realistic length
    distributions.
    """

    arrival_s: float
    prompt_len: int | None = None
    decode_len: int | None = None
    priority: int | None = None

    def __post_init__(self) -> None:
        if self.prompt_len is not None and self.prompt_len < 1:
            raise ValueError(f"prompt_len must be >= 1, got {self.prompt_len}")
        if self.decode_len is not None and self.decode_len < 1:
            raise ValueError(f"decode_len must be >= 1, got {self.decode_len}")


def _thinned_poisson(
    rate_fn: Callable[[float], float],
    peak_rate: float,
    duration_s: float,
    seed: int,
) -> list[float]:
    """Arrival times of a non-homogeneous Poisson process on
    ``[0, duration_s)`` with intensity ``rate_fn``, by thinning
    (Lewis & Shedler): draw candidates at the constant ``peak_rate``
    envelope and accept each with probability ``rate_fn(t)/peak_rate``.
    """
    rng = random.Random(seed)
    times: list[float] = []
    now = 0.0
    while True:
        now += rng.expovariate(peak_rate)
        if now >= duration_s:
            return times
        if rng.random() * peak_rate <= rate_fn(now):
            times.append(now)


@dataclass(frozen=True)
class ArrivalTrace:
    """A replayable open-loop arrival schedule.

    Traces decouple *when* requests arrive from *what* they look like:
    a :class:`TrafficSpec` with ``trace=`` walks the rows, fills in
    lengths the trace leaves unspecified from its traffic classes, and
    returns ordinary :class:`Request` objects.  Load from production
    logs with :meth:`from_json` / :meth:`from_csv`, or synthesize the
    two shapes Poisson can't express -- :meth:`diurnal` (sinusoidal
    day/night swing) and :meth:`flash_crowd` (a rectangular rate spike,
    the load-shedding stress test).

    Rows must be time-ordered: a non-monotone trace almost always means
    a corrupted or mis-sorted log, so it is rejected loudly (with the
    offending row index) rather than silently re-sorted.
    """

    rows: tuple[TraceRow, ...] = ()

    def __post_init__(self) -> None:
        last = 0.0
        for index, row in enumerate(self.rows):
            if not math.isfinite(row.arrival_s) or row.arrival_s < 0:
                raise ValueError(
                    f"trace row {index}: arrival_s must be finite and >= 0,"
                    f" got {row.arrival_s}"
                )
            if row.arrival_s < last:
                raise ValueError(
                    f"trace row {index}: non-monotone arrival_s"
                    f" ({row.arrival_s} after {last}); traces must be"
                    " sorted by arrival time"
                )
            last = row.arrival_s

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def duration_s(self) -> float:
        """Timestamp of the last arrival (0.0 for an empty trace)."""
        return self.rows[-1].arrival_s if self.rows else 0.0

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_times(cls, times: Iterable[float]) -> "ArrivalTrace":
        """A timestamps-only trace (lengths sampled at replay)."""
        return cls(tuple(TraceRow(arrival_s=t) for t in times))

    @classmethod
    def from_json(cls, path: str) -> "ArrivalTrace":
        """Load a trace from a JSON file: a list of objects with
        required ``arrival_s`` and optional ``prompt_len`` /
        ``decode_len`` / ``priority`` (see README for the format spec).
        """
        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, list):
            raise ValueError(
                f"{path}: trace JSON must be a list of row objects"
            )
        rows = []
        for index, entry in enumerate(payload):
            if not isinstance(entry, dict) or "arrival_s" not in entry:
                raise ValueError(
                    f"{path}: row {index} must be an object with arrival_s"
                )
            rows.append(_trace_row(path, index, entry))
        return cls(tuple(rows))

    @classmethod
    def from_csv(cls, path: str) -> "ArrivalTrace":
        """Load a trace from a CSV file with an ``arrival_s,prompt_len,
        decode_len[,priority]`` header; empty cells mean "sample it"."""
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or "arrival_s" not in reader.fieldnames:
                raise ValueError(f"{path}: trace CSV needs an arrival_s column")
            rows = [
                _trace_row(path, index, entry)
                for index, entry in enumerate(reader)
            ]
        return cls(tuple(rows))

    @classmethod
    def diurnal(
        cls,
        rate_rps: float,
        duration_s: float,
        *,
        period_s: float | None = None,
        amplitude: float = 0.5,
        seed: int = 0,
    ) -> "ArrivalTrace":
        """A sinusoidal day/night arrival pattern:
        ``rate(t) = rate_rps * (1 + amplitude * sin(2 pi t / period_s))``
        starting on the rising edge.  ``period_s`` defaults to
        ``duration_s`` (one full cycle over the run); ``amplitude`` in
        [0, 1] sets the swing (0.5 = peak is 3x the trough).
        """
        if rate_rps <= 0 or duration_s <= 0:
            raise ValueError("rate_rps and duration_s must be > 0")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        period = duration_s if period_s is None else period_s
        if period <= 0:
            raise ValueError(f"period_s must be > 0, got {period}")
        omega = 2.0 * math.pi / period
        times = _thinned_poisson(
            lambda t: rate_rps * (1.0 + amplitude * math.sin(omega * t)),
            rate_rps * (1.0 + amplitude),
            duration_s,
            seed,
        )
        return cls.from_times(times)

    @classmethod
    def flash_crowd(
        cls,
        base_rps: float,
        duration_s: float,
        *,
        peak_rps: float | None = None,
        spike_start_s: float | None = None,
        spike_duration_s: float | None = None,
        seed: int = 0,
    ) -> "ArrivalTrace":
        """A rectangular rate spike over a calm baseline -- the event
        that separates fleets with load shedding from fleets without.
        Defaults: the spike peaks at 4x base, starts a third of the way
        in, and lasts a sixth of the run.
        """
        if base_rps <= 0 or duration_s <= 0:
            raise ValueError("base_rps and duration_s must be > 0")
        peak = 4.0 * base_rps if peak_rps is None else peak_rps
        start = duration_s / 3.0 if spike_start_s is None else spike_start_s
        width = (
            duration_s / 6.0 if spike_duration_s is None else spike_duration_s
        )
        if peak < base_rps:
            raise ValueError("peak_rps must be >= base_rps")
        if start < 0 or width <= 0:
            raise ValueError("need spike_start_s >= 0 and spike_duration_s > 0")
        times = _thinned_poisson(
            lambda t: peak if start <= t < start + width else base_rps,
            peak,
            duration_s,
            seed,
        )
        return cls.from_times(times)


def _trace_row(path: str, index: int, cells: Mapping[str, object]) -> TraceRow:
    """Row ``index`` of trace file ``path`` from its JSON object or CSV
    record.  Absent or blank cells mean "sample it"; a malformed cell
    raises a ``ValueError`` naming the file, the row and the column."""
    arrival_s, *counts = (
        _trace_cell(path, index, column, cells.get(column))
        for column in ("arrival_s", "prompt_len", "decode_len", "priority")
    )
    if arrival_s is None:
        raise ValueError(f"{path}: row {index} missing arrival_s")
    try:
        return TraceRow(arrival_s, *(None if n is None else int(n) for n in counts))
    except ValueError as error:
        raise ValueError(f"{path}: row {index}: {error}") from None


def _trace_cell(path: str, index: int, column: str, value: object) -> float | None:
    """A JSON number or numeric CSV text, integral (``3``, ``3.0``) in
    every column but ``arrival_s``; ``None`` when absent or blank."""
    if value is None or (isinstance(value, str) and not value.strip()):
        return None
    number: float | None = None
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            number = float(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    integral = column != "arrival_s"
    if number is None or (integral and not number.is_integer()):
        kind = "an integer" if integral else "a number"
        raise ValueError(
            f"{path}: row {index} column {column} must be {kind}, got {value!r}"
        )
    return number


def merge_requests(*streams: Iterable[Request]) -> list[Request]:
    """Interleave several request streams into one, ordered by arrival
    time and renumbered with globally unique ``request_id``s.

    Ties on ``arrival_s`` break by stream position (earlier stream
    first), keeping the merge deterministic.  This is how multi-tenant
    traffic is assembled: each tenant generates independently (own
    seed, own classes), then the fleet sees one merged open-loop
    stream.
    """
    tagged = [
        (request.arrival_s, stream_index, position, request)
        for stream_index, stream in enumerate(streams)
        for position, request in enumerate(stream)
    ]
    tagged.sort(key=lambda item: item[:3])
    return [
        replace(request, request_id=index)
        for index, (_, _, _, request) in enumerate(tagged)
    ]


@dataclass(frozen=True, kw_only=True)
class TrafficSpec(RequestShape):
    """Offered load -- the one way to declare traffic.

    ``rate_rps`` is the average arrival rate across the whole mix.  The
    inherited :class:`RequestShape` knobs describe one traffic class of
    the model given to :meth:`requests`; explicit ``classes`` override
    them, each arrival picking a class with probability proportional to
    its weight.  Every knob is keyword-only and checked at construction.
    """

    rate_rps: float = 1.0
    duration_s: float = 30.0
    process: ArrivalProcess = ArrivalProcess.POISSON
    seed: int = 0
    #: Priority *mix*: when non-empty, the single traffic class is
    #: split into one equal-weight copy per listed priority (so the
    #: PRIORITY prefill policy and the paged preempter have contrast to
    #: act on).  Overrides :attr:`priority`; ignored with explicit
    #: ``classes``.
    priorities: tuple[int, ...] = ()
    #: Bursty process: busy-state rate multiplier and mean state dwell time.
    burst_factor: float = 4.0
    burst_dwell_s: float = 5.0
    classes: tuple[TrafficClass, ...] | None = None
    #: Replay this arrival schedule instead of sampling Poisson/bursty
    #: arrivals (``duration_s`` and ``rate_rps`` are then ignored for
    #: timing; lengths the trace leaves unspecified still come from the
    #: class statistics above).
    trace: ArrivalTrace | None = None
    #: Multi-tenant form: when non-empty, this spec is purely a roster
    #: -- each tenant's own nested ``TrafficSpec`` generates its stream
    #: (own seed/trace/lengths), requests are tagged with the tenant's
    #: name and priority offset, and the fleet sees the merged arrival
    #: order.  The flat single-mix knobs above are the one-tenant
    #: shorthand for the same thing (and stay byte-identical to the
    #: pre-tenancy generator -- no merge, no tagging).
    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.classes is not None and not self.classes:
            raise ValueError("classes needs at least one traffic class")
        if not self.rate_rps > 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if not self.burst_factor >= 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if self.classes is None and not self.tenants:
            # The classes this spec builds itself take TrafficClass's
            # default min_len, so check their mean lengths now.
            for name in ("prompt_mean", "decode_mean"):
                if getattr(self, name) < TrafficClass.min_len:
                    raise ValueError(
                        f"{name} must be >= {TrafficClass.min_len} (a traffic "
                        f"class's min_len), got {getattr(self, name)}"
                    )
        if not self.tenants:
            return
        check_roster_names(self.tenants)
        for tenant in self.tenants:
            if not isinstance(tenant.traffic, TrafficSpec):
                raise ValueError(
                    f"tenant {tenant.name!r} needs a TrafficSpec as its "
                    f"traffic, got {tenant.traffic!r}"
                )
            if tenant.traffic.tenants:
                raise ValueError(
                    f"tenant {tenant.name!r} nests its own tenants; "
                    "rosters are one level deep"
                )
        if self.trace is not None:
            raise ValueError(
                "a tenant roster cannot carry a top-level trace; give "
                "each tenant's TrafficSpec its own"
            )

    def traffic_classes(self, model: ModelConfig) -> tuple[TrafficClass, ...]:
        """``classes``, or one ``model`` class with this spec's shape
        knobs per entry of ``priorities``."""
        if self.classes is not None:
            return self.classes
        shape = {f.name: getattr(self, f.name) for f in fields(RequestShape)}
        return tuple(
            TrafficClass(model, **{**shape, "priority": priority})
            for priority in self.priorities or (self.priority,)
        )

    def requests(self, model: ModelConfig) -> list[Request]:
        """The seeded, replayable request stream, sorted by arrival
        (``model`` is ignored with explicit ``classes``)."""
        if not self.tenants:
            # The single-mix path stays byte-identical to the
            # pre-tenancy generator: no tagging, no merge/renumber.
            return self._stream(model)
        streams = [
            [
                replace(
                    request,
                    tenant=tenant.name,
                    priority=request.priority + tenant.priority,
                )
                for request in tenant.traffic._stream(model)
            ]
            for tenant in self.tenants
        ]
        return merge_requests(*streams)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    #: Out-of-bounds draws are resampled at most this many times before
    #: falling back to a clamp (keeps sampling O(1) worst-case; with
    #: sane bounds the fallback probability is p_out**8, i.e. nil).
    MAX_LENGTH_RESAMPLES = 8

    def _stream(self, model: ModelConfig) -> list[Request]:
        """One flat mix's requests: the trace's rows, or arrivals
        sampled in ``[0, duration_s)``, each through the same loop.

        RNG order: every sampled arrival time first; then per arrival
        its class, the lengths the row leaves unset and the prefix-group
        draw; then per sample a sibling's decode re-draw and CoT turns.
        """
        classes = self.traffic_classes(model)
        total_weight = left_sum(cls.weight for cls in classes)
        rng = random.Random(self.seed)
        # (arrival_s, prompt_len, decode_len, priority); None = sample it.
        rows: list[tuple[float, int | None, int | None, int | None]]
        if self.trace is not None:
            rows = [
                (row.arrival_s, row.prompt_len, row.decode_len, row.priority)
                for row in self.trace.rows
            ]
        else:
            rows = [(t, None, None, None) for t in self._arrival_times(rng)]
        requests: list[Request] = []
        open_groups: dict[int, tuple[int, int, int]] = {}
        group_ids = itertools.count()
        for arrival_s, prompt, decode, priority in rows:
            cls = self._pick_class(rng, classes, total_weight)
            if prompt is None:
                prompt = self._sample_length(
                    rng, cls.prompt_mean, cls.prompt_sigma, cls.min_len, cls.max_prompt
                )
            if decode is None:
                decode = self._sample_length(
                    rng, cls.decode_mean, cls.decode_sigma, cls.min_len, cls.max_decode
                )
            if priority is None:
                priority = cls.priority
            prefix_id: int | None = None
            prefix_len = 0
            if cls.self_consistency_n > 1:
                # The fan-out shares the whole prompt as a fresh prefix
                # group, overriding prefix_share_prob assignment.
                prefix_id, prefix_len = next(group_ids), prompt
            elif cls.prefix_share_prob > 0.0:
                prefix_id, prefix_len = self._assign_prefix(
                    rng, open_groups, cls, prompt, group_ids
                )
            for sample in range(cls.self_consistency_n):
                sample_decode = decode
                if sample > 0:
                    # Siblings re-draw their own decode shape: the samples
                    # share a prompt, not a chain of thought.
                    sample_decode = self._sample_length(
                        rng, cls.decode_mean, cls.decode_sigma,
                        cls.min_len, cls.max_decode,
                    )
                pauses: tuple[tuple[int, float], ...] = ()
                if cls.cot_turns > 1:
                    sample_decode, pauses = self._reasoning_shape(
                        rng, cls, sample_decode
                    )
                requests.append(
                    Request(
                        request_id=len(requests),
                        arrival_s=arrival_s,
                        model=cls.model,
                        prompt_len=prompt,
                        decode_len=sample_decode,
                        priority=priority,
                        prefix_id=prefix_id,
                        prefix_len=prefix_len,
                        tool_pauses=pauses,
                    )
                )
        return requests

    def _sample_length(
        self, rng: random.Random, mean: int, sigma: float, lo: int, hi: int
    ) -> int:
        # mu = ln(mean) - sigma^2/2 makes the configured value the true
        # mean of the *untruncated* log-normal; out-of-range draws are
        # resampled (not clamped) so no probability mass piles up on
        # the bounds and the realized mean is the analytic
        # truncated-lognormal mean.  The right tail still produces the
        # occasional very long prompt/generation that stresses KV
        # admission.
        mu = math.log(mean) - sigma * sigma / 2.0
        for _ in range(self.MAX_LENGTH_RESAMPLES):
            value = int(round(rng.lognormvariate(mu, sigma)))
            if lo <= value <= hi:
                return value
        return max(lo, min(value, hi))

    @staticmethod
    def _pick_class(
        rng: random.Random, classes: tuple[TrafficClass, ...], total_weight: float
    ) -> TrafficClass:
        mark = rng.random() * total_weight
        acc = 0.0
        for cls in classes:
            acc += cls.weight
            if mark <= acc:
                return cls
        return classes[-1]

    def _arrival_times(self, rng: random.Random) -> list[float]:
        times: list[float] = []
        now = 0.0
        if self.process is ArrivalProcess.POISSON:
            while True:
                now += rng.expovariate(self.rate_rps)
                if now >= self.duration_s:
                    return times
                times.append(now)
        # Bursty: two-state MMPP with the same average rate.  Busy-state
        # rate is ``burst_factor`` times the quiet-state rate; equal mean
        # dwell times keep the long-run average at ``rate_rps``.
        quiet_rate = 2.0 * self.rate_rps / (1.0 + self.burst_factor)
        busy_rate = quiet_rate * self.burst_factor
        busy = bool(rng.getrandbits(1))
        state_end = rng.expovariate(1.0 / self.burst_dwell_s)
        while now < self.duration_s:
            rate = busy_rate if busy else quiet_rate
            step = rng.expovariate(rate)
            if now + step > state_end:
                now = state_end
                busy = not busy
                state_end = now + rng.expovariate(1.0 / self.burst_dwell_s)
                continue
            now += step
            if now < self.duration_s:
                times.append(now)
        return times

    @staticmethod
    def _assign_prefix(
        rng: random.Random,
        open_groups: dict[int, tuple[int, int, int]],
        cls: TrafficClass,
        prompt_len: int,
        group_ids: Iterator[int],
    ) -> tuple[int | None, int]:
        """Prefix-group assignment for one arrival of ``cls``.

        With probability ``prefix_share_prob`` the arrival joins the
        class's open group (sharing its prefix, capped at the member's
        own prompt); otherwise -- or once the group has fanned out
        ``prefix_fanout`` members -- it founds a new group whose shared
        prefix is ``prefix_frac`` of its own prompt.  ``open_groups`` is
        keyed by class identity.  Only called when sharing is enabled,
        so the disabled path consumes no RNG.
        """
        open_group = open_groups.get(id(cls))
        if open_group is not None and rng.random() < cls.prefix_share_prob:
            group_id, prefix_len, members = open_group
            members += 1
            if members >= cls.prefix_fanout:
                del open_groups[id(cls)]
            else:
                open_groups[id(cls)] = (group_id, prefix_len, members)
            return group_id, min(prefix_len, prompt_len)
        group_id = next(group_ids)
        prefix_len = round(cls.prefix_frac * prompt_len)
        if prefix_len < 1:
            return None, 0
        open_groups[id(cls)] = (group_id, prefix_len, 1)
        return group_id, prefix_len

    def _reasoning_shape(
        self, rng: random.Random, cls: TrafficClass, first_turn: int
    ) -> tuple[int, tuple[tuple[int, float], ...]]:
        """Decode length and tool-call pauses of one multi-turn CoT
        sample: the remaining ``cot_turns - 1`` burst lengths are drawn
        from the class's decode distribution and each inter-turn pause
        gets a log-normal think time.  Only called when ``cot_turns >
        1``, so plain classes consume no RNG here.
        """
        turns = [first_turn]
        for _ in range(cls.cot_turns - 1):
            turns.append(
                self._sample_length(
                    rng, cls.decode_mean, cls.decode_sigma,
                    cls.min_len, cls.max_decode,
                )
            )
        sigma = cls.think_time_sigma
        mu = math.log(cls.think_time_mean_s) - sigma * sigma / 2.0
        pauses: list[tuple[int, float]] = []
        done = 0
        for turn in turns[:-1]:
            done += turn
            pauses.append((done, rng.lognormvariate(mu, sigma)))
        return sum(turns), tuple(pauses)
