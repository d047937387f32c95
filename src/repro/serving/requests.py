"""Request-level traffic generation for the fleet simulator.

A serving fleet sees a *stream* of queries, not one workload: arrivals
cluster (diurnal bursts, agentic fan-out), prompt and reasoning lengths
vary by orders of magnitude, and traffic mixes several models.  This
module turns those statistics into a concrete, seeded, replayable list of
:class:`Request` objects that :mod:`repro.serving.cluster` consumes.

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
generators (non-homogeneous Poisson via thinning) -- which
:meth:`RequestGenerator.replay` turns into requests, sampling any
lengths the trace leaves unspecified.  Multi-tenant traffic merges one
stream per tenant with :func:`merge_requests`.

Traffic can carry **shared-prefix structure**: with
``TrafficClass.prefix_share_prob`` set, arrivals join prefix groups
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
flows through one ``random.Random(seed)`` so a generator is fully
deterministic given its configuration.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import random
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterable

from repro.models.config import ModelConfig
from repro.models.dtypes import DType
from repro.models.workload import Workload
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


@dataclass(frozen=True)
class TrafficClass:
    """One model's share of the fleet traffic and its length statistics.

    ``prompt_mean``/``decode_mean`` are the means of the *untruncated*
    log-normal length distributions.  Out-of-bounds draws are resampled,
    so the realized mean is the truncated-lognormal mean --
    :attr:`expected_prompt_len` / :attr:`expected_decode_len` -- and the
    offered token load is ``rate_rps * expected_decode_len`` (slightly
    below ``rate_rps * decode_mean`` when the bounds are tight).
    """

    model: ModelConfig
    weight: float = 1.0
    prompt_mean: int = 2048
    decode_mean: int = 1024
    prompt_sigma: float = 0.6  # log-space spread of the log-normal
    decode_sigma: float = 0.6
    min_len: int = 16
    max_prompt: int = 16384
    max_decode: int = 8192
    #: Priority stamped on every request of this class (paged-KV
    #: preemption evicts the lowest priority first).
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
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.prompt_mean < self.min_len or self.decode_mean < self.min_len:
            raise ValueError("mean lengths must be >= min_len")
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
    from the replaying generator's traffic classes, so a
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
    :meth:`RequestGenerator.replay` walks the rows, fills in lengths
    the trace leaves unspecified from its traffic classes, and returns
    ordinary :class:`Request` objects.  Load from production logs with
    :meth:`from_json` / :meth:`from_csv`, or synthesize the two shapes
    Poisson can't express -- :meth:`diurnal` (sinusoidal day/night
    swing) and :meth:`flash_crowd` (a rectangular rate spike, the
    load-shedding stress test).

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
            rows.append(
                TraceRow(
                    arrival_s=float(entry["arrival_s"]),
                    prompt_len=_opt_int(entry.get("prompt_len")),
                    decode_len=_opt_int(entry.get("decode_len")),
                    priority=_opt_int(entry.get("priority")),
                )
            )
        return cls(tuple(rows))

    @classmethod
    def from_csv(cls, path: str) -> "ArrivalTrace":
        """Load a trace from a CSV file with an ``arrival_s,prompt_len,
        decode_len[,priority]`` header; empty cells mean "sample it"."""
        rows = []
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or "arrival_s" not in reader.fieldnames:
                raise ValueError(f"{path}: trace CSV needs an arrival_s column")
            for index, entry in enumerate(reader):
                value = (entry.get("arrival_s") or "").strip()
                if not value:
                    raise ValueError(f"{path}: row {index} missing arrival_s")
                rows.append(
                    TraceRow(
                        arrival_s=float(value),
                        prompt_len=_opt_int(entry.get("prompt_len")),
                        decode_len=_opt_int(entry.get("decode_len")),
                        priority=_opt_int(entry.get("priority")),
                    )
                )
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


def _opt_int(value: object) -> int | None:
    """Coerce an optional JSON/CSV cell to int (None/"" pass through)."""
    if value is None:
        return None
    if isinstance(value, str) and not value.strip():
        return None
    return int(value)


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


@dataclass(frozen=True)
class RequestGenerator:
    """Seeded open-loop traffic source.

    ``rate_rps`` is the average arrival rate across the whole mix; each
    arrival picks a :class:`TrafficClass` with probability proportional
    to its weight and samples lengths from that class.
    """

    classes: tuple[TrafficClass, ...]
    rate_rps: float = 1.0
    process: ArrivalProcess = ArrivalProcess.POISSON
    seed: int = 0
    #: Bursty process: busy-state rate multiplier and mean state dwell time.
    burst_factor: float = 4.0
    burst_dwell_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one traffic class")
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    #: Out-of-bounds draws are resampled at most this many times before
    #: falling back to a clamp (keeps sampling O(1) worst-case; with
    #: sane bounds the fallback probability is p_out**8, i.e. nil).
    MAX_LENGTH_RESAMPLES = 8

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

    def _pick_class(self, rng: random.Random) -> TrafficClass:
        total = left_sum(c.weight for c in self.classes)
        mark = rng.random() * total
        acc = 0.0
        for cls in self.classes:
            acc += cls.weight
            if mark <= acc:
                return cls
        return self.classes[-1]

    def _arrival_times(self, rng: random.Random, duration_s: float) -> list[float]:
        times: list[float] = []
        now = 0.0
        if self.process is ArrivalProcess.POISSON:
            while True:
                now += rng.expovariate(self.rate_rps)
                if now >= duration_s:
                    return times
                times.append(now)
        # Bursty: two-state MMPP with the same average rate.  Busy-state
        # rate is ``burst_factor`` times the quiet-state rate; equal mean
        # dwell times keep the long-run average at ``rate_rps``.
        quiet_rate = 2.0 * self.rate_rps / (1.0 + self.burst_factor)
        busy_rate = quiet_rate * self.burst_factor
        busy = bool(rng.getrandbits(1))
        state_end = rng.expovariate(1.0 / self.burst_dwell_s)
        while now < duration_s:
            rate = busy_rate if busy else quiet_rate
            step = rng.expovariate(rate)
            if now + step > state_end:
                now = state_end
                busy = not busy
                state_end = now + rng.expovariate(1.0 / self.burst_dwell_s)
                continue
            now += step
            if now < duration_s:
                times.append(now)
        return times

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def _assign_prefix(
        self,
        rng: random.Random,
        groups: dict[int, tuple[int, int, int]],
        class_index: int,
        cls: TrafficClass,
        prompt_len: int,
        next_group: list[int],
    ) -> tuple[int | None, int]:
        """Prefix-group assignment for one arrival of ``cls``.

        With probability ``prefix_share_prob`` the arrival joins the
        class's open group (sharing its prefix, capped at the member's
        own prompt); otherwise -- or once the group has fanned out
        ``prefix_fanout`` members -- it founds a new group whose shared
        prefix is ``prefix_frac`` of its own prompt.  Only called when
        sharing is enabled, so the disabled path consumes no RNG.
        """
        open_group = groups.get(class_index)
        if open_group is not None and rng.random() < cls.prefix_share_prob:
            group_id, prefix_len, members = open_group
            members += 1
            if members >= cls.prefix_fanout:
                del groups[class_index]
            else:
                groups[class_index] = (group_id, prefix_len, members)
            return group_id, min(prefix_len, prompt_len)
        group_id = next_group[0]
        next_group[0] += 1
        prefix_len = round(cls.prefix_frac * prompt_len)
        if prefix_len < 1:
            return None, 0
        groups[class_index] = (group_id, prefix_len, 1)
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

    def _emit_arrival(
        self,
        requests: list[Request],
        rng: random.Random,
        request_id: int,
        arrival_s: float,
        cls: TrafficClass,
        prompt: int,
        decode: int,
        prefix_id: int | None,
        prefix_len: int,
        next_group: list[int],
        priority: int,
    ) -> int:
        """Emit one logical arrival (1 request, or ``self_consistency_n``
        fan-out samples sharing the full prompt); returns the next free
        request id.  With every reasoning knob at its default this
        appends exactly the one request the pre-reasoning generator
        built, consuming no extra RNG.
        """
        if cls.self_consistency_n > 1:
            # The fan-out shares the whole prompt as a fresh prefix
            # group (overriding any prefix_share_prob assignment -- the
            # caller skips it for fan-out classes).
            prefix_id = next_group[0]
            next_group[0] += 1
            prefix_len = prompt
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
                    request_id=request_id,
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
            request_id += 1
        return request_id

    def generate(self, duration_s: float) -> list[Request]:
        """All requests arriving in ``[0, duration_s)``, sorted by time."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        rng = random.Random(self.seed)
        requests: list[Request] = []
        groups: dict[int, tuple[int, int, int]] = {}
        next_group = [0]
        class_index = {id(cls): i for i, cls in enumerate(self.classes)}
        request_id = 0
        for arrival in self._arrival_times(rng, duration_s):
            cls = self._pick_class(rng)
            prompt = self._sample_length(
                rng, cls.prompt_mean, cls.prompt_sigma, cls.min_len, cls.max_prompt
            )
            decode = self._sample_length(
                rng, cls.decode_mean, cls.decode_sigma, cls.min_len, cls.max_decode
            )
            prefix_id: int | None = None
            prefix_len = 0
            if cls.self_consistency_n <= 1 and cls.prefix_share_prob > 0.0:
                prefix_id, prefix_len = self._assign_prefix(
                    rng, groups, class_index[id(cls)], cls, prompt, next_group
                )
            request_id = self._emit_arrival(
                requests, rng, request_id, arrival, cls, prompt, decode,
                prefix_id, prefix_len, next_group, cls.priority,
            )
        return requests

    def replay(self, trace: ArrivalTrace) -> list[Request]:
        """Replay an :class:`ArrivalTrace`: arrivals come from the trace
        rows; class choice and any lengths the trace leaves ``None``
        are sampled exactly as :meth:`generate` would (same seeded RNG
        discipline, same prefix-group machinery).  A fully-specified
        trace is deterministic modulo class choice; a timestamps-only
        trace replays the schedule with this generator's length mix.
        """
        rng = random.Random(self.seed)
        requests: list[Request] = []
        groups: dict[int, tuple[int, int, int]] = {}
        next_group = [0]
        class_index = {id(cls): i for i, cls in enumerate(self.classes)}
        request_id = 0
        for row in trace.rows:
            cls = self._pick_class(rng)
            prompt = (
                row.prompt_len
                if row.prompt_len is not None
                else self._sample_length(
                    rng, cls.prompt_mean, cls.prompt_sigma,
                    cls.min_len, cls.max_prompt,
                )
            )
            decode = (
                row.decode_len
                if row.decode_len is not None
                else self._sample_length(
                    rng, cls.decode_mean, cls.decode_sigma,
                    cls.min_len, cls.max_decode,
                )
            )
            prefix_id: int | None = None
            prefix_len = 0
            if cls.self_consistency_n <= 1 and cls.prefix_share_prob > 0.0:
                prefix_id, prefix_len = self._assign_prefix(
                    rng, groups, class_index[id(cls)], cls, prompt, next_group
                )
            request_id = self._emit_arrival(
                requests, rng, request_id, row.arrival_s, cls, prompt, decode,
                prefix_id, prefix_len, next_group,
                row.priority if row.priority is not None else cls.priority,
            )
        return requests
