"""Continuous batching with KV-capacity admission control.

The RPU decode pool serves many queries at once; the scheduler decides,
at every token-step boundary, which waiting requests join the running
batch (token-level admission -- the Orca/vLLM continuous-batching model,
which the paper's host-interrupt-per-token deployment naturally
supports).

Admission is governed by the pod's KV budget: the memory left after the
hosted model's weights.  Two reservation policies are modeled:

- **FULL** -- a request reserves its *full-context* KV footprint
  (prompt + all tokens it may generate) when admitted, so an admitted
  request can always run to completion: no mid-flight preemption or KV
  swapping.  Conservative; trades occupancy for a hard no-overflow
  guarantee.
- **PAGED** -- the vLLM paged-attention model.  KV is allocated in
  fixed-size blocks of ``block_tokens`` tokens; admission only requires
  the *prompt* footprint plus a small watermark, and each sequence
  grows block-by-block as it decodes.  When the pool runs dry, the
  lowest-priority, most-recently-admitted active request is preempted
  under a recompute-on-resume model: its blocks free immediately and it
  re-enters the queue.  Already-generated tokens are kept and their KV
  is *recomputed at prefill speed* on resume (the vLLM recompute
  model), so a preemption costs a prompt+generated re-prefill, not a
  decode restart.  A preempted request's effective priority rises with
  each preemption (aging), so no request is starved by an endless
  preemption storm.

PAGED also models **chunked prefill**: a request whose context KV is
not yet written into the block pool (a prefill-pod hand-off landing on
the pod, or a preemption resume recomputing locally) streams it in
``chunk_tokens`` slices, one slice per step, instead of blocking the
pod -- other sequences keep decoding while an oversized prompt lands.
The blocks are reserved at admission (the gate is the resident-context
footprint plus the watermark), so ingestion is pure pacing and decode
starts once the context is fully resident.

Block accounting is per-token exact for global-attention models; for
local-attention layers it ignores window eviction, so paged
reservations are (slightly) conservative there.

Two queue policies:

- **FIFO**: admit in arrival order; a request that does not fit blocks
  the queue (no head-of-line bypass, so no starvation);
- **SJF** (shortest job first): admit the smallest remaining-decode job
  that fits; improves mean latency under bursts at the cost of
  potentially delaying long reasoning queries.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.models.dtypes import DType
from repro.models.kv_cache import kv_bytes_per_token, kv_cache_bytes
from repro.serving.contracts import mutates, pure_probe
from repro.serving.kvstore import KvBlockStore
from repro.serving.requests import Request

#: Slack for float-dust comparisons against the KV budget (bytes).
_EPS_BYTES = 1e-3


class Policy(enum.Enum):
    """Queue discipline for decode admission."""

    FIFO = "fifo"
    SJF = "sjf"


class Reservation(enum.Enum):
    """How admitted requests reserve KV against the pod budget."""

    #: Reserve the full-context footprint up front (never preempts).
    FULL = "full"
    #: Block-granular allocation, grow on demand, preempt when dry.
    PAGED = "paged"


def request_kv_bytes(request: Request, kv_dtype: DType | None = None) -> float:
    """Full-context KV footprint of one request.

    This is the FULL policy's admission cost (and both policies'
    feasibility floor).  ``kv_dtype`` overrides the request's own dtype
    -- the pod stores the cache at *its* serving dtype, so reservations
    must be computed at the same dtype the step model charges, or the
    budget lies.
    """
    return kv_cache_bytes(
        request.model, request.total_len, 1, kv_dtype or request.kv_dtype
    )


@dataclass
class QueuedRequest:
    """One waiting request plus its scheduler-side state."""

    arrival_s: float
    request: Request
    #: True when the resident context KV must still be streamed into
    #: the block pool (a paged hand-off landing, or a preemption resume
    #: recomputing locally) -- paced by chunked prefill after admission.
    needs_prefill: bool = False
    #: Times this request has been preempted (raises its effective
    #: priority so storms cannot starve it).
    preemptions: int = 0
    #: Decode progress to resume from (generated tokens survive a
    #: preemption; only their KV must be recomputed).
    tokens_done: int = 0
    #: Set on preempted requests whose KV went to the host swap tier
    #: instead of being freed (resume pays the link, not a re-prefill).
    swapped: bool = False
    swap_bytes: float = 0.0

    @property
    def resume_context(self) -> int:
        """Tokens whose KV must be resident before decoding (re)starts."""
        return self.request.prompt_len + self.tokens_done


@dataclass
class ActiveRequest:
    """A request occupying a slot in the running batch."""

    request: Request
    kv_reserved_bytes: float
    admitted_s: float
    tokens_done: int = 0
    first_token_s: float | None = None
    #: Context tokens (prompt + resumed decode) still to ingest before
    #: decoding starts (chunked prefill); 0 when the KV arrived
    #: precomputed.
    prefill_remaining: int = 0
    #: PAGED bookkeeping; 0 / 0.0 under FULL reservation.
    blocks_held: int = 0
    bytes_per_block: float = 0.0
    preemptions: int = 0
    #: Shared prefix-cache blocks this sequence references (their bytes
    #: are charged once in the store, not in ``kv_reserved_bytes``).
    shared_blocks: int = 0
    #: Guard so a sequence publishes its prefix into the cache once.
    prefix_registered: bool = False
    #: Tool-call pauses of ``request.tool_pauses`` already taken (parked
    #: or consumed by a resume past their position).
    pauses_taken: int = 0

    @property
    def remaining_tokens(self) -> int:
        return self.request.decode_len - self.tokens_done

    @property
    def context_len(self) -> int:
        """Context at the *next* decode step."""
        return self.request.prompt_len + self.tokens_done + 1

    @property
    def resident_tokens(self) -> int:
        """Tokens whose KV is resident on the pod right now."""
        return self.request.prompt_len - self.prefill_remaining + self.tokens_done

    @property
    def is_prefilling(self) -> bool:
        return self.prefill_remaining > 0

    @property
    def effective_priority(self) -> int:
        """Request priority aged by preemption count."""
        return self.request.priority + self.preemptions

    @property
    def done(self) -> bool:
        return self.tokens_done >= self.request.decode_len


@dataclass
class ContinuousBatchScheduler:
    """Token-level admission against a KV budget.

    ``kv_budget_bytes`` is the pod capacity left for KV cache;
    ``max_batch`` caps the running batch (the paper evaluates decode up
    to batch 128; beyond that weight layers go compute-bound).

    Under ``Reservation.PAGED`` the budget is carved into blocks of
    ``block_tokens`` tokens; ``watermark_frac`` of the budget is kept
    free at admission so freshly admitted requests do not immediately
    trigger preemption, and preempted requests are re-queued locally
    (``requeue_preempted=True``, the standalone recompute model) or
    handed back to the caller via :meth:`take_preempted` for re-routing
    (the cluster model: re-pay prefill on a prefill pod).

    Pool accounting lives in a :class:`~repro.serving.kvstore.KvBlockStore`
    (one is created privately unless ``store`` is passed in).  With the
    store's prefix caching enabled, admission pins resident shared-prefix
    blocks (no allocation, no ingest for those tokens) and sequences
    publish their prefix blocks once resident; ``swap_decider`` (set by
    the cluster from its :class:`~repro.serving.kvstore.SwapPolicy`)
    lets preemption swap a victim's private KV to the host tier instead
    of freeing it for recompute-on-resume.
    """

    kv_budget_bytes: float
    max_batch: int = 128
    policy: Policy = Policy.FIFO
    #: Dtype the pod stores KV at; ``None`` trusts each request's own.
    kv_dtype: DType | None = None
    reservation: Reservation = Reservation.FULL
    block_tokens: int = 128
    chunk_tokens: int = 512
    watermark_frac: float = 0.01
    requeue_preempted: bool = True
    #: Block pool + prefix cache + swap tier; private store by default.
    store: KvBlockStore | None = None
    #: Should this preemption victim swap to host instead of recompute?
    #: ``None`` never swaps (the pre-swap behavior).
    swap_decider: Callable[[ActiveRequest], bool] | None = None
    #: Speculative-decoding KV headroom (tokens): every paged sequence
    #: is charged this many extra tokens of block capacity for
    #: speculated-but-unverified draft tokens (set by the cluster from
    #: its :class:`~repro.specdec.SpecDecConfig`; 0 = plain decode,
    #: bit-identical accounting).
    draft_tokens: int = 0
    queue: list[QueuedRequest] = field(default_factory=list)
    active: list[ActiveRequest] = field(default_factory=list)
    #: Sequences parked mid-decode by a tool-call pause: out of the
    #: batch, KV blocks still leased, waiting for the cluster's resume
    #: event (see :meth:`take_parked`).
    parked: list[ActiveRequest] = field(default_factory=list)
    num_preemptions: int = 0
    #: Running total of decode tokens still owed by queued + active
    #: requests -- the O(1) load metric the cluster router balances on
    #: (maintained at enqueue / token emission / hand-back, replacing a
    #: per-call scan over both lists).
    owed_tokens: int = 0
    #: Entries whose first token was stamped by the last
    #: :meth:`advance` call, in batch order; the cluster reads (and
    #: clears) this instead of scanning the batch for ``None``
    #: timestamps before every step.
    newly_started: list[ActiveRequest] = field(default_factory=list, repr=False)
    _preempted: list[QueuedRequest] = field(default_factory=list, repr=False)
    #: Pause hand-offs since the last :meth:`take_parked` drain: either
    #: a device-parked :class:`ActiveRequest` (KV stays leased) or a
    #: swapped-out :class:`QueuedRequest` (KV went to the host tier),
    #: each with its sampled think time.
    _just_parked: list[tuple[ActiveRequest | QueuedRequest, float]] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self) -> None:
        if self.kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes must be positive")
        if self.draft_tokens < 0:
            raise ValueError("draft_tokens must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if self.chunk_tokens < 1:
            raise ValueError("chunk_tokens must be >= 1")
        if not 0.0 <= self.watermark_frac < 1.0:
            raise ValueError("watermark_frac must be in [0, 1)")
        if self.store is None:
            self.store = KvBlockStore(self.kv_budget_bytes)
        # simlint: ok[digest-safety] config identity check, not arithmetic
        elif self.store.budget_bytes != self.kv_budget_bytes:
            raise ValueError(
                "store budget must match kv_budget_bytes "
                f"({self.store.budget_bytes} != {self.kv_budget_bytes})"
            )

    @property
    def kv_in_use_bytes(self) -> float:
        """Bytes held by private leases (the pool ledger the admission
        checks and occupancy stats are built on)."""
        return self.store.bytes_in_use

    # ------------------------------------------------------------------
    # Reservation accounting
    # ------------------------------------------------------------------
    def reservation_bytes(self, request: Request) -> float:
        """Full-context KV of this request, at the pod's serving dtype."""
        return request_kv_bytes(request, self.kv_dtype)

    def bytes_per_block_for(self, request: Request) -> float:
        """Byte size of one KV block for this request's model."""
        return self.block_tokens * kv_bytes_per_token(
            request.model, self.kv_dtype or request.kv_dtype
        )

    def _blocks_for(self, tokens: int) -> int:
        return max(1, math.ceil(tokens / self.block_tokens))

    def paged_total_bytes(self, request: Request) -> float:
        """Block-rounded footprint at the request's final token (plus
        any speculative draft-token headroom)."""
        return self._blocks_for(
            request.total_len + self.draft_tokens
        ) * self.bytes_per_block_for(request)

    def _admission_bytes(self, queued: QueuedRequest) -> float:
        """KV that must be allocated to admit ``queued``: the resident
        context (prompt, plus resumed decode progress, plus speculative
        draft-token headroom) -- never the full-context reservation
        under PAGED.  Shared prefix blocks the request already pins in
        the store need no allocation."""
        request = queued.request
        if self.reservation is Reservation.FULL:
            return self.reservation_bytes(request)
        blocks = self._blocks_for(queued.resume_context + self.draft_tokens)
        blocks = max(blocks - self.store.pinned_full_blocks(request.request_id), 0)
        return blocks * self.bytes_per_block_for(request)

    @property
    def kv_occupancy(self) -> float:
        """Fraction of the KV budget currently resident (private leases
        plus referenced/cached prefix blocks)."""
        return (
            self.kv_in_use_bytes + self.store.resident_overhead_bytes
        ) / self.kv_budget_bytes

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def fits_ever(self, request: Request) -> bool:
        """Could this request *ever* run to completion on this pod?"""
        if self.reservation is Reservation.PAGED:
            return self.paged_total_bytes(request) <= self.kv_budget_bytes
        return self.reservation_bytes(request) <= self.kv_budget_bytes

    @mutates
    def enqueue(
        self,
        request: Request,
        now: float,
        *,
        needs_prefill: bool = False,
        preemptions: int = 0,
        tokens_done: int = 0,
    ) -> None:
        """Add a request to the waiting queue.

        ``needs_prefill`` marks resident context whose KV is not yet on
        the pod (a local recompute after preemption); it streams in via
        chunked prefill once admitted.  ``tokens_done`` resumes decode
        progress after a preemption.
        """
        if not self.fits_ever(request):
            needed = (
                self.paged_total_bytes(request)
                if self.reservation is Reservation.PAGED
                else self.reservation_bytes(request)
            )
            raise ValueError(
                f"request {request.request_id} needs "
                f"{needed / 1e9:.1f} GB KV, pod budget "
                f"is {self.kv_budget_bytes / 1e9:.1f} GB"
            )
        self.queue.append(
            QueuedRequest(now, request, needs_prefill=needs_prefill,
                          preemptions=preemptions, tokens_done=tokens_done)
        )
        self.owed_tokens += request.decode_len - tokens_done

    @mutates
    def _fits(self, need: float, watermark: float = 0.0) -> bool:
        """Would allocating ``need`` more bytes stay within budget,
        reclaiming cached (ref-0) prefix blocks if that is what it
        takes?  Reclaim only happens when eviction can actually cover
        the shortfall -- a doomed admissibility probe must not flush
        the cache as a side effect.  The overhead term is exactly 0.0
        with prefix caching disabled, so the comparison is
        bit-identical to the pre-store
        ``kv_in_use + need + watermark <= budget`` check."""
        while True:
            total = (
                self.kv_in_use_bytes + self.store.resident_overhead_bytes
                + need + watermark
            )
            if total <= self.kv_budget_bytes:
                return True
            shortfall = total - self.kv_budget_bytes
            if self.store.cached_bytes < shortfall:
                return False
            if not self.store.reclaim_cached(shortfall):
                return False

    @mutates
    def _admissible(self, queued: QueuedRequest) -> bool:
        if len(self.active) >= self.max_batch:
            return False
        need = self._admission_bytes(queued)
        if self.reservation is Reservation.FULL:
            return self._fits(need)
        watermark = self.watermark_frac * self.kv_budget_bytes
        if self._fits(need, watermark):
            return True
        # An idle pool bypasses the watermark so a budget-filling
        # request is not stranded forever (with an empty batch the pool
        # ledger is zero, so this degenerates to need <= budget).
        return not self.active and self._fits(need)

    @pure_probe
    def _fits_pure(self, need: float, watermark: float = 0.0) -> bool:
        """Side-effect-free mirror of :meth:`_fits`: same verdict, but a
        would-be cache reclaim is only *predicted*, never performed.
        Exact because :meth:`~repro.serving.kvstore.KvBlockStore.reclaim_cached`
        always covers the shortfall when the ref-0 pool holds it."""
        total = (
            self.kv_in_use_bytes + self.store.resident_overhead_bytes
            + need + watermark
        )
        if total <= self.kv_budget_bytes:
            return True
        return self.store.cached_bytes >= total - self.kv_budget_bytes

    @pure_probe
    def _admissible_pure(self, queued: QueuedRequest) -> bool:
        """:meth:`_admissible` without the cache-reclaim side effect."""
        if len(self.active) >= self.max_batch:
            return False
        need = self._admission_bytes(queued)
        if self.reservation is Reservation.FULL:
            return self._fits_pure(need)
        if self._fits_pure(need, self.watermark_frac * self.kv_budget_bytes):
            return True
        return not self.active and self._fits_pure(need)

    @pure_probe
    def would_admit_nothing(self) -> bool:
        """Would :meth:`admit` return an empty list right now?

        Pure: unlike :meth:`admit` this neither reorders the queue nor
        reclaims cached blocks, so the cluster's bulk decode lane can
        probe *another* pod with it mid-event.  FIFO admits iff the
        head fits; SJF admits iff any queued job fits, so the sort
        order never changes the boolean.
        """
        queue = self.queue
        if not queue:
            return True
        if len(self.active) >= self.max_batch:
            return True
        if self.policy is Policy.FIFO:
            return not self._admissible_pure(queue[0])
        return not any(self._admissible_pure(q) for q in queue)

    @mutates
    def admit(self, now: float) -> list[ActiveRequest]:
        """Move waiting requests into the batch (called at each step
        boundary).  Returns the newly admitted requests."""
        admitted: list[ActiveRequest] = []
        if self.policy is Policy.SJF:
            self.queue.sort(
                key=lambda q: (q.request.decode_len - q.tokens_done, q.arrival_s)
            )
        while self.queue:
            index = 0
            if not self._admissible(self.queue[index]):
                if self.policy is Policy.FIFO:
                    break  # strict order: blocked head blocks the queue
                # SJF: scan for any job that fits.
                for alt, candidate in enumerate(self.queue):
                    if self._admissible(candidate):
                        index = alt
                        break
                else:
                    break
            queued = self.queue.pop(index)
            admitted.append(self._activate(queued, now))
        if (
            not admitted
            and not self.active
            and not self.parked
            and not self.store.has_swapped
            and self.queue
        ):
            self._rescue_stranded(now, admitted)
        return admitted

    @mutates
    def _rescue_stranded(
        self, now: float, admitted: list[ActiveRequest]
    ) -> None:
        """Break a pool stranded by queued requests' own prefix pins.

        Fully cached requests skip prefill and wait here holding
        ref-counted pins on their prefix blocks (acquired at prefill
        service start).  Enough *distinct* pinned prefixes can fill the
        pool with blocks that are neither leased nor reclaimable
        (ref > 0), so with nothing in flight no admission can ever
        succeed -- the pod would stop stepping and strand the queue
        forever.  Recovery mirrors preemption-recompute: every queued
        request but the head candidate drops its pins (the blocks
        return to reclaimable ref-0 cache) and will re-prefill its
        context at admission; the head then admits through the ordinary
        idle-pool bypass, evicting as needed."""
        head = self.queue[0]
        released = False
        for queued in self.queue[1:]:
            seq_id = queued.request.request_id
            if self.store.holds_shared_refs(seq_id):
                self.store.release(seq_id)
                queued.needs_prefill = True
                released = True
        if released and self._admissible(head):
            self.queue.pop(0)
            admitted.append(self._activate(head, now))

    @mutates
    def _activate(self, queued: QueuedRequest, now: float) -> ActiveRequest:
        request = queued.request
        reserved = self._admission_bytes(queued)
        blocks = 0
        bytes_per_block = 0.0
        shared_blocks = 0
        pinned_tokens = 0
        if self.reservation is Reservation.PAGED:
            bytes_per_block = self.bytes_per_block_for(request)
            blocks = round(reserved / bytes_per_block)
            shared_blocks = self.store.pinned_full_blocks(request.request_id)
            pinned_tokens = self.store.pinned_tokens(request.request_id)
        entry = ActiveRequest(
            request=request,
            kv_reserved_bytes=reserved,
            admitted_s=now,
            tokens_done=queued.tokens_done,
            # Cached prefix tokens are already resident on the pod, so
            # only the remainder of the context streams in.
            prefill_remaining=(
                max(queued.resume_context - pinned_tokens, 0)
                if queued.needs_prefill
                else 0
            ),
            blocks_held=blocks,
            bytes_per_block=bytes_per_block,
            shared_blocks=shared_blocks,
            preemptions=queued.preemptions,
            # A resume past a pause's position must not re-take it.
            pauses_taken=sum(
                1 for at, _ in request.tool_pauses if at <= queued.tokens_done
            ),
        )
        self.store.admit(request.request_id, reserved, blocks, bytes_per_block)
        self.active.append(entry)
        if not entry.is_prefilling:
            self._register_prefix(entry)
        return entry

    def _register_prefix(self, entry: ActiveRequest) -> None:
        """Publish a sequence's resident prefix into the store's index
        once its context KV is on the pod (PAGED + caching only).
        Donated blocks move from the private lease to the shared pool,
        so the entry's private accounting shrinks by as many blocks."""
        if entry.prefix_registered or self.reservation is not Reservation.PAGED:
            return
        entry.prefix_registered = True
        request = entry.request
        if request.prefix_id is None or request.prefix_len <= 0:
            return
        donated = self.store.register_prefix(
            request.request_id, request.model.name, request.prefix_id,
            request.prefix_len, self.block_tokens,
        )
        if donated:
            entry.blocks_held -= donated
            entry.shared_blocks += donated
            entry.kv_reserved_bytes = entry.blocks_held * entry.bytes_per_block

    # ------------------------------------------------------------------
    # Preemption (PAGED only)
    # ------------------------------------------------------------------
    @staticmethod
    def _victim_order(entry: ActiveRequest) -> tuple[int, float, int]:
        """Ascending = preempted first: lowest effective priority, then
        most recently admitted, then highest request id."""
        return (
            entry.effective_priority,
            -entry.admitted_s,
            -entry.request.request_id,
        )

    @mutates
    def _preempt(self, entry: ActiveRequest, now: float, gone: set[int]) -> None:
        self.active.remove(entry)
        self.num_preemptions += 1
        request_id = entry.request.request_id
        gone.add(request_id)
        swapped = False
        swap_bytes = 0.0
        if (
            self.swap_decider is not None
            and self.store.can_swap(entry.kv_reserved_bytes)
            and self.swap_decider(entry)
        ):
            # Swap-to-host: private bytes cross the host link and come
            # back verbatim on resume -- no re-prefill.  Shared prefix
            # refs drop to the cache and are re-acquired on resume.
            swap_bytes = self.store.swap_out(request_id)
            swapped = True
        else:
            self.store.release(request_id)
        queued = QueuedRequest(
            now, entry.request, needs_prefill=not swapped,
            preemptions=entry.preemptions + 1,
            tokens_done=entry.tokens_done,
            swapped=swapped, swap_bytes=swap_bytes,
        )
        if self.requeue_preempted:
            # Resume-first: recompute locally ahead of fresh arrivals.
            self.queue.insert(0, queued)
        else:
            # Handed back to the cluster: its owed tokens leave this
            # pod until the re-route (or swap-back) enqueues them again.
            self._preempted.append(queued)
            self.owed_tokens -= entry.remaining_tokens

    @mutates
    def _make_room(
        self, entry: ActiveRequest, nbytes: float, now: float, gone: set[int]
    ) -> bool:
        """Free pool space for ``entry`` to grow by ``nbytes``:
        reclaiming cached prefix blocks first, then preempting strictly
        lower-ordered victims.  If ``entry`` is itself the
        lowest-ordered active request, it yields (is preempted)
        instead; returns False in that case.

        Progress guarantee: the highest-ordered active request can
        evict everyone else, and its full footprint fits the budget
        (``fits_ever``), so it always runs to completion.
        """
        while (
            self.kv_budget_bytes - self.kv_in_use_bytes
            - self.store.resident_overhead_bytes
        ) < nbytes - _EPS_BYTES:
            if self.store.reclaim_cached(nbytes):
                continue
            my_order = self._victim_order(entry)
            victims = [
                v for v in self.active
                if v is not entry and self._victim_order(v) < my_order
            ]
            if not victims:
                self._preempt(entry, now, gone)
                return False
            self._preempt(min(victims, key=self._victim_order), now, gone)
        return True

    def take_preempted(self) -> list[QueuedRequest]:
        """Drain requests preempted since the last call (only populated
        when ``requeue_preempted`` is False -- the cluster re-routes
        them through a prefill pod)."""
        out, self._preempted = self._preempted, []
        return out

    # ------------------------------------------------------------------
    # Tool-call parking
    # ------------------------------------------------------------------
    @mutates
    def _park(self, entry: ActiveRequest, now: float, think_s: float) -> None:
        """Park ``entry`` for a tool-call pause: it leaves the batch
        with its KV either staying leased on the device or -- when the
        swap policy approves -- swapped to the host tier, freeing the
        pool for the think time.  The cluster drains
        :meth:`take_parked` and schedules the resume."""
        self.active.remove(entry)
        self.store.stats.tool_parks += 1
        if (
            self.swap_decider is not None
            and self.store.can_swap(entry.kv_reserved_bytes)
            and self.swap_decider(entry)
        ):
            swap_bytes = self.store.swap_out(entry.request.request_id)
            queued = QueuedRequest(
                now, entry.request, needs_prefill=False,
                preemptions=entry.preemptions,
                tokens_done=entry.tokens_done,
                swapped=True, swap_bytes=swap_bytes,
            )
            # Like a preemption hand-back: its owed tokens leave this
            # pod until the swap-back re-enqueues them.
            self.owed_tokens -= entry.remaining_tokens
            self._just_parked.append((queued, think_s))
        else:
            self.parked.append(entry)
            self._just_parked.append((entry, think_s))

    def take_parked(self) -> list[tuple[ActiveRequest | QueuedRequest, float]]:
        """Drain sequences parked by a tool-call pause since the last
        :meth:`advance`, each with its sampled think time: an
        :class:`ActiveRequest` stayed on-device (resume with
        :meth:`resume_parked`), a :class:`QueuedRequest` was swapped to
        the host tier (resume through the swap-back path)."""
        out, self._just_parked = self._just_parked, []
        return out

    @mutates
    def resume_parked(self, entry: ActiveRequest) -> None:
        """A parked sequence's tool call finished: rejoin the batch
        (its KV blocks never left the device)."""
        self.parked.remove(entry)
        self.active.append(entry)

    # ------------------------------------------------------------------
    # Step accounting
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return len(self.active)

    @property
    def queue_depth(self) -> int:
        """Requests waiting for batch admission (a telemetry gauge;
        reading it touches nothing)."""
        return len(self.queue)

    @property
    def has_work(self) -> bool:
        return bool(self.active or self.queue or self.parked)

    def mean_context_len(self) -> int:
        """Context length the next step is evaluated at (batch mean);
        prefilling sequences count at their resident prompt slice."""
        if not self.active:
            return 0
        total = 0
        for entry in self.active:
            if entry.is_prefilling:
                total += max(1, entry.resident_tokens)
            else:
                total += entry.context_len
        return max(1, round(total / len(self.active)))

    def _needs_block(self, entry: ActiveRequest) -> bool:
        """Does emitting the next token overflow the held blocks
        (private plus shared prefix blocks)?  Speculative draft tokens
        keep their headroom resident, so they count against capacity."""
        capacity = (entry.shared_blocks + entry.blocks_held) * self.block_tokens
        return entry.context_len + self.draft_tokens > capacity

    def _ingest_chunk(self, entry: ActiveRequest) -> None:
        """Stream the next context chunk into the pool (chunked
        prefill).  The blocks were reserved at admission, so ingestion
        is pure pacing: one ``chunk_tokens`` slice per step, decode
        starts once the context is fully resident."""
        entry.prefill_remaining -= min(self.chunk_tokens, entry.prefill_remaining)

    @mutates
    def advance(self, step_end_s: float) -> list[ActiveRequest]:
        """One scheduler step ending at ``step_end_s``: prefilling
        sequences ingest a prompt chunk, decoding sequences emit one
        token (growing their KV block-by-block under PAGED, preempting
        when the pool is dry).  Returns (and retires) the requests that
        just finished; preempted requests re-enter the queue (or the
        :meth:`take_preempted` hand-off)."""
        finished: list[ActiveRequest] = []
        gone: set[int] = set()
        for entry in list(self.active):
            if entry.request.request_id in gone:
                continue
            if entry.is_prefilling:
                self._ingest_chunk(entry)
                if not entry.is_prefilling:
                    # Context fully resident: publish the prefix so
                    # siblings arriving from now on hit the cache.
                    self._register_prefix(entry)
                continue
            if self.reservation is Reservation.PAGED and self._needs_block(entry):
                if not self._make_room(
                    entry, entry.bytes_per_block, step_end_s, gone
                ):
                    continue  # entry itself was preempted
                entry.blocks_held += 1
                entry.kv_reserved_bytes = entry.blocks_held * entry.bytes_per_block
                self.store.grow(entry.request.request_id)
            entry.tokens_done += 1
            self.owed_tokens -= 1
            if entry.first_token_s is None:
                entry.first_token_s = step_end_s
                self.newly_started.append(entry)
            pauses = entry.request.tool_pauses
            if (
                entry.pauses_taken < len(pauses)
                and entry.tokens_done == pauses[entry.pauses_taken][0]
            ):
                think_s = pauses[entry.pauses_taken][1]
                entry.pauses_taken += 1
                self._park(entry, step_end_s, think_s)
                continue
            if entry.done:
                # Retire immediately: a finished entry must free its KV
                # before later entries grow, and must never be chosen as
                # a preemption victim within this same step.
                finished.append(entry)
                self.active.remove(entry)
                self.store.release(entry.request.request_id)
        if not self.active and not self.parked:
            # Zero out float dust: positive residue would otherwise block
            # a future budget-filling request forever.  (Parked leases
            # still hold real bytes, so a pod with parked sequences
            # keeps its ledger.)
            self.store.reset_pool_dust()
        return finished


class GrowthSchedule:
    """The block growths :meth:`ContinuousBatchScheduler.advance` would
    make over a run of quiet decode boundaries (the fleet simulator's
    bulk decode lane), checked on a virtual pool ledger (``used``)
    instead of the store.

    A sequence grows a block every ``block_tokens`` boundaries, from the
    first at which its context overflows its blocks, until boundary
    ``end``.  ``heap`` holds ``(boundary, batch position, entry)``, so
    growths due together pop in ``active`` order, the order ``advance``
    grows them; ``next`` is the earliest boundary still due.
    """

    __slots__ = ("heap", "used", "overhead", "budget", "block_tokens", "end", "next")

    def __init__(
        self,
        heap: list[tuple[int, int, ActiveRequest]],
        scheduler: ContinuousBatchScheduler,
        end: int,
    ):
        self.heap = heap
        self.used = scheduler.kv_in_use_bytes
        self.overhead = scheduler.store.resident_overhead_bytes
        self.budget = scheduler.kv_budget_bytes
        self.block_tokens = scheduler.block_tokens
        self.end = end
        self.next = heap[0][0]

    @classmethod
    def due(
        cls, scheduler: ContinuousBatchScheduler, end: int
    ) -> GrowthSchedule | None:
        """The growths of ``scheduler``'s batch due before boundary
        ``end``, or ``None`` when there are none."""
        tokens = scheduler.block_tokens
        heap = []
        for pos, entry in enumerate(scheduler.active):
            first = (
                (entry.shared_blocks + entry.blocks_held) * tokens
                - entry.request.prompt_len - entry.tokens_done
            )
            if first < end:
                heap.append((first, pos, entry))
        if not heap:
            return None
        heapq.heapify(heap)
        return cls(heap, scheduler, end)

    def take(self, boundary: int) -> list[ActiveRequest] | None:
        """The entries growing at ``boundary`` (``next``), each added to
        the ledger in batch order; ``None`` at the first block that does
        not fit the free pool outright (``_make_room``'s predicate),
        which would reclaim or preempt -- observable -- so the chain
        ends before this boundary."""
        heap = self.heap
        grown = []
        while heap and heap[0][0] == boundary:
            _, pos, entry = heap[0]
            size = entry.bytes_per_block
            if self.budget - self.used - self.overhead < size - _EPS_BYTES:
                return None
            self.used += size
            grown.append(entry)
            if boundary + self.block_tokens < self.end:
                heapq.heapreplace(heap, (boundary + self.block_tokens, pos, entry))
            else:
                heapq.heappop(heap)
        self.next = heap[0][0] if heap else 1 << 60
        return grown

    def occupancy(self) -> float:
        """The pool's occupancy with the growths taken so far, in the
        float order of ``ContinuousBatchScheduler.kv_occupancy``."""
        return (self.used + self.overhead) / self.budget
