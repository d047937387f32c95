"""Per-kernel FLOPs/bytes profiles of decode and prefill steps.

This is the workload characterization every performance model consumes.
A decode step is broken into the same kernels the paper's Fig 8 labels:
``wQKV``, ``QK^T`` (K-cache), ``s(QK)V`` (V-cache), ``wO``, ``wUp/wGate``,
``wDown`` plus vector ops (norms, rotary, softmax) and the network
collectives tensor-parallel execution requires.

Kernel accounting conventions:

- ``flops`` counts multiply and accumulate separately (2 per MAC);
- ``weight_bytes`` is HBM weight traffic for the step (batch-amortized:
  weights are read once per step regardless of batch size; MoE layers read
  only the experts the batch activates);
- ``kv_bytes`` is KV-cache traffic (scales with batch AND sequence);
- ``collective_bytes`` is the payload of the network collective attached
  to the kernel (broadcasts of activations, attention-softmax reductions).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from typing import NamedTuple, TypeVar

from repro.models.workload import Workload
from repro.util.stats import left_sum


class KernelKind(Enum):
    """What pipeline resource a kernel primarily exercises."""

    LINEAR = "linear"  # weight-streaming VMM
    MOE = "moe"  # expert VMMs (weight traffic depends on routing)
    SDPA = "sdpa"  # KV-cache streaming attention
    VOPS = "vops"  # high-precision vector ops (norm, rotary, softmax)
    COLLECTIVE = "collective"  # network-only (broadcast / reduce)


class KernelProfile(NamedTuple):
    """Resource profile of one kernel instance within a step.

    Immutable and hashable.  A named tuple because the cost models build
    one per kernel of every priced shape and tuples are the cheapest
    immutable record to construct."""

    name: str
    kind: KernelKind
    flops: float = 0.0
    weight_bytes: float = 0.0
    kv_bytes: float = 0.0
    act_bytes: float = 0.0
    collective_bytes: float = 0.0
    layer: int | None = None

    @property
    def hbm_bytes(self) -> float:
        """Off-chip memory traffic (weights + KV cache)."""
        return self.weight_bytes + self.kv_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of off-chip traffic (inf for network-only kernels)."""
        if self.hbm_bytes == 0:  # simlint: ok[digest-safety] network-only kernels carry exactly 0
            return float("inf")
        return self.flops / self.hbm_bytes


def _attention_kernels(
    workload: Workload, layer: int, tokens_per_query: int
) -> list[KernelProfile]:
    """SDPA kernels for one layer: QK^T, softmax, s(QK)V.

    ``tokens_per_query`` is 1 during decode; during prefill, attention
    flops scale with the full query length (handled by the caller passing
    the chunk length).
    """
    model = workload.model
    attn = model.attention
    batch = workload.batch_size
    seq = attn.attention_span(layer, workload.seq_len)
    kvb = workload.kv_dtype.nbytes
    actb = workload.act_dtype.nbytes

    queries = batch * tokens_per_query
    # Each query attends over `seq` cached tokens in every head.
    qk_flops = 2.0 * queries * attn.num_heads * attn.head_dim * seq
    kv_traffic = batch * seq * attn.kv_dim * kvb  # shared across GQA heads
    softmax_flops = 5.0 * queries * attn.num_heads * seq
    # Distributed softmax needs a max then an exp-sum reduction across the
    # cores sharing each GQA head: two small collectives per layer.
    softmax_collective = 2.0 * queries * attn.num_heads * 4.0
    return [
        KernelProfile(
            name="QK^T",
            kind=KernelKind.SDPA,
            flops=qk_flops,
            kv_bytes=kv_traffic,
            act_bytes=queries * attn.q_dim * actb,
            layer=layer,
        ),
        KernelProfile(
            name="softmax",
            kind=KernelKind.VOPS,
            flops=softmax_flops,
            act_bytes=queries * attn.num_heads * seq * actb,
            collective_bytes=softmax_collective,
            layer=layer,
        ),
        KernelProfile(
            name="s(QK)V",
            kind=KernelKind.SDPA,
            flops=qk_flops,
            kv_bytes=kv_traffic,
            act_bytes=queries * attn.q_dim * actb,
            layer=layer,
        ),
    ]


def _layer_kernels(
    workload: Workload, layer: int, tokens: int
) -> list[KernelProfile]:
    """All kernels of one transformer layer processing ``tokens`` new tokens."""
    model = workload.model
    attn = model.attention
    h = model.hidden_size
    wb = workload.weight_dtype.nbytes
    actb = workload.act_dtype.nbytes

    kernels: list[KernelProfile] = []

    def vop(name: str, flops: float, act_elems: float) -> KernelProfile:
        return KernelProfile(
            name=name,
            kind=KernelKind.VOPS,
            flops=flops,
            act_bytes=act_elems * actb,
            layer=layer,
        )

    def linear(name: str, in_dim: int, out_dim: int, *, broadcast: bool) -> KernelProfile:
        """``broadcast`` marks kernels whose input is a fresh full vector
        needing a ring broadcast (wQKV, wUp/wGate).  wO and wDown consume
        locally-produced shards; their sharing is the cheap group
        gather/reduction the compiler inserts (fine-grained network
        sharding, paper Contribution 3)."""
        return KernelProfile(
            name=name,
            kind=KernelKind.LINEAR,
            flops=2.0 * tokens * in_dim * out_dim,
            weight_bytes=in_dim * out_dim * wb,
            act_bytes=tokens * (in_dim + out_dim) * actb,
            collective_bytes=tokens * in_dim * actb if broadcast else 0.0,
            layer=layer,
        )

    kernels.append(vop("rmsnorm_attn", 5.0 * tokens * h, tokens * h))
    kernels.append(linear("wQKV", h, attn.q_dim + 2 * attn.kv_dim, broadcast=True))
    kernels.append(
        vop("rotary", 10.0 * tokens * (attn.q_dim + attn.kv_dim), tokens * attn.q_dim)
    )
    kernels.extend(_attention_kernels(workload, layer, tokens_per_query=tokens // workload.batch_size))
    kernels.append(linear("wO", attn.q_dim, h, broadcast=False))
    kernels.append(vop("rmsnorm_mlp", 5.0 * tokens * h, tokens * h))

    if model.is_moe_layer(layer):
        kernels.extend(_moe_kernels(workload, layer, tokens))
    else:
        f = model.intermediate_size
        kernels.append(linear("wUp/wGate", h, 2 * f, broadcast=True))
        kernels.append(vop("silu_mul", 4.0 * tokens * f, tokens * f))
        kernels.append(linear("wDown", f, h, broadcast=False))
    return kernels


def _moe_kernels(
    workload: Workload, layer: int, tokens: int
) -> list[KernelProfile]:
    """Router, routed experts and shared expert of one MoE layer.

    Routed-expert weight traffic covers only the experts the batch
    activates (expected value over uniform routing); compute covers only
    the tokens each expert processes.  This asymmetry is what keeps MoE
    arithmetic intensity low as batch grows (Fig 1).
    """
    model = workload.model
    moe = model.moe
    if moe is None:
        raise ValueError(f"layer {layer} of {model.name} is not a MoE layer")
    h = model.hidden_size
    wb = workload.weight_dtype.nbytes
    actb = workload.act_dtype.nbytes
    fe = moe.expert_intermediate_size
    fs = moe.shared_expert_intermediate_size

    active_experts = moe.expected_active_experts(tokens)
    routed_tokens = tokens * moe.experts_per_token

    kernels = [
        KernelProfile(
            name="router",
            kind=KernelKind.LINEAR,
            flops=2.0 * tokens * h * moe.num_experts,
            weight_bytes=h * moe.num_experts * wb,
            act_bytes=tokens * (h + moe.num_experts) * actb,
            collective_bytes=tokens * h * actb,
            layer=layer,
        ),
        KernelProfile(
            name="moe_experts",
            kind=KernelKind.MOE,
            flops=2.0 * routed_tokens * 3 * h * fe,
            weight_bytes=active_experts * 3 * h * fe * wb,
            act_bytes=routed_tokens * (2 * h + 3 * fe) * actb,
            # Token dispatch to expert owners and gather of results.
            collective_bytes=2.0 * routed_tokens * h * actb,
            layer=layer,
        ),
        KernelProfile(
            name="shared_expert",
            kind=KernelKind.LINEAR,
            flops=2.0 * tokens * 3 * h * fs,
            weight_bytes=3 * h * fs * wb,
            act_bytes=tokens * (2 * h + 3 * fs) * actb,
            layer=layer,
        ),
    ]
    return kernels


def decode_step_profile(workload: Workload) -> list[KernelProfile]:
    """Kernels of one decode step (one new token per sequence in the batch)."""
    kernels: list[KernelProfile] = []
    tokens = workload.batch_size
    for layer in range(workload.model.num_layers):
        kernels.extend(_layer_kernels(workload, layer, tokens))
    kernels.append(_lm_head(workload, tokens))
    return kernels


def prefill_step_profile(workload: Workload, chunk_tokens: int) -> list[KernelProfile]:
    """Kernels for prefilling ``chunk_tokens`` prompt tokens per sequence.

    Used by the H100 characterization (Fig 2's prefill phase): weight
    traffic is identical to decode but compute scales with the chunk,
    pushing kernels into the compute-bound regime.
    """
    if chunk_tokens < 1:
        raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
    kernels: list[KernelProfile] = []
    tokens = workload.batch_size * chunk_tokens
    for layer in range(workload.model.num_layers):
        kernels.extend(_layer_kernels(workload, layer, tokens))
    return kernels


# ----------------------------------------------------------------------
# Value-sharing fast profiles
# ----------------------------------------------------------------------
# A layer's kernel values are a pure function of its attention span and
# whether it is MoE -- the ``layer`` label is the only thing that
# distinguishes two full-attention dense layers.  Both repeat with
# ``ModelConfig.layer_period`` (1 for Llama3, 4 for Llama4), so the
# signatures of the first period describe every layer.  The perf models
# reduce kernel *values* in layer order and never read the label: they
# derive their per-kernel rows once per distinct layer list
# (:func:`derive_per_layer`) and fold the rows layer by layer, which
# accumulates the exact float sequence of a flat per-kernel loop.
# Graph lowering (which keys on ``layer``) must keep using the labeled
# profiles above.
def layer_step_profiles(workload: Workload, tokens: int) -> list[list[KernelProfile]]:
    """Per-layer kernel lists for one step processing ``tokens`` new
    tokens, computing each distinct (attention-span, MoE) layer
    signature once.  Layers sharing a signature return the *same* list
    (labeled with the first such layer) -- value-identical, ~num_layers
    times cheaper to build for uniform-attention models."""
    model = workload.model
    attn = model.attention
    seq_len = workload.seq_len
    by_signature: dict[tuple[int, bool], list[KernelProfile]] = {}
    period: list[list[KernelProfile]] = []
    for layer in range(min(model.layer_period, model.num_layers)):
        signature = (attn.attention_span(layer, seq_len), model.is_moe_layer(layer))
        kernels = by_signature.get(signature)
        if kernels is None:
            kernels = by_signature[signature] = _layer_kernels(workload, layer, tokens)
        period.append(kernels)
    repeats, rest = divmod(model.num_layers, len(period))
    return period * repeats + period[:rest]


def decode_step_layer_values(workload: Workload) -> list[list[KernelProfile]]:
    """One decode step as per-layer kernel lists (shared per signature,
    see :func:`layer_step_profiles`) with the lm_head appended as a
    final single-kernel list.  Flattened, this is exactly
    :func:`decode_step_profile` by value."""
    profiles = layer_step_profiles(workload, workload.batch_size)
    profiles.append([_lm_head(workload, workload.batch_size)])
    return profiles


_Row = TypeVar("_Row")


def derive_per_layer(
    layer_lists: Sequence[list[KernelProfile]],
    derive: Callable[[list[KernelProfile]], _Row],
) -> list[_Row]:
    """``[derive(kernels) for kernels in layer_lists]``, calling
    ``derive`` once per distinct list object.  Layers sharing a
    signature share one kernel list, so they share its derived rows:
    folding the result in order gives the same floats as deriving and
    accumulating kernel by kernel."""
    derived: dict[int, _Row] = {}
    rows: list[_Row] = []
    for kernels in layer_lists:
        row = derived.get(id(kernels))
        if row is None:
            row = derived[id(kernels)] = derive(kernels)
        rows.append(row)
    return rows


def _lm_head(workload: Workload, tokens: int) -> KernelProfile:
    model = workload.model
    return KernelProfile(
        name="lm_head",
        kind=KernelKind.LINEAR,
        flops=2.0 * tokens * model.hidden_size * model.vocab_size,
        weight_bytes=model.hidden_size * model.vocab_size * workload.weight_dtype.nbytes,
        act_bytes=tokens * model.hidden_size * workload.act_dtype.nbytes,
        collective_bytes=tokens * model.hidden_size * workload.act_dtype.nbytes,
        layer=None,
    )


def step_totals(kernels: list[KernelProfile]) -> dict[str, float]:
    """Aggregate a step profile: flops, weight/kv/hbm/collective bytes."""
    return {
        "flops": left_sum(k.flops for k in kernels),
        "weight_bytes": left_sum(k.weight_bytes for k in kernels),
        "kv_bytes": left_sum(k.kv_bytes for k in kernels),
        "hbm_bytes": left_sum(k.hbm_bytes for k in kernels),
        "act_bytes": left_sum(k.act_bytes for k in kernels),
        "collective_bytes": left_sum(k.collective_bytes for k in kernels),
    }


def chunked_prefill_flops(workload: Workload, chunk_tokens: int = 2048) -> float:
    """Total FLOPs of prefilling the workload's prompt in ~``chunk_tokens``
    slices (the chunking every prefill cost model charges, so GPU- and
    RPU-role prefill comparisons share one aggregation)."""
    prompt = workload.prefill_len
    if prompt == 0:
        return 0.0
    num_chunks = max(1, round(prompt / chunk_tokens))
    tokens = workload.batch_size * (prompt // num_chunks)
    total = 0.0
    for row in derive_per_layer(layer_step_profiles(workload, tokens), _flops_row):
        for flops in row:
            total += flops
    return total * num_chunks


def _flops_row(kernels: list[KernelProfile]) -> list[float]:
    return [kernel.flops for kernel in kernels]


def step_arithmetic_intensity(workload: Workload) -> float:
    """Average FLOPs per HBM byte of one decode step (Fig 1, right)."""
    totals = step_totals(decode_step_profile(workload))
    return totals["flops"] / totals["hbm_bytes"]
