"""Transformer model configurations (dense and mixture-of-experts).

The configuration captures exactly the structure the paper's performance
analysis needs: layer shapes (for weight bytes and FLOPs), grouped-query
attention geometry (for KV traffic and attention arithmetic intensity) and
MoE structure (expert count and activation pattern, which set how weight
traffic scales with batch size -- Fig 1's dense-vs-MoE comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AttentionConfig:
    """Grouped-query attention geometry.

    ``local_window``/``global_period`` describe interleaved local
    attention (Llama4): most layers attend within a chunked window, with
    every ``global_period``-th layer attending globally.  Dense Llama3
    models leave ``local_window`` as None (all layers global).
    """

    num_heads: int
    num_kv_heads: int
    head_dim: int
    local_window: int | None = None
    global_period: int = 4

    def __post_init__(self) -> None:
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_heads ({self.num_heads}) must be a multiple of "
                f"num_kv_heads ({self.num_kv_heads})"
            )
        if self.local_window is not None and self.local_window < 1:
            raise ValueError("local_window must be positive when set")

    def is_global_layer(self, layer_index: int) -> bool:
        if self.local_window is None:
            return True
        return layer_index % self.global_period == self.global_period - 1

    def attention_span(self, layer_index: int, seq_len: int) -> int:
        """Tokens layer ``layer_index`` attends over (and caches)."""
        if self.is_global_layer(layer_index):
            return seq_len
        return min(seq_len, self.local_window)

    @property
    def queries_per_kv_head(self) -> int:
        """The GQA ratio: 16 for Llama3-405B, 5 for Llama4."""
        return self.num_heads // self.num_kv_heads

    @property
    def q_dim(self) -> int:
        return self.num_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        return self.num_kv_heads * self.head_dim


@dataclass(frozen=True)
class MoeConfig:
    """Mixture-of-experts structure.

    ``interleave`` is the MoE layer period: 1 means every layer is MoE
    (Llama4-Scout), 2 means alternating dense/MoE (Llama4-Maverick).
    """

    num_experts: int
    experts_per_token: int
    expert_intermediate_size: int
    shared_expert_intermediate_size: int
    interleave: int = 1

    def __post_init__(self) -> None:
        if self.experts_per_token > self.num_experts:
            raise ValueError("experts_per_token cannot exceed num_experts")
        if self.interleave < 1:
            raise ValueError("interleave must be >= 1")

    def expected_active_experts(self, num_tokens: int) -> float:
        """Expected number of distinct experts hit by ``num_tokens`` tokens.

        Tokens route (approximately) uniformly, so with t = tokens x top-k
        draws over E experts, E x (1 - (1 - 1/E)^t) experts are touched.
        This is what makes MoE weight traffic grow with batch size and
        keeps MoE arithmetic intensity low (Fig 1, Fig 11 discussion).
        """
        if num_tokens <= 0:
            return 0.0
        draws = num_tokens * self.experts_per_token
        expected = self.num_experts * (
            1.0 - (1.0 - 1.0 / self.num_experts) ** draws
        )
        return min(expected, float(self.num_experts))


@dataclass(frozen=True)
class ModelConfig:
    """A complete decoder-only transformer description."""

    name: str
    num_layers: int
    hidden_size: int
    attention: AttentionConfig
    intermediate_size: int
    vocab_size: int
    moe: MoeConfig | None = None
    tie_embeddings: bool = False

    # ------------------------------------------------------------------
    # Per-layer parameter counts
    # ------------------------------------------------------------------
    def attention_params(self) -> int:
        """Q, K, V and O projection parameters of one layer."""
        h = self.hidden_size
        a = self.attention
        return h * a.q_dim + 2 * h * a.kv_dim + a.q_dim * h

    def dense_mlp_params(self) -> int:
        """Gate, up and down projections of a dense MLP layer."""
        return 3 * self.hidden_size * self.intermediate_size

    def moe_layer_params(self) -> int:
        """All parameters of one MoE layer (router + experts + shared)."""
        if self.moe is None:
            raise ValueError(f"{self.name} has no MoE layers")
        router = self.hidden_size * self.moe.num_experts
        experts = (
            self.moe.num_experts
            * 3
            * self.hidden_size
            * self.moe.expert_intermediate_size
        )
        shared = 3 * self.hidden_size * self.moe.shared_expert_intermediate_size
        return router + experts + shared

    def is_moe_layer(self, layer_index: int) -> bool:
        """True if layer ``layer_index`` (0-based) is a MoE layer."""
        if self.moe is None:
            return False
        # MoE layers sit at the end of each interleave period, matching
        # Llama4-Maverick's alternating dense/MoE structure.
        return layer_index % self.moe.interleave == self.moe.interleave - 1

    @property
    def layer_period(self) -> int:
        """A period of the layer structure: layers ``i`` and
        ``i % layer_period`` always share attention span and MoE-ness.
        1 for uniform models (Llama3); ``lcm(global_period, interleave)``
        when local attention or interleaved MoE varies the layers
        (Llama4: 4)."""
        attention = self.attention
        attn_period = 1 if attention.local_window is None else attention.global_period
        moe_period = 1 if self.moe is None else self.moe.interleave
        return math.lcm(attn_period, moe_period)

    @property
    def num_moe_layers(self) -> int:
        return sum(self.is_moe_layer(i) for i in range(self.num_layers))

    @property
    def num_dense_layers(self) -> int:
        return self.num_layers - self.num_moe_layers

    def embedding_params(self) -> int:
        """Token embedding plus (unless tied) LM head."""
        one = self.vocab_size * self.hidden_size
        return one if self.tie_embeddings else 2 * one

    # ------------------------------------------------------------------
    # Whole-model parameter counts
    # ------------------------------------------------------------------
    @property
    def total_params(self) -> int:
        """All stored parameters (what memory capacity must hold)."""
        per_dense = self.attention_params() + self.dense_mlp_params()
        total = self.num_dense_layers * per_dense
        if self.moe is not None:
            per_moe = self.attention_params() + self.moe_layer_params()
            total += self.num_moe_layers * per_moe
        return total + self.embedding_params()

    @property
    def active_params_per_token(self) -> int:
        """Parameters touched by a single token (MoE activates top-k only)."""
        per_dense = self.attention_params() + self.dense_mlp_params()
        active = self.num_dense_layers * per_dense
        if self.moe is not None:
            router = self.hidden_size * self.moe.num_experts
            routed = (
                self.moe.experts_per_token
                * 3
                * self.hidden_size
                * self.moe.expert_intermediate_size
            )
            shared = 3 * self.hidden_size * self.moe.shared_expert_intermediate_size
            active += self.num_moe_layers * (
                self.attention_params() + router + routed + shared
            )
        # The LM head is read once per token; the embedding row lookup is
        # negligible and excluded.
        head = self.vocab_size * self.hidden_size
        return active + head

    @property
    def is_moe(self) -> bool:
        return self.moe is not None

    def weight_bytes(self, bytes_per_param: float) -> float:
        """Model weight footprint at the given storage width."""
        return self.total_params * bytes_per_param

    def __str__(self) -> str:
        kind = "MoE" if self.is_moe else "dense"
        return (
            f"{self.name} ({kind}): {self.num_layers}L x {self.hidden_size}h, "
            f"{self.total_params / 1e9:.1f}B params "
            f"({self.active_params_per_token / 1e9:.1f}B active/token)"
        )
