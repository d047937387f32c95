"""NxFP: nanoscaling floating point (two-level block scaling).

NxFP refines MXFP with *adaptive microexponents*: under the block's shared
E8M0 scale, small sub-blocks carry a per-sub-block exponent offset so that
quiet regions of a block keep precision next to a loud outlier.  This is a
faithful functional model of the format's two-level scaling (the paper's
stream decoder lists NxFP among its supported inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

# simlint: module-ok[numpy-guarding] numpy-native quantization kernels;
# excluded from the pure-Python (REPRO_NO_NUMPY) leg by design
import numpy as np

from repro.quant.blocks import (
    QuantizedTensor,
    from_blocks,
    power_of_two_scale,
    to_blocks,
)
from repro.quant.minifloat import FP4_E2M1, MiniFloatSpec, quantize_minifloat


@dataclass(frozen=True)
class NxfpCodec:
    """Two-level scaled codec: E8M0 block scale + per-sub-block offsets."""

    element_spec: MiniFloatSpec = FP4_E2M1
    block_size: int = 32
    sub_block_size: int = 8
    offset_bits: int = 1  # microexponent: shift sub-block scale down 0..2^n-1

    def __post_init__(self) -> None:
        if self.block_size % self.sub_block_size != 0:
            raise ValueError("block_size must be a multiple of sub_block_size")

    @property
    def name(self) -> str:
        return f"nxfp{self.element_spec.bits}"

    @property
    def sub_blocks_per_block(self) -> int:
        return self.block_size // self.sub_block_size

    @property
    def max_offset(self) -> int:
        return (1 << self.offset_bits) - 1

    def encode(self, values: np.ndarray) -> QuantizedTensor:
        blocks, shape = to_blocks(values, self.block_size)
        num_blocks = blocks.shape[0]
        subs = blocks.reshape(num_blocks, self.sub_blocks_per_block, self.sub_block_size)

        block_max = np.abs(blocks).max(axis=1)
        scales = power_of_two_scale(block_max, self.element_spec.max_value)

        # Microexponent: how many extra power-of-two steps each sub-block
        # can afford to scale down (its max is that much quieter).
        sub_max = np.abs(subs).max(axis=2)
        safe_sub = np.where(sub_max > 0, sub_max, block_max[:, None])
        safe_sub = np.where(safe_sub > 0, safe_sub, 1.0)
        # A subnormal sub-block max overflows the ratio to inf, which the
        # clip below maps to ``max_offset``, as it should.
        with np.errstate(over="ignore"):
            ratio = scales[:, None] * self.element_spec.max_value / safe_sub
        headroom = np.floor(np.log2(ratio))
        offsets = np.clip(headroom, 0, self.max_offset).astype(np.int8)

        sub_scales = scales[:, None] * np.exp2(-offsets.astype(np.float32))
        elements = quantize_minifloat(subs / sub_scales[:, :, None], self.element_spec)
        return QuantizedTensor(
            codec_name=self.name,
            shape=shape,
            block_size=self.block_size,
            scales=scales,
            payload=elements.reshape(num_blocks, self.block_size),
            extra={"offsets": offsets},
        )

    def decode(self, encoded: QuantizedTensor) -> np.ndarray:
        if encoded.codec_name != self.name:
            raise ValueError(
                f"codec mismatch: tensor is {encoded.codec_name}, codec is {self.name}"
            )
        if not encoded.extra or "offsets" not in encoded.extra:
            raise ValueError("NxFP tensor is missing its microexponent plane")
        num_blocks = encoded.num_blocks
        subs = encoded.payload.reshape(
            num_blocks, self.sub_blocks_per_block, self.sub_block_size
        )
        sub_scales = encoded.scales[:, None] * np.exp2(
            -encoded.extra["offsets"].astype(np.float32)
        )
        blocks = (subs * sub_scales[:, :, None]).reshape(num_blocks, self.block_size)
        return from_blocks(blocks, encoded.shape)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip convenience: decode(encode(values))."""
        return self.decode(self.encode(values))

    def bits_per_element(self) -> float:
        """Amortized bits per element (element + block scale + offsets)."""
        per_block = 8.0 + self.sub_blocks_per_block * self.offset_bits
        return self.element_spec.bits + per_block / self.block_size
