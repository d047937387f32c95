"""Shared machinery for block-quantized formats.

All block formats (BFP, MXFP, NxFP) share the same skeleton: the tensor is
flattened, padded to a multiple of the block size, and quantized per block
against a shared scale.  :class:`QuantizedTensor` carries the encoded
payload plus enough metadata to reconstruct the original shape.
"""

from __future__ import annotations

from dataclasses import dataclass

# simlint: module-ok[numpy-guarding] numpy-native quantization kernels;
# excluded from the pure-Python (REPRO_NO_NUMPY) leg by design
import numpy as np


@dataclass
class QuantizedTensor:
    """An encoded tensor: per-block scales + per-element codes."""

    codec_name: str
    shape: tuple[int, ...]
    block_size: int
    scales: np.ndarray  # one per block (format-defined meaning)
    payload: np.ndarray  # blocks x block_size element codes (format-defined)
    extra: dict[str, np.ndarray] | None = None  # e.g. NxFP micro-exponents

    @property
    def num_blocks(self) -> int:
        return self.payload.shape[0]

    def storage_bits(self, element_bits: float, scale_bits: float) -> float:
        """Total encoded size in bits (elements + shared scales)."""
        return self.num_blocks * (self.block_size * element_bits + scale_bits)


def to_blocks(values: np.ndarray, block_size: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Flatten and zero-pad ``values`` into (num_blocks, block_size)."""
    array = np.asarray(values, dtype=np.float32)
    flat = array.reshape(-1)
    remainder = flat.size % block_size
    if remainder:
        flat = np.concatenate([flat, np.zeros(block_size - remainder, np.float32)])
    return flat.reshape(-1, block_size), array.shape


def from_blocks(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo :func:`to_blocks`: trim padding and restore the original shape."""
    size = 1
    for dim in shape:
        size *= dim
    return blocks.reshape(-1)[:size].reshape(shape).astype(np.float32)


def power_of_two_scale(block_max: np.ndarray, target_max: float) -> np.ndarray:
    """Power-of-two scale mapping each block's max magnitude into the
    element format's range (E8M0-style shared exponent).

    Zero blocks get scale 1.0 so decode stays exact.  The exponent is
    clamped to the E8M0-representable / float32-normal range so denormal
    block maxima cannot underflow the scale to zero (hypothesis-found
    edge case).
    """
    safe_max = np.where(block_max > 0, block_max, 1.0)
    with np.errstate(divide="ignore"):
        exponent = np.ceil(np.log2(safe_max / target_max))
    exponent = np.clip(exponent, -126.0, 127.0)
    return np.exp2(exponent).astype(np.float32)
