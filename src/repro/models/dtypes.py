"""Datatypes used for weights, activations and KV caches.

The RPU stores weights in block-compressed formats (MXFP4..8, BFP, NxFP)
and dequantizes on the fly to BF16 (see :mod:`repro.quant`); performance
models only need the storage footprint, which this enum provides.
"""

from __future__ import annotations

import enum


class DType(enum.Enum):
    """Storage datatype with its footprint in bytes per element.

    Block formats (MXFP, BFP, NxFP) carry a shared exponent per block; the
    amortized per-element overhead (e.g. 8-bit exponent over a 32-element
    block) is folded into the per-element size.
    """

    FP32 = ("fp32", 4.0)
    BF16 = ("bf16", 2.0)
    FP16 = ("fp16", 2.0)
    FP8 = ("fp8", 1.0)
    MXFP8 = ("mxfp8", 1.0 + 1.0 / 32)
    MXFP6 = ("mxfp6", 0.75 + 1.0 / 32)
    MXFP4 = ("mxfp4", 0.5 + 1.0 / 32)
    BFP4 = ("bfp4", 0.5 + 1.0 / 16)
    NXFP4 = ("nxfp4", 0.5)

    def __init__(self, label: str, nbytes: float):
        self.label = label
        self.nbytes = nbytes

    def bits(self) -> float:
        """Bits per element including amortized block metadata."""
        return self.nbytes * 8
