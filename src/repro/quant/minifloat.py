"""Generic minifloat (tiny IEEE-style float) quantization.

The element types of every block format the stream decoder handles are
minifloats: FP4 is E2M1, FP6 is E3M2, FP8 is E4M3/E5M2.  This module
quantizes float arrays to an arbitrary (exponent bits, mantissa bits)
format with subnormal support and round-to-nearest-even, entirely in
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

# simlint: module-ok[numpy-guarding] numpy-native quantization kernels;
# excluded from the pure-Python (REPRO_NO_NUMPY) leg by design
import numpy as np


@dataclass(frozen=True)
class MiniFloatSpec:
    """A sign + exponent + mantissa element format."""

    name: str
    exponent_bits: int
    mantissa_bits: int
    # E4M3-style formats repurpose the top exponent for finite values,
    # reserving only the all-ones mantissa for NaN.
    extended_range: bool = False
    # OCP FP4/FP6 element formats have no inf/NaN codes at all: every
    # encoding is a finite value.
    finite_only: bool = False

    def __post_init__(self) -> None:
        if self.exponent_bits < 1 or self.mantissa_bits < 0:
            raise ValueError(f"invalid minifloat spec {self}")

    @property
    def bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        """Largest biased exponent usable for finite values."""
        top = (1 << self.exponent_bits) - 1
        if self.finite_only or self.extended_range:
            return top
        return top - 1

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        exp = self.max_exponent - self.bias
        mantissa_max = 2.0 - 2.0 ** (-self.mantissa_bits)
        if self.extended_range and not self.finite_only:
            # E4M3 reserves only mantissa=all-ones at top exponent for NaN.
            mantissa_max = 2.0 - 2.0 ** (1 - self.mantissa_bits)
        return mantissa_max * 2.0**exp

    @property
    def min_subnormal(self) -> float:
        return 2.0 ** (1 - self.bias - self.mantissa_bits)


def quantize_minifloat(values: np.ndarray, spec: MiniFloatSpec) -> np.ndarray:
    """Quantize float32 values to ``spec``, returning float32 results.

    Values are clamped to the format's finite range (saturating, as the
    stream decoder does); rounding is round-to-nearest-even on the
    quantization grid.
    """
    array = np.asarray(values, dtype=np.float64)
    sign = np.sign(array)
    magnitude = np.abs(array)
    clamped = np.minimum(magnitude, spec.max_value)

    # Quantization step depends on the exponent bucket of each value.
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log2(np.where(clamped > 0, clamped, 1.0)))
    exponent = np.clip(exponent, 1 - spec.bias, None)  # subnormal floor
    step = 2.0 ** (exponent - spec.mantissa_bits)

    # Round-to-nearest-even in units of the local step.
    quotient = clamped / step
    rounded = np.rint(quotient)
    # rint ties-to-even matches IEEE behaviour.
    result = rounded * step

    # Rounding can push a value into the next binade (e.g. 1.96 -> 2.0);
    # that is still exactly representable, but re-clamp the top.
    result = np.minimum(result, spec.max_value)
    out = (sign * result).astype(np.float32)
    out[np.isnan(np.asarray(values, dtype=np.float32))] = np.nan
    return out


#: Element formats used by the block codecs (OCP FP4/FP6 are finite-only).
FP4_E2M1 = MiniFloatSpec("fp4_e2m1", exponent_bits=2, mantissa_bits=1, finite_only=True)
FP6_E3M2 = MiniFloatSpec("fp6_e3m2", exponent_bits=3, mantissa_bits=2, finite_only=True)
FP8_E4M3_SPEC = MiniFloatSpec("fp8_e4m3", exponent_bits=4, mantissa_bits=3, extended_range=True)
FP8_E5M2_SPEC = MiniFloatSpec("fp8_e5m2", exponent_bits=5, mantissa_bits=2)
