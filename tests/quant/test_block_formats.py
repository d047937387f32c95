"""Block formats: MXFP, BFP, NxFP round-trips, error bounds, storage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.bfp import BfpCodec
from repro.quant.mxfp import MXFP4, MXFP6, MXFP8
from repro.quant.nxfp import NxfpCodec
from repro.quant.registry import codec_for

ALL_CODECS = [MXFP4, MXFP6, MXFP8, BfpCodec(), BfpCodec(mantissa_bits=8), NxfpCodec()]

tensors = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 8), st.integers(1, 40)),
    elements=st.floats(-1e3, 1e3, width=32),
)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundTrip:
    def test_shape_preserved(self, codec):
        x = np.random.default_rng(0).normal(size=(13, 7)).astype(np.float32)
        assert codec.quantize(x).shape == x.shape

    def test_zero_exact(self, codec):
        x = np.zeros((4, 16), np.float32)
        assert np.array_equal(codec.quantize(x), x)

    def test_idempotent(self, codec):
        x = np.random.default_rng(1).normal(size=64).astype(np.float32)
        once = codec.quantize(x)
        assert np.allclose(codec.quantize(once), once, rtol=1e-6, atol=1e-12)

    def test_sign_preserved(self, codec):
        x = np.array([-1.0, 1.0, -0.25, 0.25] * 8, np.float32)
        out = codec.quantize(x)
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(x[nonzero]))

    def test_relative_error_reasonable(self, codec):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4096).astype(np.float32)
        rel = np.abs(codec.quantize(x) - x).mean() / np.abs(x).mean()
        assert rel < 0.25

    def test_codec_mismatch_rejected(self, codec):
        x = np.ones(32, np.float32)
        encoded = codec.encode(x)
        encoded.codec_name = "other"
        with pytest.raises(ValueError):
            codec.decode(encoded)


class TestErrorOrdering:
    def test_more_bits_less_error(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8192).astype(np.float32)
        errors = [
            np.abs(c.quantize(x) - x).mean() for c in (MXFP4, MXFP6, MXFP8)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_nxfp_beats_mxfp_at_4_bits(self):
        """Microexponents recover precision in quiet sub-blocks."""
        rng = np.random.default_rng(4)
        # Blocks with one outlier: worst case for a single shared scale.
        x = rng.normal(size=(256, 32)).astype(np.float32) * 0.1
        x[:, 0] = 8.0
        mx = np.abs(MXFP4.quantize(x) - x).mean()
        nx = np.abs(NxfpCodec().quantize(x) - x).mean()
        assert nx < mx

    def test_bfp_flushes_small_values_next_to_outlier(self):
        codec = BfpCodec(mantissa_bits=4, block_size=16)
        x = np.full(16, 0.001, np.float32)
        x[0] = 100.0
        out = codec.quantize(x)
        assert out[0] == pytest.approx(100.0, rel=0.2)
        assert np.all(out[1:] == 0.0)


class TestStorage:
    def test_mxfp4_bits_per_element(self):
        assert MXFP4.bits_per_element() == pytest.approx(4.25)

    def test_bfp4_bits_per_element(self):
        assert BfpCodec().bits_per_element() == pytest.approx(4.5)

    def test_nxfp4_bits_per_element(self):
        assert NxfpCodec().bits_per_element() == pytest.approx(4.375)

    def test_storage_bits_accounting(self):
        x = np.ones(64, np.float32)
        enc = MXFP4.encode(x)
        assert enc.storage_bits(4, 8) == 2 * (32 * 4 + 8)

    def test_registry_lookup(self):
        assert codec_for("mxfp4") is MXFP4

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            codec_for("int3")


class TestProperties:
    @settings(max_examples=30)
    @given(tensors)
    def test_mxfp8_error_bound(self, x):
        out = MXFP8.quantize(x)
        block_max = np.abs(x).max() if x.size else 0.0
        # Error bounded by the element format's epsilon times block scale.
        assert np.all(np.abs(out - x) <= np.abs(x) * 0.0725 + block_max * 2e-3 + 1e-30)

    @settings(max_examples=30)
    @given(tensors)
    def test_nxfp_padding_roundtrip(self, x):
        out = NxfpCodec().quantize(x)
        assert out.shape == x.shape

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nxfp_subnormal_sub_block_takes_max_offset(self):
        """A sub-block whose max is a float32 subnormal overflows the
        headroom ratio; that must not warn, and the sub-block still
        takes the largest offset."""
        codec = NxfpCodec()
        block = np.zeros(32, np.float32)
        block[0] = 1.0
        block[8] = np.float32(1e-40)
        offsets = codec.encode(block).extra["offsets"]
        assert offsets[0, 1] == codec.max_offset

    def test_nxfp_missing_offsets_rejected(self):
        codec = NxfpCodec()
        enc = codec.encode(np.ones(32, np.float32))
        enc.extra = None
        with pytest.raises(ValueError):
            codec.decode(enc)
