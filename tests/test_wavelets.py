import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infrasense.transforms import (
    TransformError,
    dwt_level,
    iswt,
    levels_for_band,
    swt,
    swt_band_reconstruct,
    swt_bandpass,
    swt_level_band,
    wavedec,
    waverec,
)


class TestDwtLevel:
    def test_haar_hand_values(self):
        approx, detail = dwt_level([4.0, 6.0, 10.0, 12.0], "haar")
        assert np.allclose(approx, [7.0711, 15.5563], atol=1e-4)
        assert np.allclose(detail, [-1.4142, -1.4142], atol=1e-4)

    def test_constant_signal_zero_detail(self):
        for wav in ("haar", "db4"):
            _, detail = dwt_level(np.full(16, 3.7), wav)
            assert np.max(np.abs(detail)) < 1e-12

    def test_parseval(self, rng):
        for wav in ("haar", "db4"):
            x = rng.normal(size=64)
            approx, detail = dwt_level(x, wav)
            lhs = np.sum(approx ** 2) + np.sum(detail ** 2)
            assert lhs == pytest.approx(np.sum(x ** 2), rel=1e-9)

    def test_unsupported_wavelet(self):
        with pytest.raises(TransformError):
            dwt_level(np.zeros(8), "sym8")


class TestWavedec:
    def test_perfect_reconstruction_random(self, rng):
        x = rng.normal(size=64)
        rec = waverec(wavedec(x, "haar", 3))
        assert np.max(np.abs(rec - x)) < 1e-9

    def test_zeros_stay_zero(self):
        dec = wavedec(np.zeros(32), "db4", 3)
        assert all(np.all(d == 0) for d in dec.details)
        assert np.all(dec.approx == 0)

    def test_two_level_haar_of_ones(self):
        dec = wavedec(np.ones(8), "haar", 2)
        assert np.allclose(dec.details[0], 0.0, atol=1e-12)
        assert np.allclose(dec.details[1], 0.0, atol=1e-12)
        assert np.allclose(dec.approx, [2.0, 2.0])

    def test_band_lengths(self):
        dec = wavedec(np.zeros(100), "haar", 3)
        assert [len(d) for d in dec.details] == [50, 25, 13]
        assert len(dec.approx) == 13

    def test_too_deep(self):
        with pytest.raises(TransformError):
            wavedec(np.zeros(16), "haar", 5)

    @given(seed=st.integers(0, 10_000), n=st.integers(32, 512),
           levels=st.integers(1, 5), wav=st.sampled_from(["haar", "db4"]))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, seed, n, levels, wav):
        x = np.random.default_rng(seed).normal(size=n)
        rec = waverec(wavedec(x, wav, levels))
        assert np.linalg.norm(rec - x) <= 1e-9 * max(1.0, np.linalg.norm(x))

    def test_db4_levels_below_filter_length(self):
        # level 5 of 32 samples filters a 2-sample approximation with 4 taps
        x = np.random.default_rng(3).normal(size=32)
        rec = waverec(wavedec(x, "db4", 5))
        assert np.linalg.norm(rec - x) <= 1e-9 * np.linalg.norm(x)


class TestSwt:
    def test_completeness(self, rng):
        for wav in ("haar", "db4"):
            x = rng.normal(size=96)
            dec = swt(x, wav, 4)
            assert np.max(np.abs(iswt(dec) - x)) < 1e-9

    def test_band_lengths_all_n(self):
        dec = swt(np.zeros(64), "db4", 3)
        assert all(len(d) == 64 for d in dec.details)
        assert len(dec.approx) == 64

    def test_two_tone_band_selection(self):
        rate = 128.0
        t = np.arange(256) / rate
        lo = np.sin(2 * np.pi * 2 * t)
        sig = lo + np.sin(2 * np.pi * 30 * t)
        dec = swt(sig, "db4", 5)
        levels = levels_for_band(rate, 5, 1.0, 4.0)
        rec = swt_band_reconstruct(dec, levels)
        corr = np.corrcoef(rec, lo)[0, 1]
        assert corr >= 0.95

    def test_circular_shift_equivariance(self, rng):
        x = rng.normal(size=128)
        shift = 17
        a = swt(x, "db4", 3)
        b = swt(np.roll(x, shift), "db4", 3)
        for da, db in zip(a.details, b.details):
            assert np.max(np.abs(np.roll(da, shift) - db)) < 1e-9
        assert np.max(np.abs(np.roll(a.approx, shift) - b.approx)) < 1e-9

    def test_padding_roundtrip_odd_length(self, rng):
        x = rng.normal(size=100)  # not divisible by 2^3
        dec = swt(x, "haar", 3)
        assert np.max(np.abs(iswt(dec) - x)) < 1e-9

    def test_level_bands(self):
        assert swt_level_band(128.0, 1) == (32.0, 64.0)
        assert swt_level_band(128.0, 3) == (8.0, 16.0)
        assert levels_for_band(128.0, 5, 1.0, 4.0) == [5]
        assert levels_for_band(128.0, 5, 10.0, 70.0) == [1, 2, 3]

    def test_bad_level_subset(self):
        dec = swt(np.zeros(32), "haar", 2)
        with pytest.raises(TransformError):
            swt_band_reconstruct(dec, [3])


class TestSwtBandpass:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 600),
           rate=st.sampled_from([50.0, 100.0, 200.0]),
           f_lo=st.floats(0.0, 120.0), width=st.floats(0.0, 120.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_level_selection(self, seed, n, rate, f_lo, width):
        x = np.random.default_rng(seed).normal(size=n)
        f_hi = f_lo + width
        levels = levels_for_band(rate, max(1, int(math.floor(math.log2(n))) - 1), f_lo, f_hi)
        got = swt_bandpass(x, rate, f_lo, f_hi)
        if not levels:
            assert got is None
        else:
            want = swt_band_reconstruct(swt(x, "db4", max(levels)), levels)
            assert got.tobytes() == want.tobytes()

    def test_no_level_in_band(self):
        # 20 samples reach level 3 at most, whose band starts at 6.25 Hz
        assert swt_bandpass(np.ones(20), 100.0, 0.05, 1.0) is None
