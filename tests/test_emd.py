import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import extrema_loop

from infrasense.transforms import ImfSet, TransformError, emd, hht_spectrum
from infrasense.transforms.emd import _extrema


def dominant_frequency(x, rate):
    freqs = np.fft.rfftfreq(len(x), 1.0 / rate)
    return freqs[np.argmax(np.abs(np.fft.rfft(x)))]


def interior_extrema_count(x):
    d = np.sign(np.diff(x))
    return int(np.sum(np.abs(np.diff(d)) > 0))


class TestExtrema:
    @given(st.lists(st.integers(-2, 2), max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_on_plateaus(self, values):
        x = np.array(values, dtype=float)
        for got, want in zip(_extrema(x), extrema_loop(x)):
            assert np.array_equal(got, want)


class TestEmd:
    def test_monotone_ramp_no_imfs(self):
        ramp = np.linspace(0.0, 1.0, 100)
        result = emd(ramp)
        assert len(result) == 0
        assert np.array_equal(result.residue, ramp)

    def test_two_tone_separation(self):
        rate = 200.0
        t = np.arange(0, 5, 1 / rate)
        sig = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 1 * t)
        result = emd(sig)
        assert len(result) >= 2
        assert dominant_frequency(result.imfs[0], rate) == pytest.approx(10.0, abs=0.5)
        assert dominant_frequency(result.imfs[1], rate) == pytest.approx(1.0, abs=0.5)

    def test_completeness(self, rng):
        for _ in range(10):
            x = rng.normal(size=256)
            result = emd(x)
            err = np.linalg.norm(result.reconstruct() - x) / np.linalg.norm(x)
            assert err < 1e-9

    def test_imf_count_capped(self, rng):
        x = rng.normal(size=512)
        result = emd(x, max_imfs=3)
        assert len(result) <= 3

    def test_residue_nearly_monotone(self, rng):
        x = rng.normal(size=256)
        result = emd(x, max_imfs=50)
        assert interior_extrema_count(result.residue) <= 2

    def test_too_short_signal(self):
        with pytest.raises(TransformError):
            emd(np.zeros(4))

    def test_flat_signal_no_imfs(self):
        result = emd(np.full(64, 2.0))
        assert len(result) == 0


class TestHhtSpectrum:
    def test_pure_tone_concentrated(self):
        rate = 100.0
        imf = np.sin(2 * np.pi * 5 * np.arange(400) / rate)
        spec = hht_spectrum(ImfSet([imf], np.zeros(400)), rate, n_freq=50, n_time=20)
        core = spec.magnitudes[2:-2]  # edges excluded
        near = np.abs(spec.bin_freqs - 5.0) <= 1.0
        assert core[:, near].sum() >= 0.8 * core.sum()

    def test_zero_imf_set_rejected(self):
        with pytest.raises(TransformError):
            hht_spectrum(ImfSet([], np.zeros(16)), 100.0)

    def test_chirp_ridge_increases(self):
        rate = 200.0
        t = np.arange(0, 8, 1 / rate)
        # linear chirp 2 -> 10 Hz
        f0, f1 = 2.0, 10.0
        phase = 2 * np.pi * (f0 * t + (f1 - f0) / (2 * t[-1]) * t ** 2)
        imf = np.sin(phase)
        spec = hht_spectrum(ImfSet([imf], np.zeros(len(t))), rate, n_freq=64, n_time=16)
        rows = spec.magnitudes[1:-1]
        ridge = [float(np.sum(spec.bin_freqs * r) / np.sum(r)) for r in rows]
        # non-decreasing up to rounding (bin quantization can repeat values)
        assert all(b >= a - 1e-9 for a, b in zip(ridge, ridge[1:]))
        assert ridge[-1] - ridge[0] > 5.0
