import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import extrema_loop

from infrasense.transforms import TransformError, emd
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
