import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from infrasense.features import (
    DEFAULT_FEATURES,
    FeatureError,
    FramePlan,
    extract_features,
    feature_matrix,
)

from oracles import FEATURES, _sd


def naive_features(window):
    """Direct-summation oracle, no numpy vectorization."""
    x = list(map(float, window))
    m = len(x)
    mean = sum(x) / m

    def median(vals):
        s = sorted(vals)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])

    med = median(x)
    mad = median([abs(v - med) for v in x])
    rms = math.sqrt(sum(v * v for v in x) / m)
    var = sum((v - mean) ** 2 for v in x) / m
    sd = math.sqrt(var)
    energy = math.sqrt(sum(v * v for v in x))
    skew = sum(((v - mean) / sd) ** 3 for v in x) / m if sd > 0 else 0.0
    kurt = sum(((v - mean) / sd) ** 4 for v in x) / m if sd > 0 else 0.0
    p2p = max(x) - min(x)
    p2rms = max(abs(v) for v in x) / rms if rms > 0 else 0.0
    return {"mean": mean, "mad": mad, "rms": rms, "var": var, "sd": sd,
            "energy": energy, "skew": skew, "kurt": kurt,
            "peak2peak": p2p, "peak2rms": p2rms}


class TestFramePlan:
    def test_documented_example(self):
        plan = FramePlan(window_len=3.0, overlap=1 / 3, rate=100.0)
        assert plan.size == 300
        assert plan.hop == 200

    def test_invalid_plans(self):
        with pytest.raises(ValueError):
            FramePlan(0.0, 0.0, 100.0)
        with pytest.raises(ValueError):
            FramePlan(3.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            FramePlan(0.005, 0.0, 100.0)  # single-sample window


class TestFrameSignal:
    """How `feature_matrix` frames a signal into windows."""

    def test_ten_second_signal_four_windows(self):
        m = feature_matrix(np.zeros(1000), FramePlan(3.0, 1 / 3, 100.0))
        assert m.n_windows == 4
        assert list(m.t_start) == [0.0, 2.0, 4.0, 6.0]  # samples 0, 200, 400, 600

    def test_disjoint_tiling(self):
        m = feature_matrix(np.arange(600.0), FramePlan(3.0, 0.0, 100.0), ("mean",))
        assert m.n_windows == 2
        assert list(m.t_start) == [0.0, 3.0] and list(m.t_end) == [3.0, 6.0]
        assert m.column("mean")[1] == np.mean(np.arange(300, 600))

    def test_single_window_boundary(self):
        m = feature_matrix(np.arange(300.0), FramePlan(3.0, 0.5, 100.0), ("mean",))
        assert m.n_windows == 1
        assert (m.t_start[0], m.t_end[0]) == (0.0, 3.0)
        assert m.column("mean")[0] == np.mean(np.arange(300))

    def test_short_signal_error(self):
        for n in (0, 1, 299):  # empty, one sample, one sample short of a window
            with pytest.raises(FeatureError):
                feature_matrix(np.zeros(n), FramePlan(3.0, 0.0, 100.0))

    @given(n=st.integers(10, 2000), m=st.integers(2, 200), overlap=st.floats(0.0, 0.9))
    @settings(max_examples=50)
    def test_count_formula(self, n, m, overlap):
        plan = FramePlan(window_len=m, overlap=overlap, rate=1.0)
        if n < plan.size:
            return
        got = feature_matrix(np.zeros(n), plan, ())
        assert got.n_windows == (n - plan.size) // plan.hop + 1


class TestExtractFeatures:
    def test_alternating_window_fixed_values(self):
        vec = extract_features([1.0, -1.0, 1.0, -1.0])
        got = dict(zip(vec.names, vec.values))
        assert got == {"mean": 0.0, "mad": 1.0, "rms": 1.0, "var": 1.0, "sd": 1.0,
                       "energy": 2.0, "skew": 0.0, "kurt": 1.0,
                       "peak2peak": 2.0, "peak2rms": 1.0}

    def test_constant_window_degenerate(self):
        vec = extract_features([5.0, 5.0, 5.0, 5.0])
        got = dict(zip(vec.names, vec.values))
        assert vec.degenerate
        for name in ("mad", "var", "sd", "peak2peak", "skew", "kurt"):
            assert got[name] == 0.0

    def test_standard_normal_moments(self, rng):
        x = rng.standard_normal(1_000_000)
        vec = extract_features(x, ("skew", "kurt"))
        assert abs(vec.values[0]) < 0.02
        assert vec.values[1] == pytest.approx(3.0, abs=0.05)

    def test_matches_naive_oracle(self, rng):
        for _ in range(50):
            w = rng.normal(scale=rng.uniform(0.1, 10), size=rng.integers(2, 64))
            vec = extract_features(w)
            oracle = naive_features(w)
            for name, val in zip(vec.names, vec.values):
                assert val == pytest.approx(oracle[name], abs=1e-10), name

    def test_unknown_feature(self):
        with pytest.raises(FeatureError):
            extract_features([1.0, 2.0], ("psd",))


class TestFeatureInvariants:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_rms_energy_identity(self, seed):
        w = np.random.default_rng(seed).normal(size=17)
        vec = extract_features(w, ("rms", "energy"))
        assert vec.values[0] == pytest.approx(vec.values[1] / math.sqrt(17), rel=1e-12)

    def test_sd_var_and_bounds(self, rng):
        for _ in range(20):
            w = rng.normal(size=32)
            got = dict(zip(DEFAULT_FEATURES, extract_features(w).values))
            assert got["sd"] ** 2 == pytest.approx(got["var"], abs=1e-12)
            assert got["var"] <= got["peak2peak"] ** 2
            assert got["peak2rms"] >= 1.0

    def test_negated_reversal_symmetry(self, rng):
        w = rng.normal(size=40)
        flipped = -w[::-1]
        a = dict(zip(DEFAULT_FEATURES, extract_features(w).values))
        b = dict(zip(DEFAULT_FEATURES, extract_features(flipped).values))
        for name in ("mad", "rms", "var", "sd", "energy", "peak2peak", "peak2rms", "kurt"):
            assert a[name] == pytest.approx(b[name], abs=1e-12)
        assert a["mean"] == pytest.approx(-b["mean"], abs=1e-12)
        assert a["skew"] == pytest.approx(-b["skew"], abs=1e-12)

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=30)
    def test_positive_scaling(self, c):
        w = np.linspace(-1.0, 2.0, 16)
        a = dict(zip(DEFAULT_FEATURES, extract_features(w).values))
        b = dict(zip(DEFAULT_FEATURES, extract_features(c * w).values))
        for name in ("mean", "mad", "rms", "sd", "energy", "peak2peak"):
            assert b[name] == pytest.approx(c * a[name], rel=1e-9)
        assert b["var"] == pytest.approx(c * c * a["var"], rel=1e-9)
        for name in ("skew", "kurt", "peak2rms"):
            assert b[name] == pytest.approx(a[name], rel=1e-9)


class TestFeatureMatrix:
    def test_shape(self):
        m = feature_matrix(np.random.default_rng(0).normal(size=1000),
                           FramePlan(3.0, 1 / 3, 100.0))
        assert m.values.shape == (4, 10)

    def test_spike_window_is_prominent(self):
        rng = np.random.default_rng(7)
        t = np.arange(1000) / 100.0
        sig = np.sin(2 * np.pi * 1.5 * t) + rng.normal(scale=0.1, size=1000)
        sig[450] += 5.0 * np.std(sig)
        m = feature_matrix(sig, FramePlan(3.0, 1 / 3, 100.0))
        spike_rows = {1, 2}  # windows [200,500) and [400,700) contain sample 450
        for name in ("peak2peak", "kurt", "peak2rms"):
            assert int(np.argmax(m.column(name))) in spike_rows

    def test_identical_windows_identical_rows(self):
        block = np.sin(np.arange(300) * 0.1)
        m = feature_matrix(np.tile(block, 3), FramePlan(3.0, 0.0, 100.0))
        assert np.max(np.abs(m.values - m.values[0])) < 1e-12

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_extract_features_per_window(self, data):
        rate = data.draw(st.sampled_from([1.0, 10.0, 100.0]))
        size = data.draw(st.integers(2, 40))
        plan = FramePlan(size / rate, data.draw(st.floats(0.0, 0.9)), rate)
        # runs of noise around a level, or of one constant (zero-dispersion windows)
        runs = data.draw(st.lists(st.tuples(st.integers(1, 120), st.booleans(),
                                            st.floats(-50, 50), st.floats(1e-3, 100)),
                                  min_size=1, max_size=6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.concatenate([np.full(k, level) if flat else level + rng.normal(scale=s, size=k)
                            for k, flat, level, s in runs])
        assume(len(x) >= plan.size)
        names = tuple(data.draw(st.permutations(DEFAULT_FEATURES))[:data.draw(st.integers(1, 10))])
        t = None
        if data.draw(st.booleans()):  # sample times with a gap
            t = np.arange(len(x)) / rate
            t[data.draw(st.integers(0, len(x) - 1)):] += data.draw(st.floats(0.0, 10.0))
        stamps = (np.arange(len(x) + 1) / rate if t is None
                  else np.append(t, t[-1] + 1.0 / rate))

        got = feature_matrix(x, plan, names, t=t)
        count = (len(x) - plan.size) // plan.hop + 1
        assert got.n_windows == count and got.names == names
        for i in range(count):
            start = i * plan.hop
            w = x[start:start + plan.size]
            degenerate = _sd(w) == 0.0
            assert got.window_index[i] == i
            assert (got.t_start[i], got.t_end[i]) == (stamps[start], stamps[start + plan.size])
            assert bool(got.degenerate[i]) == degenerate
            for name, g in zip(names, got.values[i]):
                v = FEATURES[name](w)
                assert abs(g - v) <= 1e-9 * abs(v) + 1e-12, name
                if degenerate and name in ("skew", "kurt"):
                    assert g == 0.0

    def test_no_feature_names(self):
        m = feature_matrix(np.arange(600.0), FramePlan(3.0, 0.0, 100.0), ())
        assert m.values.shape == (2, 0)
        assert list(m.t_start) == [0.0, 3.0]

    def test_short_signal_error(self):
        with pytest.raises(FeatureError):
            feature_matrix(np.zeros(299), FramePlan(3.0, 0.0, 100.0))

    def test_csv_export(self, tmp_path):
        m = feature_matrix(np.arange(600.0), FramePlan(3.0, 0.0, 100.0))
        out = tmp_path / "features.csv"
        m.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "window_index,t_start,t_end," + ",".join(DEFAULT_FEATURES)
