import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import detrend

from conftest import make_trace
from infrasense.features import FramePlan, feature_matrix
from infrasense.road_analysis import (
    QuarterCar,
    RoadAnalysisError,
    StepInstabilityError,
    classify_maneuvers,
    detect_anomalies,
    detrend_linear,
    lobe_signs,
    quarter_car_states,
    robust_z,
    roughness_index,
    segment_bounds,
    simulate_quarter_car,
    yaw_events,
)
from infrasense.synth import PROFILE_SPACING, Pothole, Sinusoid, SynthSpec, generate_trace
from infrasense.trace_model import CapabilityError, cumtrapz, gravity_split
from oracles import lobes_loop, segment_rows_mask, yaw_events_loop


def maneuvers(trace):
    """classify_maneuvers on an aligned trace, fed its own linear acceleration."""
    return classify_maneuvers(trace, gravity_split(trace)[1])


def roughness(trace, **kwargs):
    """roughness_index on an aligned trace, fed its own linear acceleration."""
    return roughness_index(trace, gravity_split(trace)[1], **kwargs)


class TestRobustZ:
    def test_zero_dispersion_flagged(self):
        z, flat = robust_z(np.full(10, 4.2))
        assert flat
        assert np.all(z == 0.0)

    @given(a=st.floats(0.1, 50.0), b=st.floats(-100.0, 100.0))
    @settings(max_examples=30)
    def test_positive_affine_invariance(self, a, b):
        x = np.array([1.0, 2.0, 2.5, 3.0, 8.0, 2.2, 1.7])
        z0, _ = robust_z(x)
        z1, _ = robust_z(a * x + b)
        assert np.allclose(z0, z1, atol=1e-9)

    def test_known_value(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        z, flat = robust_z(x)  # median 3, MAD 1
        assert not flat
        assert z[0] == pytest.approx(-2.0 / 1.4826)
        assert z[4] == pytest.approx(97.0 / 1.4826)


def spiky_matrix(rng, spikes=(450,), n=3000, rate=100.0):
    sig = rng.normal(scale=0.1, size=n)
    for s in spikes:
        sig[s] += 8.0
    trace = make_trace(duration=(n - 1) / rate, rate=rate)
    m = feature_matrix(sig, FramePlan(1.0, 0.5, rate))
    return m, trace.fixes


class TestDetectAnomalies:
    def test_single_spike_found(self, rng):
        m, fixes = spiky_matrix(rng)
        res = detect_anomalies(m, fixes)
        assert len(res.indicators) == 1
        ind = res.indicators[0]
        assert ind.kind == "anomaly"
        # sample 450 at 100 Hz -> t = 4.5 s; peak window should cover it
        assert abs(ind.t - 4.5) <= 1.0
        assert 0.0 < ind.confidence <= 1.0
        assert ind.severity >= 1

    def test_two_spikes_ordered(self, rng):
        m, fixes = spiky_matrix(rng, spikes=(450, 2250))
        res = detect_anomalies(m, fixes)
        assert len(res.indicators) == 2
        assert res.indicators[0].t < res.indicators[1].t

    def test_synthetic_potholes_no_false_positives(self):
        # quarter-car ride over three dips + sensor noise: exactly the
        # injected anomalies should surface, on every seed
        for seed in range(3):
            spec = SynthSpec(duration=60.0, speed=10.0, seed=seed, noise_sigma=0.05,
                             potholes=(Pothole(100.0, 0.04, 0.5),
                                       Pothole(300.0, 0.05, 0.5),
                                       Pothole(480.0, 0.06, 0.5)))
            trace = generate_trace(spec)
            m = feature_matrix(trace.accel[:, 2] + 9.81, FramePlan(3.0, 1 / 3, spec.rate))
            res = detect_anomalies(m, trace.fixes, k=3.0)
            assert len(res.indicators) == 3

    def test_contiguous_windows_merge(self, rng):
        # a long burst spans several windows but yields one indicator
        n = 3000
        sig = rng.normal(scale=0.1, size=n)
        sig[1400:1600] += 6.0 * np.sin(np.arange(200))
        m = feature_matrix(sig, FramePlan(1.0, 0.5, 100.0))
        fixes = make_trace(duration=29.99).fixes
        res = detect_anomalies(m, fixes)
        assert len(res.indicators) == 1

    def test_degenerate_flag(self):
        m = feature_matrix(np.zeros(3000), FramePlan(1.0, 0.5, 100.0))
        res = detect_anomalies(m, make_trace(with_fixes=False).fixes)
        assert res.degenerate
        assert res.indicators == []

    def test_too_few_windows(self):
        m = feature_matrix(np.zeros(300), FramePlan(1.0, 0.0, 100.0))
        with pytest.raises(RoadAnalysisError):
            detect_anomalies(m, [])

    def test_missing_feature(self, rng):
        m = feature_matrix(rng.normal(size=3000), FramePlan(1.0, 0.5, 100.0), ("mean",))
        with pytest.raises(RoadAnalysisError):
            detect_anomalies(m, [])


def gyro_trace(wz, rate=100.0, lat_accel=None):
    n = len(wz)
    gyro = np.zeros((n, 3))
    gyro[:, 2] = wz
    trace = make_trace(duration=(n - 1) / rate, rate=rate, gyro=gyro)
    if lat_accel is not None:
        trace.accel[:, 1] += lat_accel
    return trace


class TestClassifyManeuvers:
    def test_needs_gyro(self):
        with pytest.raises(CapabilityError):
            maneuvers(make_trace())

    def test_quiet_trace_no_events(self):
        n = 2001
        out = maneuvers(gyro_trace(np.zeros(n)))
        assert out == []

    def test_turn(self):
        t = np.arange(0, 20, 0.01)
        wz = np.where((t >= 5) & (t < 10), 0.3, 0.0)  # 1.5 rad ~ 86 deg
        out = maneuvers(gyro_trace(wz))
        assert [i.sub_kind for i in out] == ["turn"]
        assert out[0].value == pytest.approx(1.5, abs=0.02)

    def test_u_turn(self):
        t = np.arange(0, 20, 0.01)
        wz = np.where((t >= 5) & (t < 12), 0.5, 0.0)  # 3.5 rad ~ 200 deg
        out = maneuvers(gyro_trace(wz))
        assert [i.sub_kind for i in out] == ["u_turn"]

    def test_lane_change_two_lobes_one_event(self):
        t = np.arange(0, 20, 0.01)
        wz = np.zeros_like(t)
        seg = (t >= 5) & (t < 9)
        wz[seg] = 0.3 * np.sin(2 * np.pi * (t[seg] - 5) / 4.0)  # one full period
        out = maneuvers(gyro_trace(wz))
        assert [i.sub_kind for i in out] == ["lane_change"]

    def test_swerve_needs_lateral_acceleration(self):
        t = np.arange(0, 20, 0.01)
        wz = np.zeros_like(t)
        seg = (t >= 5) & (t < 9)
        wz[seg] = 0.3 * np.sin(2 * np.pi * (t[seg] - 5) / 4.0)
        lat = np.where(seg, 3.0 * np.sin(2 * np.pi * (t - 5) / 4.0), 0.0)
        out = maneuvers(gyro_trace(wz, lat_accel=lat))
        assert [i.sub_kind for i in out] == ["swerve"]

    def test_curvy_segment(self):
        t = np.arange(0, 30, 0.01)
        wz = np.zeros_like(t)
        seg = (t >= 5) & (t < 21)
        wz[seg] = 0.2 * np.sin(2 * np.pi * (t[seg] - 5) / 4.0)  # 4 periods
        out = maneuvers(gyro_trace(wz))
        assert [i.sub_kind for i in out] == ["curvy_segment"]

    def test_sub_threshold_rotation_ignored(self):
        t = np.arange(0, 20, 0.01)
        wz = np.full_like(t, 0.02)  # below omega_on
        assert maneuvers(gyro_trace(wz)) == []

    def test_event_position_and_severity(self):
        t = np.arange(0, 20, 0.01)
        wz = np.where((t >= 8) & (t < 13), 0.3, 0.0)
        out = maneuvers(gyro_trace(wz))
        assert out[0].t == pytest.approx(10.5, abs=0.5)
        assert out[0].severity == pytest.approx(86, abs=3)

    def test_omega_off_above_omega_on_refused(self):
        wz = np.zeros(2001)
        with pytest.raises(ValueError, match="omega_off"):
            classify_maneuvers(gyro_trace(wz), np.zeros((len(wz), 3)), omega_on=0.03,
                               omega_off=0.06)


# sample times on a 0.05 s grid, written as decimals; some pairs of them lie
# exactly MANEUVER_MIN_DURATION or MANEUVER_GAP apart, e.g. (0.05, 0.35), (0.35, 0.85)
TIME_GRID = np.array([float(f"{k * 0.05:.2f}") for k in range(601)])  # 60 steps of 10


@st.composite
def yaw_series(draw):
    """Thresholds with omega_off <= omega_on (equal or zero at times) and a
    yaw-rate series that often sits exactly on either one, sampled at times
    with repeated stamps and with steps of the gap and the minimum duration."""
    omega_off = draw(st.sampled_from([0.0, 0.03, 0.05]))
    omega_on = omega_off + draw(st.sampled_from([0.0, 0.01, 0.03]))
    level = st.sampled_from([0.0, omega_off, omega_on])
    value = st.one_of(st.builds(lambda v, sign: sign * v, level, st.sampled_from([1, -1])),
                      st.floats(-0.1, 0.1))
    n = draw(st.integers(1, 60))
    wz = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    steps = draw(st.lists(st.sampled_from([0, 1, 2, 6, 10]), min_size=n, max_size=n))
    return TIME_GRID[np.cumsum(steps)], wz, omega_on, omega_off


class TestYawEventsOracle:
    @settings(max_examples=400, deadline=None)
    @given(yaw_series())
    # an event of exactly MANEUVER_MIN_DURATION, then a cold sample exactly
    # MANEUVER_GAP after it
    @example((TIME_GRID[[1, 7, 17, 18, 24]], np.array([0.1, 0.03, 0.0, 0.1, 0.06]), 0.05, 0.03))
    def test_events_and_lobes_match_the_loops(self, series):
        t, wz, omega_on, omega_off = series
        first, last = yaw_events(t, wz, omega_on, omega_off)
        events = list(zip(first.tolist(), last.tolist()))
        assert events == yaw_events_loop(t, wz, omega_on, omega_off)
        for i0, i1 in [*events, (0, len(wz) - 1)]:
            seg = wz[i0:i1 + 1]
            assert lobe_signs(seg, omega_off).tolist() == lobes_loop(seg, omega_off)


def synth_trace(amp=0.005, wavelength=4.0, duration=65.0, speed=10.0, seed=0):
    spec = SynthSpec(duration=duration, speed=speed, seed=seed,
                     sinusoids=(Sinusoid(amplitude_m=amp, wavelength_m=wavelength),))
    return generate_trace(spec)


class TestRoughnessIndex:
    def test_flat_road_near_zero(self):
        trace = generate_trace(SynthSpec(duration=65.0))
        reports, skipped = roughness(trace)
        assert len(reports) >= 5
        assert all(r.index < 1e-6 for r in reports)

    def test_amplitude_doubling_doubles_index(self):
        a = roughness(synth_trace(amp=0.004))[0]
        b = roughness(synth_trace(amp=0.008))[0]
        assert len(a) == len(b) >= 5
        for ra, rb in zip(a, b):
            assert rb.index == pytest.approx(2.0 * ra.index, rel=0.05)

    def test_segments_of_identical_road_agree(self):
        reports, _ = roughness(synth_trace())
        vals = [r.index for r in reports[1:-1]]  # skip edge transients
        assert max(vals) - min(vals) < 0.15 * np.mean(vals)

    def test_segment_positions(self):
        reports, _ = roughness(synth_trace())
        assert [r.s_start for r in reports] == [100.0 * i for i in range(len(reports))]

    def test_needs_speed(self):
        trace = make_trace(with_fixes=False)
        with pytest.raises(CapabilityError, match="^roughness needs GPS speed$"):
            roughness(trace)

    def test_bad_segment_length(self):
        with pytest.raises(ValueError):
            roughness(make_trace(), segment_length=0.0)


class TestSegmentBounds:
    def rows(self, s, segment_length=100.0):
        bounds = segment_bounds(s, segment_length)
        return [np.arange(i, j) for i, j in zip(bounds[:-1], bounds[1:])]

    def test_ride_with_samples_on_the_edges(self):
        # 8 m/s at 64 Hz: s steps by exactly 0.125 m, so every 100 m edge is a sample
        trace = make_trace(duration=70.0, rate=64.0, speed=8.0)
        s = cumtrapz(trace.fixes.interp("speed", trace.t), trace.t)
        assert np.isin(np.arange(6) * 100.0, s).all()
        got, want = self.rows(s), segment_rows_mask(s, 100.0)
        assert len(got) == len(want) == 5
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        reports, skipped = roughness(trace)
        assert len(reports) + len(skipped) == 5

    @given(st.lists(st.sampled_from([0.0, 0.125, 12.5, 37.5, 100.0, 250.0]),
                    min_size=1, max_size=60))
    def test_matches_the_mask_rule(self, steps):
        # exact binary steps, with stops (0) and jumps over whole segments
        s = np.cumsum([0.0, *steps])
        got, want = self.rows(s), segment_rows_mask(s, 100.0)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestDetrendLinear:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-6, 1e3), offset=st.floats(-1e6, 1e6),
           slope=st.floats(-1e3, 1e3))
    def test_matches_scipy(self, n, seed, scale, offset, slope):
        # a random walk on a line, like the integrated band-limited signals
        walk = scale * np.cumsum(np.random.default_rng(seed).normal(size=n))
        x = offset + slope * np.arange(n) + walk
        err = np.max(np.abs(detrend_linear(x) - detrend(x, type="linear")))
        assert err <= 1e-12 * np.max(np.abs(x))


class TestQuarterCar:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            QuarterCar(suspension_stiffness=-1.0)
        with pytest.raises(ValueError):
            QuarterCar(mass_ratio=0.0)

    def test_flat_profile_zero_response(self):
        accel = simulate_quarter_car(np.zeros(2000), PROFILE_SPACING, 10.0)
        assert np.max(np.abs(accel)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(3)
        profile = 0.002 * rng.normal(size=2000)
        a = simulate_quarter_car(profile, PROFILE_SPACING, 10.0, rate=200.0)
        b = simulate_quarter_car(3.0 * profile, PROFILE_SPACING, 10.0, rate=200.0)
        assert np.allclose(b, 3.0 * a, atol=1e-9)

    def test_pothole_response_peaks_at_pothole(self):
        profile = np.zeros(4000)  # 200 m
        profile[2000:2010] = -0.05  # dip at 100 m
        accel = simulate_quarter_car(profile, PROFILE_SPACING, 10.0, rate=200.0)
        t_peak = np.argmax(np.abs(accel)) / 200.0
        assert t_peak == pytest.approx(10.0, abs=0.3)

    def test_step_rate_convergence(self):
        profile = np.zeros(2000)
        profile[1000:1010] = -0.05
        coarse = simulate_quarter_car(profile, PROFILE_SPACING, 10.0, rate=500.0)
        fine = simulate_quarter_car(profile, PROFILE_SPACING, 10.0, rate=1000.0)
        assert np.max(np.abs(coarse)) == pytest.approx(np.max(np.abs(fine)), rel=0.05)

    def test_undamped_energy_conserved(self):
        p = QuarterCar(damping=0.0)
        states, _ = quarter_car_states(lambda t: 0.0, 10.0, p, 1000.0,
                                       init=(0.01, 0.0, 0.0, 0.0))
        zs, vs, zu, vu = states.T
        energy = (0.5 * vs ** 2 + 0.5 * p.mass_ratio * vu ** 2
                  + 0.5 * p.suspension_stiffness * (zs - zu) ** 2
                  + 0.5 * p.tire_stiffness * zu ** 2)
        assert np.max(np.abs(energy - energy[0])) <= 0.01 * energy[0]

    def test_instability_detected(self):
        t = np.arange(0, 100, PROFILE_SPACING)
        profile = 0.01 * np.sin(2 * np.pi * t / 5.0)
        with pytest.raises(StepInstabilityError):
            simulate_quarter_car(profile, PROFILE_SPACING, 10.0, rate=14.0)
