import math

import numpy as np
import pytest

from conftest import make_trace, straight_fixes
from infrasense.rail_analysis import (
    GeometryProfile,
    RailAnalysisError,
    TrackConstants,
    cant_angle,
    cant_from_roll,
    classify_curves,
    geometry_to_csv,
    twist,
)
from infrasense.trace_model import CapabilityError, GeoFix, Trace, cumtrapz
from infrasense.transforms import swt_bandpass


class TestCantAngle:
    def test_reference_value(self):
        assert cant_angle(150.0) == pytest.approx(math.asin(0.1), abs=1e-12)
        assert cant_angle(150.0) == pytest.approx(0.100167421, abs=1e-9)

    def test_zero(self):
        assert cant_angle(0.0) == 0.0

    def test_odd_function(self):
        for h in (10.0, 80.0, 150.0, 1200.0):
            assert cant_angle(-h) == pytest.approx(-cant_angle(h), abs=1e-15)

    def test_small_angle_regime(self):
        # below ~100 mm the angle is h/1500 to within 0.3%
        for h in (5.0, 30.0, 90.0):
            assert cant_angle(h) == pytest.approx(h / 1500.0, rel=3e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cant_angle(1500.1)
        with pytest.raises(ValueError):
            cant_angle(-2000.0)

    def test_full_range_boundary(self):
        assert cant_angle(1500.0) == pytest.approx(math.pi / 2)

    def test_custom_constants(self):
        consts = TrackConstants(rail_center_width=3000.0)
        assert cant_angle(150.0, consts) == pytest.approx(math.asin(0.05))

    def test_bad_constants(self):
        with pytest.raises(ValueError):
            TrackConstants(gauge=0.0)


def rail_trace(duration=120.0, rate=100.0, speed=30.0, roll_rate=None, yaw_rate=None):
    n = int(round(duration * rate)) + 1
    gyro = np.zeros((n, 3))
    if roll_rate is not None:
        gyro[:, 0] = roll_rate[:n]
    if yaw_rate is not None:
        gyro[:, 2] = yaw_rate[:n]
    return make_trace(duration=duration, rate=rate, gyro=gyro, speed=speed)


class TestCantFromRoll:
    def test_needs_gyro(self):
        with pytest.raises(CapabilityError):
            cant_from_roll(make_trace())

    def test_needs_speed(self):
        trace = make_trace(gyro=np.zeros((1001, 3)), with_fixes=False)
        with pytest.raises(RailAnalysisError):
            cant_from_roll(trace)

    def test_straight_quiet_track_small_cant(self, rng):
        n = 12001
        roll = rng.normal(scale=0.002, size=n)  # sensor-noise-level roll rate
        points, skipped = cant_from_roll(rail_trace(roll_rate=roll))
        assert skipped == []
        cant = points.cant_height
        assert abs(np.mean(cant)) < 2.0  # mm
        assert np.max(np.abs(cant)) < 20.0

    def test_sinusoidal_cant_wave_recovered(self):
        # cant varying with 100 m wavelength inside the retained band
        rate, speed, duration = 100.0, 30.0, 120.0
        t = np.arange(0, duration + 1 / rate, 1 / rate)
        wavelength = 100.0
        amp = 0.05  # rad
        phi = amp * np.sin(2 * np.pi * speed * t / wavelength)
        roll_rate = np.gradient(phi, t)
        points, _ = cant_from_roll(rail_trace(duration, rate, speed, roll_rate=roll_rate))
        got = points.cant_angle
        core = slice(len(got) // 4, -len(got) // 4)  # skip filter edges
        assert np.corrcoef(got[core], phi[: len(got)][core])[0, 1] > 0.95
        assert np.max(np.abs(got[core])) == pytest.approx(amp, rel=0.25)

    def test_curvature_from_yaw(self):
        n = 12001
        yaw = np.full(n, 0.06)  # rad/s at 30 m/s -> kappa = 0.002
        points, _ = cant_from_roll(rail_trace(yaw_rate=yaw))
        kappa = points.curvature
        assert np.allclose(kappa, 0.002, atol=1e-12)

    def test_low_speed_span_skipped(self):
        rate, duration = 100.0, 120.0
        n = int(duration * rate) + 1
        t = np.arange(n) / rate
        fixes = []
        for ft in range(0, int(duration) + 1):
            speed = 1.0 if 40 <= ft < 60 else 30.0
            fixes.append(GeoFix(float(ft), 51.0 + ft * 1e-4, 7.0, speed, 5.0))
        accel = np.zeros((n, 3))
        accel[:, 2] = -9.81
        trace = Trace(t=t, accel=accel, gyro=np.zeros((n, 3)), fixes=fixes,
                      nominal_rate=rate)
        points, skipped = cant_from_roll(trace)
        assert any(reason == "low_speed" for _, _, reason in skipped)
        covered = {round(t) for t in points.t}
        assert 50 not in covered

    def test_span_too_short_for_band_keeps_centred_roll(self, rng):
        # 40 samples at 100 Hz reach no SWT level of the 0.15-3 Hz band that
        # 10-200 m wavelengths make at 30 m/s
        trace = rail_trace(duration=0.39, roll_rate=rng.normal(scale=0.01, size=40))
        roll = cumtrapz(trace.gyro[:, 0], trace.t)
        assert swt_bandpass(roll, 100.0, 30.0 / 200.0, 30.0 / 10.0) is None
        points, skipped = cant_from_roll(trace)
        assert skipped == []
        assert np.array_equal(points.cant_angle, roll - np.mean(roll))

    def test_s_monotone(self):
        points, _ = cant_from_roll(rail_trace(duration=60.0))
        s = points.s
        assert all(b > a for a, b in zip(s, s[1:]))


def profile(s_vals, cant_vals, kappa_vals=None):
    s = np.asarray(s_vals, dtype=float)
    n = len(s)
    kappa = np.zeros(n) if kappa_vals is None else np.asarray(kappa_vals, dtype=float)
    return GeometryProfile(s=s, cant_angle=np.zeros(n),
                           cant_height=np.asarray(cant_vals, dtype=float),
                           curvature=kappa, t=np.zeros(n), lat=np.full(n, np.nan),
                           lon=np.full(n, np.nan))


class TestTwist:
    def test_constant_cant_zero_twist(self):
        pts = profile(np.arange(0.0, 50.0, 0.5), np.full(100, 80.0))
        for base in (3.0, 5.0):
            assert all(v == pytest.approx(0.0, abs=1e-12) for v in twist(pts, base))

    def test_linear_ramp_constant_gradient(self):
        s = np.arange(0.0, 100.0, 0.25)
        pts = profile(s, 2.0 * s)  # 2 mm per m
        for base in (3.0, 5.0):
            vals = list(twist(pts, base))
            assert vals == pytest.approx([2.0] * len(vals), abs=1e-9)

    def test_step_localized(self):
        s = np.arange(0.0, 60.0, 0.5)
        cant = np.where(s < 30.0, 0.0, 30.0)
        vals = dict(zip(s, twist(profile(s, cant), 3.0)))
        assert vals[10.0] == 0.0
        assert vals[50.0] == 0.0
        assert vals[28.0] == pytest.approx(10.0)  # 30 mm over 3 m base

    def test_window_end_excluded(self):
        s = np.arange(0.0, 10.5, 0.5)
        out = twist(profile(s, s), 3.0)
        assert s[len(out) - 1] == pytest.approx(7.0)

    def test_short_profile_error(self):
        with pytest.raises(RailAnalysisError):
            twist(profile([0.0, 1.0], [0.0, 1.0]), 3.0)

    def test_bad_base(self):
        with pytest.raises(ValueError):
            twist([], -1.0)


def kappa_profile(pairs, ds=1.0):
    """pairs: list of (length_m, curvature) runs."""
    s_vals, kappas = [], []
    s = 0.0
    for length, kappa in pairs:
        for _ in range(int(length / ds)):
            s_vals.append(s)
            kappas.append(kappa)
            s += ds
    return profile(s_vals, np.zeros(len(s_vals)), kappas)


class TestClassifyCurves:
    def test_straight_track_no_curves(self):
        assert classify_curves(kappa_profile([(500.0, 0.0)])) == []

    def test_below_threshold_ignored(self):
        assert classify_curves(kappa_profile([(500.0, 1.0 / 6000.0)])) == []

    def test_three_length_classes(self):
        pts = kappa_profile([(100.0, 0.0), (50.0, 0.002), (100.0, 0.0),
                             (300.0, 0.001), (100.0, 0.0), (700.0, 0.0005),
                             (100.0, 0.0)])
        out = classify_curves(pts)
        assert [i.sub_kind for i in out] == ["short", "medium", "long"]
        assert out[0].value == pytest.approx(500.0)  # radius = 1 / kappa
        assert out[1].value == pytest.approx(1000.0)
        assert out[2].value == pytest.approx(2000.0)

    def test_sign_change_stays_one_run(self):
        pts = kappa_profile([(100.0, 0.002), (100.0, -0.002)])
        out = classify_curves(pts)
        assert len(out) == 1
        assert out[0].sub_kind == "medium"

    def test_curve_at_profile_end(self):
        out = classify_curves(kappa_profile([(200.0, 0.0), (150.0, 0.003)]))
        assert [i.sub_kind for i in out] == ["medium"]


class TestGeometryCsv:
    def test_columns_and_twist_blanks(self, tmp_path):
        s = np.arange(0.0, 20.0, 0.5)
        pts = profile(s, 2.0 * s)
        out = tmp_path / "geometry.csv"
        geometry_to_csv(pts, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "s,cant_mm,twist3,twist5,curvature"
        assert len(lines) == len(pts) + 1
        # last rows cannot look ahead a full base: twist cells are empty
        assert lines[-1].split(",")[2] == ""
        mid = lines[5].split(",")
        assert float(mid[2]) == pytest.approx(2.0)
        assert float(mid[3]) == pytest.approx(2.0)

    def test_short_profile_blank_twists(self, tmp_path):
        pts = profile([0.0, 1.0], [0.0, 5.0])
        out = tmp_path / "geometry.csv"
        geometry_to_csv(pts, out)
        rows = out.read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "" for r in rows)
