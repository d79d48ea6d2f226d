import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infrasense.trace_model import (
    CapabilityError,
    EmptyTraceError,
    GeoFix,
    GravityState,
    SchemaError,
    Trace,
    alpha_from_timeconstant,
    gravity_split,
    integrate_gyro,
    parse_trace,
    reorient,
    resample,
    update_gravity,
    write_trace_csv,
)

from conftest import make_trace


def write_csv(tmp_path, rows, header="t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc"):
    path = tmp_path / "trace.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestParseTrace:
    def test_three_rows_rate_inferred(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,,,,",
            "0.01,0,0,-9.81,,,,,,,",
            "0.02,0,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert len(trace) == 3
        # median of successive differences is 0.01 s -> 100 Hz
        assert trace.nominal_rate == pytest.approx(100.0)
        assert report.rows_dropped == 0

    def test_single_valid_row_is_empty_trace(self, tmp_path):
        path = write_csv(tmp_path, ["0,0,0,-9.81,,,,,,,"])
        with pytest.raises(EmptyTraceError):
            parse_trace(path)

    def test_out_of_order_rows_sorted_and_counted(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,1,0,-9.81,,,,,,,",
            "0.02,3,0,-9.81,,,,,,,",
            "0.01,2,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert list(trace.t) == [0.0, 0.01, 0.02]
        assert list(trace.accel[:, 0]) == [1.0, 2.0, 3.0]
        assert report.reorders == 1

    def test_missing_column_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path, ["0,0,0"], header="t,ax,ay")
        with pytest.raises(SchemaError):
            parse_trace(path)

    def test_nonfinite_rows_dropped(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,,,,",
            "0.01,nan,0,-9.81,,,,,,,",
            "0.02,0,0,-9.81,,,,,,,",
        ])
        trace, report = parse_trace(path)
        assert len(trace) == 2
        assert report.rows_dropped == 1

    def test_jsonl_roundtrip_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t": 0, "ax": 0, "ay": 0, "az": -9.81, "gx": 0.1, "gy": 0, "gz": 0}\n'
            '{"t": 0.01, "ax": 0, "ay": 0, "az": -9.81, "gx": 0.1, "gy": 0, "gz": 0,'
            ' "lat": 51.0, "lon": 7.0, "speed": 10.0, "acc": 5.0}\n'
        )
        trace, _ = parse_trace(path, "jsonl")
        assert trace.gyro is not None
        assert len(trace.fixes) == 1

    def test_csv_writer_roundtrip(self, tmp_path):
        trace = make_trace(duration=2.0, rate=50.0, gyro=np.zeros((101, 3)))
        out = tmp_path / "out.csv"
        write_trace_csv(trace, out)
        back, report = parse_trace(out)
        assert np.allclose(back.t, trace.t)
        assert np.allclose(back.accel, trace.accel)
        assert back.gyro is not None
        assert len(back.fixes) == len(trace.fixes)

    @given(n=st.integers(2, 300), rate=st.sampled_from([20.0, 50.0, 100.0]),
           data=st.data())
    def test_csv_writer_roundtrip_off_grid_fixes(self, tmp_path_factory, n, rate, data):
        t = np.arange(n) / rate
        rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        # every fix sits off the grid, by 1 % to 49 % of a sample interval
        offsets = data.draw(st.lists(
            st.tuples(st.floats(0.01, 0.49), st.sampled_from([-1.0, 1.0])),
            min_size=len(rows), max_size=len(rows)))
        geo = st.tuples(st.floats(-90, 90), st.floats(-180, 180),
                        st.floats(0, 60), st.floats(0.1, 100))
        fixes = [GeoFix(t[i] + sign * frac / rate, *data.draw(geo))
                 for i, (frac, sign) in zip(rows, offsets)]
        trace = Trace(t=t, accel=np.zeros((n, 3)), gyro=None, fixes=fixes, nominal_rate=rate)
        out = tmp_path_factory.mktemp("roundtrip") / "out.csv"
        write_trace_csv(trace, out)
        back, _ = parse_trace(out)
        assert len(back.fixes) == len(fixes)
        for i, sent, got in zip(rows, fixes, back.fixes):
            assert got.t == t[i]
            assert abs(got.t - sent.t) <= 0.5 / rate
            assert (got.lat, got.lon, got.speed, got.accuracy) == \
                (sent.lat, sent.lon, sent.speed, sent.accuracy)


class TestResample:
    def test_midpoint_interpolation(self):
        trace = Trace(t=np.array([0.0, 0.02]), accel=np.array([[0.0, 0, 0], [2.0, 0, 0]]),
                      gyro=None, fixes=[], nominal_rate=50.0)
        out = resample(trace, 100.0)
        assert np.allclose(out.t, [0.0, 0.01, 0.02])
        assert np.allclose(out.accel[:, 0], [0.0, 1.0, 2.0])

    def test_identity_at_same_rate(self, rng):
        n = 500
        trace = make_trace(duration=(n - 1) / 100.0, rate=100.0,
                           accel_z=rng.normal(size=n))
        out = resample(trace, 100.0)
        assert len(out) == len(trace)
        assert np.max(np.abs(out.accel - trace.accel)) < 1e-12

    def test_downsampling_preserves_rms(self):
        t = np.arange(0, 4, 0.01)
        sine = np.sin(2 * np.pi * 5 * t)
        trace = make_trace(duration=t[-1], rate=100.0, accel_z=sine)
        out = resample(trace, 50.0)

        def rms(x):  # direct summation oracle
            return math.sqrt(sum(v * v for v in x) / len(x))

        assert rms(out.accel[:, 2] + 9.81) == pytest.approx(rms(sine), rel=0.02)

    def test_too_short_span(self):
        trace = Trace(t=np.array([0.0, 0.001]), accel=np.zeros((2, 3)),
                      gyro=None, fixes=[], nominal_rate=1000.0)
        with pytest.raises(EmptyTraceError):
            resample(trace, 100.0)


class TestGravityFilter:
    def test_geometric_convergence(self):
        # closed form: g_z after n steps of constant input a is a*(1 - alpha^n)
        state = GravityState(g=np.zeros(3), alpha=0.9)
        a = np.array([0.0, 0.0, 9.81])
        for n in range(1, 51):
            state, linear = update_gravity(state, a)
            assert state.g[2] == pytest.approx(9.81 * (1 - 0.9 ** n), rel=1e-12)
        assert abs(linear[2]) < 9.81 * 0.9 ** 50 * 1.01

    def test_fixed_point(self):
        g = np.array([0.1, -0.2, 9.8])
        state = GravityState(g=g.copy(), alpha=0.5)
        state, linear = update_gravity(state, g)
        assert np.allclose(linear, 0.0)

    def test_alpha_near_one_freezes_estimate(self):
        state = GravityState(g=np.array([0.0, 0.0, 5.0]), alpha=1 - 1e-12)
        state, _ = update_gravity(state, np.array([100.0, 100.0, 100.0]))
        assert state.g[2] == pytest.approx(5.0, abs=1e-9)

    def test_decomposition_lossless(self, rng):
        state = GravityState(g=rng.normal(size=3), alpha=0.95)
        for _ in range(20):
            a = rng.normal(size=3)
            state, linear = update_gravity(state, a)
            assert np.allclose(linear + state.g, a, atol=1e-12)

    @given(alpha=st.floats(0.01, 0.99), n=st.integers(1, 40))
    def test_contraction_property(self, alpha, n):
        a = np.array([1.0, -2.0, 9.0])
        g0 = np.array([0.5, 0.5, 0.5])
        state = GravityState(g=g0.copy(), alpha=alpha)
        for _ in range(n):
            state, _ = update_gravity(state, a)
        expected = alpha ** n * np.linalg.norm(g0 - a)
        assert np.linalg.norm(state.g - a) == pytest.approx(expected, rel=1e-9)


class TestAlphaFromTimeconstant:
    def test_direct_value(self):
        assert alpha_from_timeconstant(1.0, 0.01) == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_small_dt_limit(self):
        assert alpha_from_timeconstant(1.0, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_symmetry_case(self):
        assert alpha_from_timeconstant(0.5, 0.5) == 0.5

    @pytest.mark.parametrize("tau,dt", [(0, 1), (1, 0), (-1, 1), (1, -1)])
    def test_domain_errors(self, tau, dt):
        with pytest.raises(ValueError):
            alpha_from_timeconstant(tau, dt)


class TestIntegrateGyro:
    def test_constant_rate(self):
        n = 1001
        gyro = np.zeros((n, 3))
        gyro[:, 2] = 0.1
        trace = make_trace(duration=10.0, rate=100.0, gyro=gyro)
        assert integrate_gyro(trace, "z", 0.0, 10.0) == pytest.approx(1.0, rel=1e-9)

    def test_sine_analytic(self):
        rate = 1000.0
        n = int(math.pi * rate) + 1
        t = np.arange(n) / rate
        gyro = np.zeros((n, 3))
        gyro[:, 2] = np.sin(t)
        trace = make_trace(duration=t[-1], rate=rate, gyro=gyro)
        assert integrate_gyro(trace, "z", 0.0, math.pi) == pytest.approx(2.0, abs=1e-4)

    def test_empty_interval(self):
        trace = make_trace(duration=2.0, gyro=np.ones((201, 3)))
        assert integrate_gyro(trace, "x", 1.0, 1.0) == 0.0

    def test_additive_over_adjacent_intervals(self, rng):
        n = 501
        gyro = rng.normal(size=(n, 3))
        trace = make_trace(duration=5.0, rate=100.0, gyro=gyro)
        whole = integrate_gyro(trace, "y", 0.3, 4.7)
        parts = integrate_gyro(trace, "y", 0.3, 2.123) + integrate_gyro(trace, "y", 2.123, 4.7)
        assert whole == pytest.approx(parts, abs=1e-12)

    def test_no_gyro_is_capability_error(self):
        trace = make_trace(duration=2.0)
        with pytest.raises(CapabilityError):
            integrate_gyro(trace, "z", 0.0, 1.0)


def rotation_x(deg):
    r = math.radians(deg)
    return np.array([[1, 0, 0],
                     [0, math.cos(r), -math.sin(r)],
                     [0, math.sin(r), math.cos(r)]])


class TestReorient:
    def test_aligned_trace_identity(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        res = reorient(trace)
        assert np.max(np.abs(res.rotation - np.eye(3))) < 1e-6

    def test_rotated_90_about_x_recovers_gravity(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        rot = rotation_x(90)
        rotated = Trace(t=trace.t, accel=(rot @ trace.accel.T).T, gyro=None,
                        fixes=[], nominal_rate=trace.nominal_rate)
        res = reorient(rotated)
        assert np.mean(res.trace.accel[:, 2]) == pytest.approx(-9.81, abs=0.1)

    def test_stationary_trace_forward_undetermined(self):
        trace = make_trace(duration=5.0, with_fixes=False)
        res = reorient(trace)
        assert not res.forward_resolved

    def test_norms_preserved(self, rng):
        n = 501
        trace = make_trace(duration=5.0, accel_z=rng.normal(scale=0.5, size=n))
        res = reorient(trace)
        before = np.linalg.norm(trace.accel, axis=1)
        after = np.linalg.norm(res.trace.accel, axis=1)
        assert np.max(np.abs(before - after)) < 1e-9

    def test_forward_axis_recovered_with_motion(self):
        # surge (forward accel) along device y while moving: y must map to +x
        n = 1001
        accel_z = np.zeros(n)
        trace = make_trace(duration=10.0, rate=100.0, accel_z=accel_z, speed=10.0)
        accel = trace.accel.copy()
        t = trace.t
        # surge bursts on the device y axis, starting after a quiet second
        accel[:, 1] += 2.0 * (((t - 1.0) % 3.0 < 1.0) & (t >= 1.0))
        moved = Trace(t=trace.t, accel=accel, gyro=None, fixes=trace.fixes,
                      nominal_rate=100.0)
        res = reorient(moved, tau=5.0)
        assert res.forward_resolved
        # the surge axis (device +y) must land on vehicle +x
        mapped = res.rotation @ np.array([0.0, 1.0, 0.0])
        assert mapped[0] == pytest.approx(1.0, abs=1e-2)


def test_gravity_split_initializes_at_first_sample(rng):
    trace = make_trace(duration=2.0)
    gravity, linear = gravity_split(trace)
    assert np.allclose(gravity[0], trace.accel[0])
    assert np.allclose(gravity + linear, trace.accel, atol=1e-12)


def test_geofix_validation():
    with pytest.raises(ValueError):
        GeoFix(0.0, 91.0, 0.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        GeoFix(0.0, 0.0, 0.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        GeoFix(0.0, 0.0, 0.0, 1.0, 0.0)
