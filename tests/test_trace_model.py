import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infrasense import trace_model
from infrasense.trace_model import (
    CSV_COLUMNS,
    FIX_COLUMNS,
    Fixes,
    Trace,
    gravity_split,
    median,
    parse_trace,
    reorient,
    sampling_gaps,
    write_trace_csv,
)

from conftest import make_trace
from oracles import gravity_split_loop, write_trace_csv_writer
# The parse tests live in a module of their own and are collected here:
# pytest re-reads the source of a failing test's module for every failing
# Hypothesis example, and that module is short.
from parse_cases import TestJsonLine, TestParseTrace, TestReaders  # noqa: F401


def ride(n, rng, gyro=True, fix_t=None):
    """n samples at 100 Hz of random readings, with 1 Hz fixes unless
    `fix_t` gives their times."""
    t = np.arange(n) / 100.0
    fix_t = t[::100] if fix_t is None else np.asarray(fix_t, dtype=float)
    k = len(fix_t)
    fixes = Fixes(fix_t, rng.uniform(-90, 90, k), rng.uniform(-180, 180, k),
                  rng.uniform(0, 60, k), rng.uniform(0.1, 100, k))
    gyro = rng.normal(0.0, 0.1, (n, 3)) if gyro else None
    return Trace(t=t, accel=rng.normal(0.0, 3.0, (n, 3)), gyro=gyro, fixes=fixes)


class TestWriteTraceCsv:
    CASES = {
        "gyro": dict(gyro=True),
        "no_gyro": dict(gyro=False),
        # off the grid, before the first and after the last sample, and two
        # fixes on one row (the later one is written)
        "sparse_fixes": dict(gyro=False, fix_t=[-0.5, 0.004, 0.031, 0.033, 0.036, 0.1549, 0.5, 9.0]),
        "no_fixes": dict(gyro=True, fix_t=[]),
    }

    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_bytes_match_the_csv_writer(self, tmp_path, monkeypatch, case, n, block):
        if block:
            monkeypatch.setattr(trace_model, "_ROW_BLOCK", block)
        trace = ride(n, np.random.default_rng(n), **self.CASES[case])
        trace.accel[0, 0] = -0.0
        write_trace_csv(trace, tmp_path / "a.csv")
        write_trace_csv_writer(trace, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestParseMemory:
    # tracemalloc counts every allocation, so the peak repeats from run to
    # run. A 10-min ride at 100 Hz (7.9 MB of CSV): a parse that holds every
    # cell as a str at once peaks at 60 MB, one in row blocks at 16 MB.
    def test_parse_peak(self, tmp_path):
        path = tmp_path / "ride.csv"
        write_trace_csv(ride(60_000, np.random.default_rng(1)), path)
        tracemalloc.start()
        try:
            parse_trace(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_rows_to_trace_copies_only_what_it_keeps(self):
        # 60 000 clean rows in order: the Trace takes the t column as it is
        # and stacks accel and gyro once (6 columns); the row masks, the kept
        # index and the sample-rate median bring the peak to 11.8 columns of
        # n floats. Stacking every column and then copying it through the
        # kept rows, as the parse once did, peaked at 21.8.
        n = 60_000
        trace = ride(n, np.random.default_rng(1))  # a fix on every 100th row
        geo = np.full((4, n), math.nan)
        geo[:, ::100] = [getattr(trace.fixes, k) for k in FIX_COLUMNS[1:]]
        cols = dict(zip(CSV_COLUMNS, [trace.t, *trace.accel.T.copy(), *trace.gyro.T.copy(),
                                      *geo]))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            parsed, report = trace_model._columns_to_trace(cols, n)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.rows_dropped == report.reorders == 0
        np.testing.assert_array_equal(parsed.accel, trace.accel)
        np.testing.assert_array_equal(parsed.gyro, trace.gyro)
        assert peak <= 14 * 8 * n, peak / (8 * n)


def low_pass(g0, inputs, tau, dt):
    """gravity_split on a trace that starts at g0 and then reads `inputs`,
    one step of dt apart."""
    accel = np.vstack([g0, inputs])
    t = np.arange(len(accel)) * dt
    return gravity_split(Trace(t=t, accel=accel, gyro=None), tau)


def tau_for(alpha, dt=1.0):
    """Time constant whose smoothing factor tau / (tau + dt) is alpha."""
    return alpha * dt / (1.0 - alpha)


class TestGravityFilter:
    def test_geometric_convergence(self):
        # closed form: g_z after n steps of constant input a is a*(1 - alpha^n)
        a = np.array([0.0, 0.0, 9.81])
        gravity, linear = low_pass(np.zeros(3), np.tile(a, (50, 1)), tau_for(0.9), 1.0)
        for n in range(1, 51):
            assert gravity[n, 2] == pytest.approx(9.81 * (1 - 0.9 ** n), rel=1e-12)
        assert abs(linear[50, 2]) < 9.81 * 0.9 ** 50 * 1.01

    def test_fixed_point(self):
        g = np.array([0.1, -0.2, 9.8])
        _, linear = low_pass(g, g[None, :], tau_for(0.5), 1.0)
        assert np.allclose(linear, 0.0)

    def test_alpha_near_one_freezes_estimate(self):
        # tau / (tau + 1e-9) = 1 - 1e-12: a zero step takes the 1e-9 s clamp
        gravity, _ = low_pass(np.array([0.0, 0.0, 5.0]), np.array([[100.0, 100.0, 100.0]]),
                              1000.0, 0.0)
        assert gravity[1, 2] == pytest.approx(5.0, abs=1e-9)

    def test_decomposition_lossless(self, rng):
        inputs = rng.normal(size=(20, 3))
        gravity, linear = low_pass(rng.normal(size=3), inputs, tau_for(0.95), 1.0)
        assert np.allclose(linear[1:] + gravity[1:], inputs, atol=1e-12)

    @given(alpha=st.floats(0.01, 0.99), n=st.integers(1, 40))
    def test_contraction_property(self, alpha, n):
        a = np.array([1.0, -2.0, 9.0])
        g0 = np.array([0.5, 0.5, 0.5])
        gravity, _ = low_pass(g0, np.tile(a, (n, 1)), tau_for(alpha), 1.0)
        expected = alpha ** n * np.linalg.norm(g0 - a)
        assert np.linalg.norm(gravity[n] - a) == pytest.approx(expected, rel=1e-9)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_scan_matches_step_loop(self, data):
        # steps from 0 (the 1e-9 s clamp) to 1000 s, in runs of one rate each:
        # rate changes, gaps, and runs long enough to cross scan blocks
        dt = st.one_of(st.just(0.0), st.floats(1e-6, 0.05), st.floats(0.05, 5.0),
                       st.floats(5.0, 1000.0))
        pieces = data.draw(st.lists(st.tuples(st.integers(1, 1500), dt), min_size=1, max_size=6))
        t = np.concatenate([[0.0], np.cumsum(np.concatenate([np.full(k, d) for k, d in pieces]))])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.floats(0.01, 20.0))
        accel = rng.normal(scale=scale, size=(len(t), 3)) + 9.81 * rng.normal(size=3)
        trace = Trace(t=t, accel=accel, gyro=None)
        tau = data.draw(st.floats(0.05, 20.0))
        gravity, linear = gravity_split(trace, tau)
        want_gravity, want_linear = gravity_split_loop(trace, tau)
        assert np.isfinite(gravity).all() and np.isfinite(linear).all()
        bound = 1e-12 * np.max(np.abs(accel))
        assert np.max(np.abs(gravity - want_gravity)) <= bound
        assert np.max(np.abs(linear - want_linear)) <= bound


class TestAlphaFromTimeconstant:
    """The per-step smoothing factor tau / (tau + dt) of the gravity low-pass."""

    def one_step(self, tau, dt):
        # from g = 1 towards 0: the first step lands on alpha itself
        gravity, _ = low_pass(np.ones(3), np.zeros((1, 3)), tau, dt)
        return gravity[1, 0]

    def test_direct_value(self):
        assert self.one_step(1.0, 0.01) == pytest.approx(1.0 / 1.01, rel=1e-12)

    def test_small_dt_limit(self):
        alpha = self.one_step(1.0, 0.0)
        assert alpha == pytest.approx(1.0, abs=1e-8)
        assert alpha < 1.0  # the zero step is clamped to 1e-9 s

    def test_symmetry_case(self):
        assert self.one_step(0.5, 0.5) == 0.5

    @pytest.mark.parametrize("tau,dt", [(0, 1), (-1, 1)])
    def test_domain_errors(self, tau, dt):
        with pytest.raises(ValueError):
            self.one_step(tau, dt)


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
        rotated = Trace(t=trace.t, accel=(rot @ trace.accel.T).T, gyro=None)
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
        moved = Trace(t=trace.t, accel=accel, gyro=None, fixes=trace.fixes)
        res = reorient(moved, tau=5.0)
        assert res.forward_resolved
        # the surge axis (device +y) must land on vehicle +x
        mapped = res.rotation @ np.array([0.0, 1.0, 0.0])
        assert mapped[0] == pytest.approx(1.0, abs=1e-2)


def test_sampling_gaps():
    t = np.concatenate([np.arange(100) * 0.01, 1.99 + np.arange(50) * 0.01,
                        2.5 + np.arange(10) * 0.01])
    gaps = sampling_gaps(t)
    assert gaps["count"] == 2
    assert gaps["total_s"] == pytest.approx((1.99 - 0.99) + (2.5 - 2.48))
    assert sampling_gaps(np.arange(10) * 0.01) == {"count": 0, "total_s": 0.0}


# finite values with repeats, and the values where medians are delicate
MEDIAN_ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, 1.7976931348623157e308]),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))


class TestMedian:
    """`median` is `np.median` bit for bit, without importing numpy.ma."""

    @given(data=st.data(), length=st.integers(1, 40), rows=st.none() | st.integers(1, 4),
           special=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_np_median(self, data, length, rows, special):
        elements = MEDIAN_ELEMENTS if special else st.floats(-1e3, 1e3)
        shape = (length,) if rows is None else (rows, length)
        a = np.array(data.draw(st.lists(elements, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        axis = -1 if rows is None else 1
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, max + max
            want = np.median(a, axis=axis)
            got = median(a, axis=axis)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)

    def test_empty_reads_nan_as_np_median_does(self):
        with pytest.warns(RuntimeWarning):
            assert math.isnan(median(np.array([])))


def test_gravity_split_initializes_at_first_sample(rng):
    trace = make_trace(duration=2.0)
    gravity, linear = gravity_split(trace)
    assert np.allclose(gravity[0], trace.accel[0])
    assert np.allclose(gravity + linear, trace.accel, atol=1e-12)


def test_geofix_validation():
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 91.0, 0.0, 1.0, 5.0)]).T)
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 0.0, 0.0, -1.0, 5.0)]).T)
    with pytest.raises(ValueError):
        Fixes(*np.array([(0.0, 0.0, 0.0, 1.0, 0.0)]).T)


NAN_GYRO = np.zeros((101, 3))
NAN_GYRO[50, 0] = np.nan


class TestMalformedColumns:
    """A trace and its fixes refuse columns the analyses would misread."""

    @pytest.mark.parametrize("accel, gyro", [
        (np.zeros((96, 3)), None),  # 5 rows short
        (np.zeros((101, 3)), np.zeros((101, 2))),  # 2 gyro columns
        (np.zeros((101, 3)), NAN_GYRO),
    ])
    def test_samples(self, accel, gyro):
        with pytest.raises(ValueError):
            Trace(t=np.arange(101) / 100.0, accel=accel, gyro=gyro)

    @pytest.mark.parametrize("column, value", [
        ("t", np.nan), ("t", np.inf), ("speed", np.nan), ("accuracy", np.nan),
    ])
    def test_nonfinite_fix(self, column, value):
        cols = {"t": [0.0, 1.0], "lat": [51.0, 51.0], "lon": [7.0, 7.0],
                "speed": [10.0, 20.0], "accuracy": [5.0, 5.0]}
        cols[column][1] = value
        with pytest.raises(ValueError):
            Fixes(**cols)

    def test_unsorted_fixes(self):
        # np.interp would read the speed at t = 0 as 20, not 10
        with pytest.raises(ValueError):
            Fixes(t=[1.0, 0.0], lat=[51.0, 51.0], lon=[7.0, 7.0], speed=[20.0, 10.0],
                  accuracy=[5.0, 5.0])

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            Fixes(t=[0.0, 1.0], lat=[51.0], lon=[7.0, 7.0], speed=[10.0, 10.0],
                  accuracy=[5.0, 5.0])
