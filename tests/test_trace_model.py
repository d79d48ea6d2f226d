import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infrasense.trace_model import (
    CSV_COLUMNS,
    EmptyTraceError,
    GeoFix,
    SchemaError,
    Trace,
    gravity_split,
    parse_trace,
    reorient,
    sampling_gaps,
    write_trace_csv,
)

from conftest import make_trace
from oracles import gravity_split_loop, parse_trace_rows


def write_csv(tmp_path, rows, header="t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc"):
    path = tmp_path / "trace.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


REQUIRED = ("t", "ax", "ay", "az")
GROUPS = (REQUIRED, ("gx", "gy", "gz"), ("lat", "lon", "speed", "acc"))


def draw_dirty_groups(data) -> dict:
    """Per column, whether it mixes junk in: the required, gyro and geo
    columns are each all clean (numbers only) or all dirty."""
    dirty = {}
    for group in GROUPS:
        dirty.update(dict.fromkeys(group, data.draw(st.booleans())))
    return dirty


PRESENT = st.sampled_from([True] * 7 + [False])  # an optional column or key
JUNK = st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e999", "junk", "1..2", "--1"])
# str.strip removes \x1c but float() rejects it, so its column is read cell by cell
_PAD = st.sampled_from(["", "", " ", "\t ", "\x1c"])


def _cells(values):
    """Two kinds of column: numbers as written or padded with whitespace,
    and the same numbers mixed with junk cells."""
    number = st.tuples(_PAD, values.map(repr), _PAD).map("".join)
    return number, st.one_of(*[number] * 6, JUNK)


# t takes few values, so rows repeat and fall out of order; the geo ranges
# straddle GeoFix's limits, so some fixes are invalid
CELLS = {
    "t": _cells(st.integers(0, 12).map(lambda k: k * 0.01)),
    **{c: _cells(st.one_of(st.floats(-20, 20), st.integers(-20, 20)))
       for c in ("ax", "ay", "az", "gx", "gy", "gz")},
    "lat": _cells(st.floats(-100, 100)),
    "lon": _cells(st.floats(-190, 190)),
    "speed": _cells(st.floats(-2, 60)),
    "acc": _cells(st.floats(-1, 20)),
}
JSON_NUMBER = st.one_of(st.floats(-100, 100), st.integers(0, 12).map(lambda k: k * 0.01),
                        st.integers(-100, 100))
JSON_VALUES = st.one_of(
    JSON_NUMBER, JSON_NUMBER, st.sampled_from([math.nan, math.inf, -math.inf]),
    st.tuples(_PAD, st.floats(-100, 100).map(repr), _PAD).map("".join), JUNK,
    st.none(), st.booleans(), st.just([1.0]),
)


def _parse_outcome(parse, path, fmt):
    try:
        return parse(path, fmt)
    except Exception as e:  # both parsers must fail alike
        return type(e).__name__, str(e)


def assert_same_parse(path, fmt):
    """parse_trace equals the row parser bit for bit, or fails the same way."""
    got = _parse_outcome(parse_trace, path, fmt)
    want = _parse_outcome(parse_trace_rows, path, fmt)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want
        return
    (trace, report), (want_trace, want_report) = got, want
    for name in ("t", "accel", "gyro"):
        a, b = getattr(trace, name), getattr(want_trace, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert [repr(f) for f in trace.fixes] == [repr(f) for f in want_trace.fixes]
    assert report == want_report
    assert (trace.nominal_rate, trace.meta) == (want_trace.nominal_rate, want_trace.meta)


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

    def test_invalid_fix_row_dropped_and_counted(self, tmp_path):
        path = write_csv(tmp_path, [
            "0,0,0,-9.81,,,,51.0,7.0,10.0,5.0",
            "0.01,0,0,-9.81,,,,95.0,7.0,10.0,5.0",
            "0.02,0,0,-9.81,,,,51.0,7.0,10.0,",
            "junk,0,0,-9.81,,,,,,,",
            "0.03,0,0,-9.81,,,,51.0,7.0,10.0,5.0",
        ])
        trace, report = parse_trace(path)
        assert list(trace.t) == [0.0, 0.02, 0.03]
        assert [f.t for f in trace.fixes] == [0.0, 0.03]
        assert report.rows_read == 5 and report.rows_dropped == 2
        assert report.drops == {"required_nonfinite": 1, "invalid_fix": 1}

    def test_jsonl_int_beyond_float_range_is_missing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rows = [{"t": 0.0, "ax": 0, "ay": 0, "az": -9.81},
                {"t": 0.01, "ax": 10 ** 400, "ay": 0, "az": -9.81},
                {"t": 0.02, "ax": 0, "ay": 0, "az": -9.81, "gx": 10 ** 400},
                {"t": 0.03, "ax": 0, "ay": 0, "az": -9.81}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        trace, report = parse_trace(path, "jsonl")
        assert list(trace.t) == [0.0, 0.02, 0.03]
        assert trace.gyro is None
        assert report.drops == {"required_nonfinite": 1, "invalid_fix": 0}

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_row_parser(self, tmp_path_factory, data):
        header = [c for c in CSV_COLUMNS if c in REQUIRED or data.draw(PRESENT)]
        if data.draw(st.booleans()):  # a column outside the schema, or a repeated name
            extra = data.draw(st.sampled_from(["note", *header]))
            header.insert(data.draw(st.integers(0, len(header))), extra)
        dirty = draw_dirty_groups(data)
        cells = {c: CELLS[c][dirty[c]] for c in header if c in CELLS}
        lines = [",".join(header)]
        for _ in range(data.draw(st.integers(0, 25))):
            if data.draw(st.integers(0, 9)) == 0:
                lines.append("")  # blank line
                continue
            row = [data.draw(cells.get(c, JUNK)) for c in header]
            size = data.draw(st.sampled_from([len(row)] * 10 + [1, len(row) - 1, len(row) + 2]))
            row = (row + ["7"] * 2)[:size]  # a short row, or a long one with extra cells
            lines.append(",".join(row))
        path = tmp_path_factory.mktemp("parse") / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        assert_same_parse(path, "csv")

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_jsonl_matches_row_parser(self, tmp_path_factory, data):
        dirty = draw_dirty_groups(data)
        values = {c: JSON_VALUES if dirty[c] else JSON_NUMBER for c in CSV_COLUMNS}
        partial = data.draw(st.booleans())  # rows may leave out optional keys
        lines = []
        for _ in range(data.draw(st.integers(0, 25))):
            if data.draw(st.integers(0, 9)) == 0:
                lines.append("  ")  # blank line
                continue
            keys = [c for c in CSV_COLUMNS
                    if c in REQUIRED or not partial or data.draw(PRESENT)]
            lines.append(json.dumps({k: data.draw(values[k]) for k in keys}))
        path = tmp_path_factory.mktemp("parse") / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert_same_parse(path, "jsonl")


def low_pass(g0, inputs, tau, dt):
    """gravity_split on a trace that starts at g0 and then reads `inputs`,
    one step of dt apart."""
    accel = np.vstack([g0, inputs])
    t = np.arange(len(accel)) * dt
    return gravity_split(Trace(t=t, accel=accel, gyro=None, fixes=[], nominal_rate=1.0), tau)


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
        trace = Trace(t=t, accel=accel, gyro=None, fixes=[], nominal_rate=100.0)
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


def test_sampling_gaps():
    t = np.concatenate([np.arange(100) * 0.01, 1.99 + np.arange(50) * 0.01,
                        2.5 + np.arange(10) * 0.01])
    gaps = sampling_gaps(t)
    assert gaps["count"] == 2
    assert gaps["total_s"] == pytest.approx((1.99 - 0.99) + (2.5 - 2.48))
    assert sampling_gaps(np.arange(10) * 0.01) == {"count": 0, "total_s": 0.0}


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
