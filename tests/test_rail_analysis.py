import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_trace, perfbench_module
from infrasense import trace_model
from infrasense.cli import EXIT_OK, main
from infrasense.rail_analysis import (
    GeometryProfile,
    RailAnalysisError,
    cant_angle,
    cant_from_roll,
    classify_curves,
    curve_runs,
    geometry_to_csv,
    twist,
)
from infrasense.trace_model import CapabilityError, Fixes, Trace, cumtrapz, write_trace_csv
from infrasense.transforms import swt_bandpass
from oracles import curve_runs_loop, geometry_to_csv_writer


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
        with pytest.raises(CapabilityError, match="^track geometry needs GPS speed$"):
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
            fixes.append((float(ft), 51.0 + ft * 1e-4, 7.0, speed, 5.0))
        accel = np.zeros((n, 3))
        accel[:, 2] = -9.81
        trace = Trace(t=t, accel=accel, gyro=np.zeros((n, 3)), fixes=Fixes(*np.array(fixes).T))
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


THRESHOLD = 1.0 / 5000.0


@st.composite
def curvature_runs(draw):
    """Piecewise-constant curvature on a uniform track, in levels around the
    on (threshold) and off (threshold/2) levels, with either sign; pieces
    of 38-42 samples at 0.5 m make gaps and arcs just under, at and over 20 m."""
    ds = draw(st.sampled_from([0.2, 0.5, 1.0]))
    level = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 4.0])
    length = st.one_of(st.integers(1, 150), st.sampled_from([38, 39, 40, 41, 42]))
    pieces = draw(st.lists(st.tuples(length, level, st.sampled_from([1.0, -1.0])),
                           min_size=1, max_size=12))
    smooth = np.concatenate([np.full(n, sign * lvl * THRESHOLD) for n, lvl, sign in pieces])
    s = draw(st.floats(0.0, 1e4)) + ds * np.arange(len(smooth))
    return s, smooth


def pieces(*spec, ds=0.5):
    """(samples, curvature) pieces on a track of spacing `ds` from s = 0."""
    smooth = np.concatenate([np.full(n, k) for n, k in spec])
    return ds * np.arange(len(smooth)), smooth


class TestCurveRuns:
    @settings(max_examples=300, deadline=None)
    @given(profile=curvature_runs())
    @example(profile=pieces((60, 0.0), (100, 4e-4), (38, 0.0), (100, 4e-4)))  # 19.5 m gap
    @example(profile=pieces((60, 0.0), (100, 4e-4), (39, 0.0), (100, 4e-4)))  # 20 m gap
    @example(profile=pieces((100, 4e-4), (100, -4e-4)))  # sign change, runs to both ends
    @example(profile=pieces((100, 0.0), (41, 4e-4)))  # 20 m run at the end
    @example(profile=pieces((100, 0.0), (40, 4e-4), (100, 0.0)))  # 19.5 m run
    @example(profile=pieces((50, 1.5e-4), (10, 2.5e-4), (50, 1.5e-4), (100, 0.0)))
    def test_matches_the_sample_loop(self, profile):
        s, smooth = profile
        assert curve_runs(s, smooth, THRESHOLD) == curve_runs_loop(s, smooth, THRESHOLD)

    def test_gap_rule(self):
        # 38 samples below threshold/2 at 0.5 m: 19.5 m from the last sample
        # of one run to the first of the next; 39 samples: 20 m
        s, smooth = pieces((60, 0.0), (100, 4e-4), (38, 0.0), (100, 4e-4), (60, 0.0))
        assert curve_runs(s, smooth, THRESHOLD) == [(60, 298)]
        s, smooth = pieces((60, 0.0), (100, 4e-4), (39, 0.0), (100, 4e-4), (60, 0.0))
        assert curve_runs(s, smooth, THRESHOLD) == [(60, 160), (199, 299)]

    def test_lukewarm_stretch_is_no_run(self):
        s, smooth = pieces((60, 0.0), (100, 1.9e-4), (60, 0.0))
        assert curve_runs(s, smooth, THRESHOLD) == []

    def test_hysteresis_extends_the_run(self):
        s, smooth = pieces((60, 0.0), (40, 1e-4), (60, 3e-4), (40, 1.2e-4), (60, 0.0))
        assert curve_runs(s, smooth, THRESHOLD) == [(60, 200)]

    def test_empty(self):
        assert curve_runs(np.empty(0), np.empty(0), THRESHOLD) == []


def noisy_track(straight, radius=None, seed=0, ds=0.2, noise=2.5e-4):
    """Signed curvature with white noise at `noise` 1/m: `straight` m, then,
    with a radius, a 100 m clothoid, a 600 m arc and a 100 m clothoid, and
    `straight` m again."""
    s = np.arange(0.0, 2 * straight + (800.0 if radius else 0.0), ds)
    kappa = np.zeros(len(s))
    if radius:
        k = 1.0 / radius
        into = s - straight
        kappa = np.clip(np.minimum(into, 800.0 - into) / 100.0, 0.0, 1.0) * k
    kappa = kappa + np.random.default_rng(seed).normal(0.0, noise, len(s))
    return profile(s, np.zeros(len(s)), kappa)


# on these profiles the radius read 1-9 % high over seeds 0-14 (most at
# 800 m): the clothoid ramps above the threshold pull the mean curvature down
NOISY_RADIUS_TOLERANCE = 0.15


class TestCurvesUnderNoise:
    @pytest.mark.parametrize("seed", range(5))
    def test_straight_track_no_curves(self, seed):
        assert classify_curves(noisy_track(1000.0, seed=seed)) == []

    @pytest.mark.parametrize("radius, seed", [(800.0, 0), (1000.0, 1), (1200.0, 2), (1500.0, 3),
                                              (1500.0, 4)])
    def test_clothoid_curve_found_once(self, radius, seed):
        out = classify_curves(noisy_track(400.0, radius, seed=seed))
        assert len(out) == 1
        assert out[0].value == pytest.approx(radius, rel=NOISY_RADIUS_TOLERANCE)
        assert out[0].sub_kind == "long"

    def test_reverse_curve_under_noise_stays_one_run(self):
        # from s = 800 m the curvature turns over 100 m from 1/1000 to
        # -1/1000, then ramps on to -1/500 and holds it to the end
        pts = noisy_track(400.0, 1000.0)
        s, kappa = pts.s, pts.curvature.copy()
        kappa[s > 800.0] -= 2.0 / 1000.0 * np.clip((s[s > 800.0] - 800.0) / 100.0, 0, 1)
        out = classify_curves(profile(s, np.zeros(len(s)), kappa))
        assert len(out) == 1


class TestRailAnalyzeCommand:
    SPEED = 20.0  # m/s
    RADII = (900.0, 1400.0)
    STARTS = (400.0, 1600.0)  # m

    def curved_trace(self, seed=7):
        """Two curves, left then right, each a 100 m clothoid, a 600 m arc
        and a 100 m clothoid, between 400 m straights; gyro noise of
        0.005 rad/s on the roll and yaw rates."""
        rate = 100.0
        duration = (3 * 400.0 + 2 * 800.0) / self.SPEED
        t = np.arange(int(round(duration * rate)) + 1) / rate
        s = self.SPEED * t
        kappa = np.zeros(len(t))
        for start, radius, sign in zip(self.STARTS, self.RADII, (1.0, -1.0)):
            into = s - start
            kappa += sign * np.clip(np.minimum(into, 800.0 - into) / 100.0, 0.0, 1.0) / radius
        rng = np.random.default_rng(seed)
        return rail_trace(duration, rate, self.SPEED,
                          roll_rate=rng.normal(0.0, 0.005, len(t)),
                          yaw_rate=self.SPEED * kappa + rng.normal(0.0, 0.005, len(t)))

    def test_injected_curves_found(self, tmp_path):
        trace = tmp_path / "rail.csv"
        write_trace_csv(self.curved_trace(), trace)
        cfg = tmp_path / "rail.cfg"
        cfg.write_text("context = rail\n")
        out = tmp_path / "out"
        assert main(["analyze", str(trace), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        geojson = out / "indicators.geojson"
        assert geojson.stat().st_size < 10_000
        curves = [f["properties"] for f in json.loads(geojson.read_text())["features"]
                  if f["properties"]["kind"] == "curvature"]
        assert len(curves) == len(self.RADII)
        for got, radius, start in zip(curves, self.RADII, self.STARTS):
            assert got["value"] == pytest.approx(radius, rel=NOISY_RADIUS_TOLERANCE)
            assert got["t"] == pytest.approx((start + 400.0) / self.SPEED, abs=5.0)


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

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_bytes_match_the_csv_writer(self, tmp_path, n):
        # bases 0.5, 3 and 50 m over 20 m of track: twist columns nearly
        # full, short and empty
        rng = np.random.default_rng(n)
        s = np.arange(n) * 0.5
        pts = profile(s, rng.normal(0.0, 5.0, n), rng.normal(0.0, 1e-3, n) * 10.0 ** -rng.integers(0, 20, n))
        if n:
            pts.curvature[0] = -0.0
        bases = (0.5, 3.0, 50.0)
        geometry_to_csv(pts, tmp_path / "a.csv", twist_bases=bases)
        geometry_to_csv_writer(pts, tmp_path / "b.csv", twist_bases=bases)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("n", [7, 8, 9, 19])
    def test_bytes_match_across_row_blocks(self, tmp_path, monkeypatch, n):
        # blocks of 8 rows: n = block - 1, block, block + 1 and 2 block + 3.
        # Over 0.5 m spacing, base b leaves n - 2b twist values; the lengths
        # end inside the first block, on a block edge and in the last block,
        # and base 50 m leaves the column empty.
        monkeypatch.setattr(trace_model, "_ROW_BLOCK", 8)
        lengths = [m for m in (3, 8, 16, n - 1) if m < n]
        bases = (*[(n - m) / 2 for m in lengths], 50.0)
        rng = np.random.default_rng(n)
        pts = profile(np.arange(n) * 0.5, rng.normal(0.0, 5.0, n), rng.normal(0.0, 1e-3, n))
        assert [len(twist(pts, b)) for b in bases[:-1]] == lengths
        geometry_to_csv(pts, tmp_path / "a.csv", twist_bases=bases)
        geometry_to_csv_writer(pts, tmp_path / "b.csv", twist_bases=bases)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_peak_memory(self, tmp_path):
        # 60 k points, 3 MB of CSV: the row-block writer peaks 5 MB above its
        # start, its rounded copies of the columns included; a writer that
        # held all 6 MB of full-precision cells as str at once peaked at 37 MB
        n = 60_000
        rng = np.random.default_rng(0)
        pts = profile(np.arange(n) * 0.5, rng.normal(0.0, 5.0, n), rng.normal(0.0, 1e-3, n))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            geometry_to_csv(pts, tmp_path / "geometry.csv")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 12e6


BENCH_SEED, BENCH_DURATION = 5, 240.0


@pytest.fixture(scope="module")
def bench_rail(tmp_path_factory):
    """A 4-min benchmark rail ride over two curves, analysed through the CLI."""
    work = tmp_path_factory.mktemp("bench-rail")
    with pytest.MonkeyPatch.context() as mp:
        inputs, checks = perfbench_module("inputs", mp), perfbench_module("checks", mp)
        ride = inputs.rail_ride(BENCH_SEED, duration=BENCH_DURATION)
    ride.write_csv(work / "ride.csv")
    (work / "rail.cfg").write_text("context = rail\n")
    assert main(["analyze", str(work / "ride.csv"), "--config", str(work / "rail.cfg"),
                 "--out", str(work / "out")]) == EXIT_OK
    return inputs, checks, ride, work


class TestBenchmarkRailRide:
    def test_benchmark_checks_pass(self, bench_rail):
        inputs, checks, ride, work = bench_rail
        assert len(ride.truth["curves"]) == 2
        header, values = checks.read_geometry(work / "out" / "geometry.csv")
        collection = checks.load_json(work / "out" / "indicators.geojson")
        assert checks.check_twist(header, values) == []
        assert checks.check_cant_irregularity(header, values, ride.truth) == []
        curve_length = 2 * inputs.TRANSITION + inputs.ARC
        assert checks.check_curves(collection, ride.truth, curve_length) == []

    def test_cells_hold_the_profile_to_their_resolution(self, bench_rail):
        _, _, _, work = bench_rail
        trace, _ = trace_model.parse_trace(work / "ride.csv")
        profile, _ = cant_from_roll(trace_model.reorient(trace).trace)
        with open(work / "out" / "geometry.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["s", "cant_mm", "twist3", "twist5", "curvature"]
        cells = np.array(rows)
        assert cells.shape == (len(profile), len(header))

        def column(name):
            return cells[:, header.index(name)]

        def assert_within(got, want, half_step):
            # half the last written digit, plus float slack
            assert np.max(np.abs(got - want)) <= half_step * (1 + 1e-6)

        s, cant = column("s").astype(float), column("cant_mm").astype(float)
        assert_within(s, profile.s, 0.5e-3)  # m
        assert_within(cant, profile.cant_height, 0.5e-4)  # mm
        assert_within(column("curvature").astype(float), profile.curvature, 5e-9)  # 1/m
        rounded = replace(profile, s=s, cant_height=cant)
        for base in (3.0, 5.0):
            cells_of_base = column(f"twist{base:g}")
            ahead = s + base <= s[-1]
            np.testing.assert_array_equal(cells_of_base == "", ~ahead)
            assert_within(cells_of_base[ahead].astype(float), twist(rounded, base), 5e-8)  # mm/m
