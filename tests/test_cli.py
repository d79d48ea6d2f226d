import builtins
import contextlib
import errno
import gc
import json
import math
import os

import numpy as np
import pytest

from infrasense import aggregation, rail_analysis, reports, trace_model
from infrasense.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from infrasense.config import (
    _KEYS,
    ConfigError,
    PipelineConfig,
    config_hash,
    config_values,
    parse_config_text,
)
from infrasense.dissemination import SsidPacket, PacketEntry
from infrasense.trace_model import parse_trace, reorient

from conftest import perfbench_module

METERS_PER_DEG = math.pi / 180.0 * 6371000.0


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.context == "road"
        assert cfg.detector_k == 3.0
        assert cfg.frame_window_len == 3.0

    def test_parse_and_comments(self):
        cfg = parse_config_text(
            "# pipeline\ncontext = road\ndetector.k = 2.5  # looser\n"
            "features.set = mean, rms\ndetector.features = rms\n")
        assert cfg.detector_k == 2.5
        assert cfg.feature_set == ("mean", "rms")
        assert cfg.detector_features == ("rms",)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("context = road\nspeed.limit = 30\n")
        with pytest.raises(ConfigError, match="unknown key 'aggregate.radius'"):
            parse_config_text("aggregate.radius = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("detector.k = 2\ndetector.k = 3\n")

    def test_rail_key_in_road_context(self):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config_text("context = road\nrail.twist_bases = 3,5\n")

    def test_road_key_in_rail_context(self):
        for line in ("detector.k = 3", "frame.window_len = 2", "frame.overlap = 0.5",
                     "features.set = mean,rms"):
            with pytest.raises(ConfigError, match="does not apply"):
                parse_config_text(f"context = rail\n{line}\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("detector.k = many\n")

    def test_bad_context(self):
        with pytest.raises(ConfigError):
            parse_config_text("context = air\n")

    def test_missing_separator(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_defaults_load(self):
        defaults = PipelineConfig()
        for context, keys in (("road", [k for k, v in _KEYS.items() if v[2] != "rail"]),
                              ("rail", [k for k, v in _KEYS.items() if v[2] != "road"])):
            text = "".join(f"{key} = {format_value(getattr(defaults, _KEYS[key][0]))}\n"
                           for key in keys if key != "context")
            cfg = parse_config_text(f"context = {context}\n{text}")
            assert config_values(cfg) == {**config_values(defaults), "context": context}

    def test_cross_key_rule_names_the_later_line(self):
        with pytest.raises(ConfigError, match="^line 3: maneuver.omega_off must not exceed"):
            parse_config_text("maneuver.omega_off = 0.05\n\nmaneuver.omega_on = 0.04\n")
        with pytest.raises(ConfigError, match="^line 2: detector.features must all be in"):
            parse_config_text("features.set = rms, kurt\ndetector.features = rms, mean\n")
        cfg = parse_config_text("maneuver.omega_on = 0.03\nmaneuver.omega_off = 0.03\n")
        assert cfg.maneuver_omega_on == cfg.maneuver_omega_off == 0.03

    def test_hash_tracks_text(self):
        a = parse_config_text("detector.k = 2\n")
        b = parse_config_text("detector.k = 2\n")
        c = parse_config_text("detector.k = 3\n")
        assert config_hash(a) == config_hash(b) != config_hash(c)


def format_value(value) -> str:
    """A config value as its file would write it."""
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return repr(value)


def write_spec(path, **overrides):
    spec = {"duration": 60.0, "speed": 10.0, "rate": 100.0, "seed": 1,
            "noise_sigma": 0.05,
            "potholes": [{"position_m": 100.0, "depth_m": 0.04, "length_m": 0.5},
                         {"position_m": 300.0, "depth_m": 0.05, "length_m": 0.5},
                         {"position_m": 480.0, "depth_m": 0.06, "length_m": 0.5}]}
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == EXIT_OK
        assert main(["synth", "--spec", str(spec), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--spec", str(spec), "--out", str(a), "--seed", "7"])
        main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

    def test_flat_road_is_quiet(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", potholes=[], noise_sigma=0.0)
        out = tmp_path / "flat.csv"
        main(["synth", "--spec", str(spec), "--out", str(out)])
        trace, _ = parse_trace(out)
        linear_z = trace.accel[:, 2] + 9.81
        assert float(np.sqrt(np.mean(linear_z ** 2))) < 1e-9

    def test_pothole_spike_at_expected_time(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", noise_sigma=0.0,
                          potholes=[{"position_m": 50.0, "depth_m": 0.05,
                                     "length_m": 0.5}])
        out = tmp_path / "hole.csv"
        main(["synth", "--spec", str(spec), "--out", str(out)])
        trace, _ = parse_trace(out)
        linear_z = trace.accel[:, 2] + 9.81
        t_peak = trace.t[int(np.argmax(np.abs(linear_z)))]
        assert t_peak == pytest.approx(5.0, abs=0.2)

    def test_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope")
        assert main(["synth", "--spec", str(bad), "--out",
                     str(tmp_path / "x.csv")]) == EXIT_INPUT
        err = json.loads(capsys.readouterr().err.strip())
        assert err["exit"] == EXIT_INPUT

    @pytest.mark.parametrize("field", ["duration", "rate", "speed", "fix_interval"])
    def test_non_positive_or_non_finite_field(self, tmp_path, capsys, field):
        out = tmp_path / "x.csv"
        for value in (0.0, -1.0, -5.0, math.nan, math.inf):
            spec = write_spec(tmp_path / "spec.json", **{field: value})
            assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_INPUT
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])
            assert err["exit"] == EXIT_INPUT and field in err["error"]
        assert not out.exists()


@pytest.fixture(scope="module")
def pothole_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    spec = write_spec(tmp / "spec.json")
    out = tmp / "trace.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    return out


class TestAnalyzeCommand:
    def test_road_pipeline_outputs(self, pothole_trace, tmp_path):
        out = tmp_path / "report"
        assert main(["analyze", str(pothole_trace), "--out", str(out)]) == EXIT_OK
        for name in ("features.csv", "indicators.geojson", "roughness.csv",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["anomalies"] == 3
        assert manifest["counts"]["roughness_segments"] >= 5
        assert "maneuvers_skipped" not in manifest["counts"]
        geo = json.loads((out / "indicators.geojson").read_text())
        anomalies = [f for f in geo["features"]
                     if f["properties"]["kind"] == "anomaly"]
        assert len(anomalies) == 3
        # pothole at 100 m on a northbound ride from (51, 7): ~0.0009 deg north
        lats = sorted(f["geometry"]["coordinates"][1] for f in anomalies)
        assert abs((lats[0] - 51.0) * METERS_PER_DEG - 100.0) < 20.0

    def test_anomalies_near_truth(self, pothole_trace, tmp_path):
        out = tmp_path / "report"
        main(["analyze", str(pothole_trace), "--out", str(out)])
        geo = json.loads((out / "indicators.geojson").read_text())
        lats = sorted(f["geometry"]["coordinates"][1] for f in geo["features"]
                      if f["properties"]["kind"] == "anomaly")
        for lat, s_true in zip(lats, (100.0, 300.0, 480.0)):
            # within 10 m of truth or within one 3 s window (15 m half-span)
            assert abs((lat - 51.0) * METERS_PER_DEG - s_true) <= 15.0 + 1e-6

    def test_potholes_placed_after_sampling_gap(self, pothole_trace, tmp_path):
        # 3 s of samples cut out at 200-230 m, before the potholes at 300 and 480 m
        lines = pothole_trace.read_text().splitlines()
        kept = [line for line in lines[1:] if not 20.0 <= float(line.split(",")[0]) < 23.0]
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join([lines[0], *kept]) + "\n")
        out = tmp_path / "report"
        assert main(["analyze", str(gapped), "--out", str(out)]) == EXIT_OK
        geo = json.loads((out / "indicators.geojson").read_text())
        found = [(f["geometry"]["coordinates"][1] - 51.0) * METERS_PER_DEG
                 for f in geo["features"] if f["properties"]["kind"] == "anomaly"]
        speed, window_len = 10.0, 3.0
        for s_true in (100.25, 300.25, 480.25):  # pothole centres
            assert min(abs(s - s_true) for s in found) <= speed * window_len / 2

    def test_manifest_parse_report_and_gaps(self, pothole_trace, tmp_path):
        out = tmp_path / "report"
        assert main(["analyze", str(pothole_trace), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"tool", "version", "config_hash", "config", "trace",
                                 "parse_report", "gaps", "counts"}
        rows = len(pothole_trace.read_text().splitlines()) - 1
        assert manifest["parse_report"] == {
            "rows_read": rows, "rows_dropped": 0, "reorders": 0,
            "drops": {"required_nonfinite": 0, "invalid_fix": 0}}
        assert manifest["gaps"] == {"count": 0, "total_s": 0.0}

    def test_manifest_counts_cut_and_junk_row(self, pothole_trace, tmp_path):
        # 3 s of samples cut out at 20-23 s, and one row whose time is junk
        lines = pothole_trace.read_text().splitlines()
        kept = [line for line in lines[1:] if not 20.0 <= float(line.split(",")[0]) < 23.0]
        junk = "junk" + kept[500][kept[500].index(","):]
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join([lines[0], *kept[:500], junk, *kept[500:]]) + "\n")
        out = tmp_path / "report"
        assert main(["analyze", str(gapped), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parse_report"] == {
            "rows_read": len(kept) + 1, "rows_dropped": 1, "reorders": 0,
            "drops": {"required_nonfinite": 1, "invalid_fix": 0}}
        assert manifest["gaps"]["count"] == 1
        assert manifest["gaps"]["total_s"] == pytest.approx(3.01)

    def test_missing_trace(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "absent.csv"), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "trace" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_repeated_timestamps_are_input_error(self, tmp_path, capsys):
        # three of the four rows share t = 0, so the median sample interval is 0
        trace = tmp_path / "stuck.csv"
        trace.write_text("t,ax,ay,az\n" + "0,0,0,-9.81\n" * 3 + "0.01,0,0,-9.81\n")
        code = main(["analyze", str(trace), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "sample interval is 0" in json.loads(capsys.readouterr().err.strip())["error"]

    @pytest.mark.parametrize("row", [0, 1, None])
    def test_cell_past_the_field_limit_is_input_error(self, tmp_path, capsys, monkeypatch, row):
        # a 200 000-character cell in the header (None), in the first row,
        # which the text split hands to csv.reader, or in a row after a
        # quoted one, which csv.reader already reads
        monkeypatch.setattr(trace_model, "_ROW_BLOCK", 1)
        lines = ["t,ax,ay,az", '"0",0,0,-9.81', "0.01,0,0,-9.81", "0.02,0,0,-9.81"]
        big = "1" * 200_000
        if row is None:
            lines[0] += ",note" + big
        else:
            lines[row + 1] = big + lines[row + 1][lines[row + 1].index(","):]
        trace = tmp_path / "big.csv"
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "field larger than field limit" in json.loads(err[0])["error"]
        assert not out.exists()

    def test_unknown_config_key(self, pothole_trace, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus.key = 1\n")
        code = main(["analyze", str(pothole_trace), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "unknown key" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_rail_key_in_road_context(self, pothole_trace, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("context = road\nrail.curvature_threshold = 0.001\n")
        code = main(["analyze", str(pothole_trace), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("bases", ["nan", "inf", "0", "-3", "3,3", "3,3.0000001",
                                       "3.0000001", "1234567"])
    def test_bad_twist_bases(self, pothole_trace, tmp_path, capsys, bases):
        # refused as the config loads, before the trace is parsed; "3,3" and
        # "3,3.0000001" would write two columns named twist3, and the last two
        # a column whose name reads back as another base (twist3,
        # twist1.23457e+06)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"context = rail\nrail.twist_bases = {bases}\n")
        out = tmp_path / "o"
        code = main(["analyze", str(pothole_trace), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INPUT
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert error.startswith("config: line 2: bad value for 'rail.twist_bases'")
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        (b"context = rail\nrail.wavelength_min = 0", "line 2: bad value for 'rail.wavelength_min'"),
        (b"context = rail\nrail.curvature_threshold = -1",
         "line 2: bad value for 'rail.curvature_threshold'"),
        (b"detector.k = 0", "line 1: bad value for 'detector.k'"),
        (b"frame.overlap = 1.5", "line 1: bad value for 'frame.overlap'"),
        (b"frame.overlap = nan", "line 1: bad value for 'frame.overlap'"),
        (b"frame.window_len = -1", "line 1: bad value for 'frame.window_len'"),
        (b"gravity.tau = 0", "line 1: bad value for 'gravity.tau'"),
        (b"gravity.tau = inf", "line 1: bad value for 'gravity.tau'"),
        (b"roughness.segment_length = 0", "line 1: bad value for 'roughness.segment_length'"),
        (b"detector.k = -1", "line 1: bad value for 'detector.k'"),
        (b"features.set = mean", "line 1: detector.features must all be in features.set"),
        (b"features.set = mean, psd", "line 1: bad value for 'features.set'"),
        (b"features.set = rms, rms, kurt, peak2peak",
         "line 1: bad value for 'features.set': repeated features ['rms']"),
        (b"detector.features = rms, kurt, rms",
         "line 1: bad value for 'detector.features': repeated features ['rms']"),
        (b"detector.k = nan", "line 1: bad value for 'detector.k'"),
        (b"maneuver.omega_on = nan", "line 1: bad value for 'maneuver.omega_on'"),
        (b"maneuver.omega_off = 0.1",
         "line 1: maneuver.omega_off must not exceed maneuver.omega_on"),
        (b"roughness.band_min = 60", "line 1: roughness.band_min must be below roughness.band_max"),
        (b"roughness.band_max = inf", "line 1: bad value for 'roughness.band_max'"),
        (b"detector.k = 3\xff", "'utf-8' codec can't decode"),
    ])
    def test_config_refused_as_it_loads(self, pothole_trace, tmp_path, capsys, text, error):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(text + b"\n")
        out = tmp_path / "o"
        code = main(["analyze", str(pothole_trace), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"].startswith(f"config: {error}")
        assert not out.exists()

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        # a trace with windows enough for the detector but too short to
        # reorient fails mid-pipeline; out dir must stay empty
        spec = write_spec(tmp_path / "spec.json", duration=1.5, potholes=[])
        trace = tmp_path / "short.csv"
        main(["synth", "--spec", str(spec), "--out", str(trace)])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame.window_len = 0.2\n")
        out = tmp_path / "report"
        code = main(["analyze", str(trace), "--config", str(cfg), "--out", str(out)])
        assert code != EXIT_OK
        assert list(out.iterdir()) == []
        capsys.readouterr()

    def test_rail_context(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", potholes=[], duration=120.0,
                          speed=30.0, noise_sigma=0.01)
        trace = tmp_path / "rail.csv"
        main(["synth", "--spec", str(spec), "--out", str(trace)])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("context = rail\n")
        out = tmp_path / "railout"
        assert main(["analyze", str(trace), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "geometry.csv").exists()
        header = (out / "geometry.csv").read_text().splitlines()[0]
        assert header == "s,cant_mm,twist3,twist5,curvature"
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        want = reorient(parse_trace(trace)[0], tau=PipelineConfig().gravity_tau)
        assert counts["forward_resolved"] is want.forward_resolved


    def test_window_under_two_samples_is_config_error(self, pothole_trace, tmp_path, capsys):
        # refused once the trace's rate is known, before anything is written
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame.window_len = 0.01\n")
        out = tmp_path / "o"
        code = main(["analyze", str(pothole_trace), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        error = json.loads(err[0])["error"]
        assert error.startswith("config: frame.window_len = 0.01 s") and "100 Hz" in error
        assert not out.exists()

    @pytest.mark.parametrize("window_len,overlap,windows", [
        (1000.0, 0.5, 0), (8.0, 0.0, 7)])  # 6001 samples: (6001 - 800) // 800 + 1 = 7
    def test_too_few_windows_is_config_error(self, pothole_trace, tmp_path, capsys,
                                              window_len, overlap, windows):
        # refused right after the parse, before anything is written
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"frame.window_len = {window_len}\nframe.overlap = {overlap}\n")
        out = tmp_path / "o"
        code = main(["analyze", str(pothole_trace), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == (
            f"config: frame.window_len = {window_len:g} s gives {windows} windows on the "
            f"trace's 6001 samples at 100 Hz; the detector needs at least 8")
        assert not out.exists()

    def test_eight_windows_pass(self, pothole_trace, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frame.window_len = 7.5\nframe.overlap = 0\n")
        out = tmp_path / "o"
        assert main(["analyze", str(pothole_trace), "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert len((out / "features.csv").read_text().splitlines()) == 1 + 8


GYRO = ("gx", "gy", "gz")
GEO = ("lat", "lon", "speed", "acc")


def blanked(trace, path, columns):
    """The CSV `trace` written to `path` with every cell of `columns` empty."""
    lines = trace.read_text().splitlines()
    header = lines[0].split(",")
    drop = [header.index(name) for name in columns]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        for j in drop:
            cells[j] = ""
        rows.append(",".join(cells))
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


class TestMissingSensor:
    """A ride without a gyro or without GPS: maneuvers are skipped and noted
    in the manifest; roughness and track geometry fail the run (exit 4)."""

    @pytest.fixture(scope="class")
    def rail_trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rail")
        spec = write_spec(tmp / "spec.json", potholes=[], duration=20.0, speed=30.0,
                          noise_sigma=0.01)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp / "rail.csv")]) == EXIT_OK
        return tmp / "rail.csv"

    @pytest.mark.parametrize("context, columns, error", [
        ("road", GEO, "roughness needs GPS speed"),
        ("rail", GYRO, "track geometry needs a gyroscope"),
        ("rail", GEO, "track geometry needs GPS speed"),
    ])
    def test_run_fails(self, pothole_trace, rail_trace, tmp_path, capsys, context, columns,
                       error):
        ride = pothole_trace if context == "road" else rail_trace
        trace = blanked(ride, tmp_path / "ride.csv", columns)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"context = {context}\n")
        out = tmp_path / "o"
        code = main(["analyze", str(trace), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.splitlines() == [
            json.dumps({"error": f"analysis: {error}", "exit": EXIT_NUMERIC})]
        assert list(out.iterdir()) == []

    def test_road_without_gyro_skips_maneuvers(self, pothole_trace, tmp_path, capsys):
        trace = blanked(pothole_trace, tmp_path / "ride.csv", GYRO)
        out = tmp_path / "o"
        assert main(["analyze", str(trace), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        counts = json.loads((out / "manifest.json").read_text())["counts"]
        assert counts["anomalies"] == counts["indicators"] == 3
        assert counts["maneuvers_skipped"] == "maneuver classification needs a gyroscope"


class TestAggregateCommand:
    def indicators_file(self, pothole_trace, tmp_path):
        out = tmp_path / "report"
        main(["analyze", str(pothole_trace), "--out", str(out)])
        return out / "indicators.geojson"

    def test_aggregate_and_snapshot(self, pothole_trace, tmp_path):
        geo = self.indicators_file(pothole_trace, tmp_path)
        store = tmp_path / "store.jsonl"
        snap = tmp_path / "snap.geojson"
        assert main(["aggregate", str(geo), "--store", str(store),
                     "--out", str(snap)]) == EXIT_OK
        col = json.loads(snap.read_text())
        assert len(col["features"]) == 3

    def test_second_pass_reuses_anchors(self, pothole_trace, tmp_path):
        geo = self.indicators_file(pothole_trace, tmp_path)
        store = tmp_path / "store.jsonl"
        snap = tmp_path / "snap.geojson"
        main(["aggregate", str(geo), "--store", str(store), "--out", str(snap)])
        main(["aggregate", str(geo), "--store", str(store), "--out", str(snap)])
        col = json.loads(snap.read_text())
        assert len(col["features"]) == 3  # same places, no new anchors
        assert all(f["properties"]["weight_sum"] > 1.0 for f in col["features"])

    def test_corrupt_store_rejected(self, pothole_trace, tmp_path, capsys):
        geo = self.indicators_file(pothole_trace, tmp_path)
        store = tmp_path / "store.jsonl"
        store.write_text("{broken\n")
        assert main(["aggregate", str(geo), "--store", str(store)]) == EXIT_INPUT
        capsys.readouterr()

    def test_crowd_batch_files_are_json_encodings(self, tmp_path, monkeypatch):
        """The benchmark's crowd batch (seed 1) fused into an empty store, then
        reopened with one more file: the store and both snapshots hold the
        bytes json itself gives for what they hold, each snapshot that of
        its store's collection."""
        inputs = perfbench_module("inputs", monkeypatch)
        batch = inputs.crowd_batch(1, 30, 100, 450)
        files = []
        for i, contributions in enumerate(batch.files):
            files.append(tmp_path / f"ride{i:03d}.geojson")
            inputs.write_geojson(contributions, files[-1])
        inputs.write_geojson(batch.replay_file, tmp_path / "replay.geojson")
        store, snap1, snap2 = (tmp_path / n for n in ("store.jsonl", "s1.geojson", "s2.geojson"))
        assert main(["aggregate", *map(str, files), "--store", str(store),
                     "--out", str(snap1)]) == EXIT_OK
        written = store.read_text()
        first = tmp_path / "first.jsonl"
        first.write_text(written)
        assert main(["aggregate", str(tmp_path / "replay.geojson"), "--store", str(store),
                     "--out", str(snap2)]) == EXIT_OK
        lines = store.read_text().splitlines(keepends=True)
        assert len(lines) == sum(map(len, batch.files)) + len(batch.replay_file)
        assert "".join(lines).startswith(written)
        assert lines == [json.dumps(json.loads(line)) + "\n" for line in lines]
        for snap, log in ((snap1, first), (snap2, store)):
            collection = aggregation.SegmentStore.load(
                log, aggregation.MatchPolicy()).snapshot_geojson()
            text = snap.read_text()
            assert text == json.dumps(collection)
            assert repr(json.loads(text)) == repr(collection)
        assert len(json.loads(snap2.read_text())["features"]) > 400

    def test_reopen_keeps_the_store_bytes_and_adds_the_new_lines(self, tmp_path):
        first = points_file(tmp_path / "first.geojson", [(51.0, 7.0, 1.0), (51.001, 7.0, 2.0)])
        second = points_file(tmp_path / "second.geojson",
                             [(51.00001, 7.0, 3.0), (52.0, 8.0, 4.0)])
        third = points_file(tmp_path / "third.geojson",
                            [(52.00001, 8.0, 5.0), (53.0, 9.0, 6.0), (51.0, 7.0, 7.0)])
        store = tmp_path / "store.jsonl"
        assert main(["aggregate", str(first), str(second), "--store", str(store)]) == EXIT_OK
        written = store.read_bytes()
        assert main(["aggregate", str(third), "--store", str(store)]) == EXIT_OK
        reopened = store.read_bytes()
        assert reopened.startswith(written)
        new = reopened[len(written):].decode().splitlines(keepends=True)
        assert new == [json.dumps(json.loads(line)) + "\n" for line in new]
        assert [(r["anchor_id"], r["lat"], r["lon"], r["value"])
                for r in map(json.loads, new)] == [
            (2, 52.00001, 8.0, 5.0), (3, 53.0, 9.0, 6.0), (0, 51.0, 7.0, 7.0)]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "first.geojson", "second.geojson", "store.jsonl", "store.jsonl.state",
            "third.geojson"]

    def test_summary_line(self, tmp_path, capsys):
        geo = points_file(tmp_path / "in.geojson",
                          [(51.0, 7.0, 1.0), (51.00001, 7.0, 2.0), (95.0, 7.0, 3.0),
                           (52.0, 8.0, 4.0)])
        store = tmp_path / "store.jsonl"
        for replayed, from_checkpoint in ((0, False), (3, True)):
            assert main(["aggregate", str(geo), "--store", str(store)]) == EXIT_OK
            out, err = capsys.readouterr()
            assert err == ""
            assert [json.loads(line) for line in out.splitlines()] == [
                {"replayed": replayed, "contributed": 3, "rejected": 1, "anchors": 2,
                 "from_checkpoint": from_checkpoint}]
        store.write_text("{broken\n")
        assert main(["aggregate", str(geo), "--store", str(store)]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_failed_checkpoint_write_keeps_the_old_log(self, tmp_path, capsys, monkeypatch):
        """`aggregate` writes the snapshot, then the checkpoint, then the log:
        a checkpoint that cannot be written exits 3 with the old log and the
        old checkpoint, and the same call again ends in the store that one
        clean call gives."""
        first = points_file(tmp_path / "first.geojson", [(51.0, 7.0, 1.0), (52.0, 8.0, 2.0)])
        second = points_file(tmp_path / "second.geojson",
                             [(51.00001, 7.0, 3.0), (53.0, 9.0, 4.0)])
        real_new_file = aggregation.new_file

        def new_file(path, *args, **kwargs):
            if str(path).endswith(".state"):
                no_space()
            return real_new_file(path, *args, **kwargs)

        ends = {}
        for name in ("clean", "retried"):
            work = tmp_path / name
            work.mkdir()
            args = ["--store", str(work / "store.jsonl"), "--out", str(work / "snap.geojson")]
            assert main(["aggregate", str(first), *args]) == EXIT_OK
            capsys.readouterr()
            if name == "retried":
                before = {p.name: p.read_bytes() for p in work.iterdir()}
                with monkeypatch.context() as m:
                    m.setattr(aggregation, "new_file", new_file)
                    assert main(["aggregate", str(second), *args]) == EXIT_INPUT
                one_json_error(capsys, EXIT_INPUT)
                after = {p.name: p.read_bytes() for p in work.iterdir()}
                assert sorted(after) == ["snap.geojson", "store.jsonl", "store.jsonl.state"]
                assert {k: after[k] for k in ("store.jsonl", "store.jsonl.state")} == {
                    k: before[k] for k in ("store.jsonl", "store.jsonl.state")}
            assert main(["aggregate", str(second), *args]) == EXIT_OK
            ends[name] = capsys.readouterr().out, {p.name: p.read_bytes() for p in work.iterdir()}
        assert ends["retried"] == ends["clean"]
        assert json.loads(ends["clean"][0]) == {"replayed": 2, "contributed": 2, "rejected": 0,
                                                "anchors": 3, "from_checkpoint": True}

    @pytest.mark.parametrize("line", [
        '{"op": "fuse", "anchor_id": 0, "t": 0.0, "value": 1%s, "lat": 51.0, "lon": 7.0, '
        '"kind": "anomaly"}' % ("0" * 400),
        '{"op": "fuse", "anchor_id": 0, "t": 1%s, "value": 2.0, "lat": 51.0, "lon": 7.0, '
        '"kind": "anomaly"}' % ("0" * 400)], ids=["value", "t"])
    def test_int_beyond_float_range_is_input_error(self, tmp_path, capsys, line):
        first = ('{"op": "fuse", "anchor_id": 0, "t": 0.0, "value": 2.0, "lat": 51.0, '
                 '"lon": 7.0, "kind": "anomaly"}')
        store = tmp_path / "store.jsonl"
        store.write_text(f"{first}\n{line}\n")
        before = store.read_bytes()
        assert main(["aggregate", str(one_indicator(tmp_path)), "--store", str(store),
                     "--out", str(tmp_path / "snap.geojson")]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_INPUT
        assert "store: line 2: int too large to convert to float" in err[0]
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.geojson", "store.jsonl"]

    def test_int_t_difference_beyond_float_range_is_input_error(self, tmp_path, capsys):
        # each t is within float range, the difference that `fuse` decays by is not
        lines = ['{"op": "fuse", "anchor_id": 0, "t": %s1%s, "value": 2.0, "lat": 51.0, '
                 '"lon": 7.0, "kind": "anomaly"}' % (sign, "0" * 308) for sign in ("", "-")]
        store = tmp_path / "store.jsonl"
        store.write_text("\n".join(lines) + "\n")
        before = store.read_bytes()
        assert main(["aggregate", str(one_indicator(tmp_path)), "--store", str(store),
                     "--out", str(tmp_path / "snap.geojson")]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_INPUT
        assert json.loads(err[0])["error"].startswith("store: line 2: ")
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.geojson", "store.jsonl"]

    def test_store_not_utf8_is_input_error(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        store.write_bytes(b'{"op": "fu\xffse", "anchor_id": 0, "t": 0.0, "value": 2.0, '
                          b'"lat": 51.0, "lon": 7.0, "kind": "anomaly"}\n')
        before = store.read_bytes()
        assert main(["aggregate", str(one_indicator(tmp_path)), "--store", str(store),
                     "--out", str(tmp_path / "snap.geojson")]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_INPUT
        assert "can't decode byte 0xff in position 10" in json.loads(err[0])["error"]
        assert store.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.geojson", "store.jsonl"]

    @pytest.mark.parametrize("flag", [["--radius", "0"], ["--radius", "-5"],
                                      ["--radius", "nan"], ["--half-life", "-1"],
                                      ["--half-life", "0"]])
    def test_non_positive_policy_is_usage_error(self, tmp_path, capsys, flag):
        geo = tmp_path / "empty.geojson"
        geo.write_text('{"type": "FeatureCollection", "features": []}')
        store, snap = tmp_path / "store.jsonl", tmp_path / "snap.geojson"
        assert main(["aggregate", str(geo), "--store", str(store),
                     "--out", str(snap), *flag]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_USAGE
        assert not store.exists() and not snap.exists()


def one_json_error(capsys, code):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["exit"] == code, err


def points_file(path, points):
    """An indicator GeoJSON file of anomalies at (lat, lon, value)."""
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
        "properties": {"kind": "anomaly", "sub_kind": "", "t": 0.0, "severity": 9,
                       "confidence": 0.5, "value": value}} for lat, lon, value in points]}))
    return path


def one_indicator(tmp_path):
    geo = tmp_path / "in.geojson"
    geo.write_text(json.dumps({"type": "FeatureCollection", "features": [{
        "type": "Feature", "geometry": {"type": "Point", "coordinates": [7.0, 51.0]},
        "properties": {"kind": "anomaly", "sub_kind": "", "t": 0.0, "severity": 9,
                       "confidence": 0.5, "value": 2.0}}]}))
    return geo


class TestOutputPathErrors:
    """An output path that cannot be written is an input error: exit 3 with
    one JSON line, and no other output is left behind."""

    def test_aggregate_store_in_missing_directory(self, tmp_path, capsys):
        store = tmp_path / "missing" / "s.jsonl"
        assert main(["aggregate", str(one_indicator(tmp_path)),
                     "--store", str(store)]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)

    def test_aggregate_out_in_missing_directory(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(["aggregate", str(one_indicator(tmp_path)), "--store", str(store),
                     "--out", str(tmp_path / "missing" / "x.geojson")]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert not store.exists()

    def test_simulate_out_in_missing_directory(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0) + "\n")
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "missing" / "d.csv")]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)

    def test_analyze_out_is_a_file(self, pothole_trace, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("keep")
        assert main(["analyze", str(pothole_trace), "--out", str(out)]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert out.read_text() == "keep"

    def test_synth_out_in_missing_directory(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", duration=5.0, potholes=[])
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "missing" / "t.csv")]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)

    def test_analyze_output_name_is_a_directory(self, pothole_trace, tmp_path, capsys):
        out = tmp_path / "report"
        (out / "features.csv" / "kept").mkdir(parents=True)
        (out / "indicators.geojson").write_text("old")
        assert main(["analyze", str(pothole_trace), "--out", str(out)]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        # no output moved and no temporary directory left
        assert sorted(p.name for p in out.iterdir()) == ["features.csv", "indicators.geojson"]
        assert (out / "indicators.geojson").read_text() == "old"


def no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedWriteKeepsOldFile:
    """A write that fails part-way (here: the disk fills after the first
    bytes) is an input error that leaves the previous output's bytes and no
    temporary file."""

    def test_simulate(self, tmp_path, capsys, monkeypatch):
        ssid = SsidPacket(1, 0, 51_000_000, 7_000_000,
                          (PacketEntry(0, 0, 1, 9, 200),)).to_ssid()
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0, packets=[ssid]) + "\n"
                            + scenario_line("b", 51.0002, 7.0, phase=5.0) + "\n")
        out = tmp_path / "log.csv"
        out.write_text("old log\n")

        class FullDiskWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write(",".join(map(str, row)) + "\r\n")
                self.writerow = no_space
        monkeypatch.setattr("csv.writer", FullDiskWriter)
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert out.read_text() == "old log\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "scenario.jsonl"]

    def test_aggregate_out(self, tmp_path, capsys, monkeypatch):
        geo = one_indicator(tmp_path)
        store, snap = tmp_path / "store.jsonl", tmp_path / "snap.geojson"
        args = ["aggregate", str(geo), "--store", str(store), "--out", str(snap)]
        assert main(args) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_new_file = reports.new_file

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:9])
                no_space()

        @contextlib.contextmanager
        def new_file(path, *args, **kwargs):
            with real_new_file(path, *args, **kwargs) as fh:
                yield FullDisk(fh)
        monkeypatch.setattr(reports, "new_file", new_file)
        assert main(args) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_synth_out(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path / "spec.json", duration=5.0, potholes=[])
        out = tmp_path / "t.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        old = out.read_bytes()

        def write_rows(fh, n, block_columns):
            fh.write("0.0,")
            no_space()
        monkeypatch.setattr(trace_model, "write_rows", write_rows)
        assert main(["synth", "--spec", str(spec), "--out", str(out),
                     "--seed", "2"]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json", "t.csv"]

    def test_analyze(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path / "spec.json", potholes=[], duration=20.0, speed=30.0,
                          noise_sigma=0.01)
        trace, cfg, out = tmp_path / "rail.csv", tmp_path / "rail.cfg", tmp_path / "report"
        assert main(["synth", "--spec", str(spec), "--out", str(trace)]) == EXIT_OK
        cfg.write_text("context = rail\n")
        args = ["analyze", str(trace), "--config", str(cfg), "--out", str(out)]
        assert main(args) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "geometry.csv" in before

        def write_rows(fh, n, block_rows):
            fh.write("0.0,")
            no_space()
        monkeypatch.setattr(rail_analysis, "write_rows", write_rows)
        assert main(args) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no .infrasense-*
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_symlink_out_becomes_a_file(self, tmp_path):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0) + "\n")
        target, out = tmp_path / "target.csv", tmp_path / "log.csv"
        target.write_text("untouched")
        out.symlink_to(target)
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert not out.is_symlink() and out.read_text().startswith("t,src,dst")
        assert target.read_text() == "untouched"


class TestRepeatedRunsWriteNewFiles:
    """Running every command again into the same paths puts each output in
    place as a new file: nothing but the store is renamed over an existing
    file or truncated, since on ext4 both wait for the new data to reach the
    disk. The outputs are the same bytes, and no temporary file is left."""

    def run_all(self, pothole_trace, rail_trace, work):
        cfg = work / "rail.cfg"
        cfg.write_text("context = rail\n")
        scenario = work / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0, packets=[SsidPacket(
            1, 0, 51_000_000, 7_000_000, (PacketEntry(0, 0, 1, 9, 200),)).to_ssid()])
            + "\n" + scenario_line("b", 51.0002, 7.0, phase=5.0) + "\n")
        spec = write_spec(work / "spec.json", duration=5.0, potholes=[])
        store, geo = work / "store.jsonl", work / "road" / "indicators.geojson"
        store.unlink(missing_ok=True)
        for args in (
                ["analyze", str(pothole_trace), "--out", str(work / "road")],
                ["analyze", str(rail_trace), "--config", str(cfg), "--out", str(work / "rail")],
                ["synth", "--spec", str(spec), "--out", str(work / "synth.csv")],
                ["aggregate", str(geo), "--store", str(store), "--out", str(work / "s1.geojson")],
                ["aggregate", str(geo), "--store", str(store), "--out", str(work / "s2.geojson")],
                ["simulate", "--scenario", str(scenario), "--out", str(work / "log.csv")]):
            assert main(args) == EXIT_OK, args
        return {str(p.relative_to(work)): p.read_bytes()
                for p in sorted(work.rglob("*")) if p.is_file()}

    def test_second_run(self, pothole_trace, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "rail-spec.json", potholes=[], duration=60.0,
                          speed=30.0, noise_sigma=0.01)
        rail_trace = tmp_path / "rail.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(rail_trace)]) == EXIT_OK
        work = tmp_path / "work"
        work.mkdir()
        first = self.run_all(pothole_trace, rail_trace, work)

        renamed_over, truncated = [], []
        real_replace, real_open = os.replace, builtins.open

        def replace(src, dst, *args, **kwargs):
            if os.path.lexists(dst):
                renamed_over.append(os.path.basename(dst))
            return real_replace(src, dst, *args, **kwargs)

        def open_(file, mode="r", *args, **kwargs):
            if "w" in mode and os.path.lexists(file):
                truncated.append(os.path.basename(file))
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(builtins, "open", open_)
        second = self.run_all(pothole_trace, rail_trace, work)
        monkeypatch.undo()

        assert renamed_over == ["store.jsonl"]  # the second aggregate reopens it
        assert truncated == []
        assert second == first
        assert not [name for name in first if ".tmp" in name or ".infrasense-" in name]
        assert {"road/features.csv", "rail/geometry.csv", "synth.csv", "s2.geojson",
                "log.csv"} <= set(first)


def scenario_line(node_id, lat, lon, phase=0.0, packets=()):
    return json.dumps({"id": node_id, "waypoints": [[0.0, lat, lon]],
                       "phase": phase, "packets": list(packets)})


class TestSimulateCommand:
    def test_two_node_delivery_and_determinism(self, tmp_path):
        ssid = SsidPacket(1, 0, 51_000_000, 7_000_000,
                          (PacketEntry(0, 0, 1, 9, 200),)).to_ssid()
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(
            scenario_line("a", 51.0, 7.0, packets=[ssid]) + "\n"
            + scenario_line("b", 51.0002, 7.0, phase=5.0) + "\n")
        out1, out2 = tmp_path / "log1.csv", tmp_path / "log2.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out1)]) == EXIT_OK
        main(["simulate", "--scenario", str(scenario), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().splitlines()
        assert rows[0] == "t,src,dst,checksum"
        assert len(rows) == 2 and ",a,b," in rows[1]

    def test_summary_line(self, tmp_path, capsys):
        ssid = SsidPacket(1, 0, 51_000_000, 7_000_000,
                          (PacketEntry(0, 0, 1, 9, 200),)).to_ssid()
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(
            scenario_line("a", 51.0, 7.0, packets=[ssid]) + "\n"
            + scenario_line("b", 51.0002, 7.0, phase=5.0) + "\n")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out),
                     "--duration", "30", "--dt", "0.5"]) == EXIT_OK
        stdout, err = capsys.readouterr()
        assert err == ""
        assert [json.loads(line) for line in stdout.splitlines()] == [
            {"nodes": 2, "steps": 60, "deliveries": 1}]
        assert len(out.read_text().splitlines()) == 2
        scenario.write_text("[1]\n")
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_empty_scenario(self, tmp_path):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text("")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines() == ["t,src,dst,checksum"]

    @pytest.mark.parametrize("flag", [["--dt", "0"], ["--dt", "-1"], ["--range", "0"],
                                      ["--range", "-3"], ["--duration", "-1"],
                                      ["--duration", "inf"]])
    def test_bad_step_range_or_duration_is_usage_error(self, tmp_path, capsys, flag):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0) + "\n"
                            + scenario_line("b", 51.0002, 7.0) + "\n")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out), *flag]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        [scenario_line("a", 51.0, 7.0), scenario_line("a", 51.0002, 7.0, phase=5.0)],
        [scenario_line("a", 51.0, 7.0), scenario_line("b", math.nan, 7.0)],
        [json.dumps({"id": "a", "waypoints": [[10.0, 51.0, 7.0], [0.0, 51.001, 7.0]]})],
        [json.dumps({"id": "a", "waypoints": [[0.0, "51", 7.0]]})],
    ], ids=["repeated-id", "nan-latitude", "decreasing-times", "text-latitude"])
    def test_invalid_scenario_is_input_error(self, tmp_path, capsys, lines):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text("\n".join(lines) + "\n")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"waypoints": [[0.0, 51.0, 7.0]]}', "line 2: missing key 'id'"),
        ('[1, 2]', "line 2: not a JSON object"),
        ('{"id": "b", "waypoints": [[0.0, 51.0', "line 2: invalid JSON (Expecting "),
        ('{"id": "b", "waypoints": [[0.0, 51.0]]}', "line 2: waypoints must be finite"),
        ('{"id": "b", "waypoints": [[0.0, 1.0, -424063994666.381]]}',
         "line 2: waypoint positions must lie within 90 and 180 degrees"),
    ], ids=["missing-key", "not-an-object", "invalid-json", "bad-waypoint", "off-wgs84"])
    def test_scenario_error_names_its_line(self, tmp_path, capsys, text, message):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(scenario_line("a", 51.0, 7.0) + "\n" + text + "\n")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["exit"] == EXIT_INPUT
        assert json.loads(err[0])["error"].startswith("scenario: " + message)
        assert not out.exists()

    def test_bad_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text('{"id": "a"}\n')  # no waypoints
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "log.csv")]) == EXIT_INPUT
        capsys.readouterr()


class TestEncodeDecodeCommands:
    def test_roundtrip(self, pothole_trace, tmp_path, capsys):
        report = tmp_path / "report"
        main(["analyze", str(pothole_trace), "--out", str(report)])
        capsys.readouterr()
        assert main(["encode", str(report / "indicators.geojson"),
                     "--lat", "51.0", "--lon", "7.0"]) == EXIT_OK
        ssid = capsys.readouterr().out.strip().splitlines()[0]
        assert len(ssid) == 32
        assert main(["decode", ssid]) == EXIT_OK
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["origin"]["lat"] == pytest.approx(51.0)
        assert 1 <= len(decoded["entries"]) <= 3

    def test_decode_rejects_garbage(self, capsys):
        assert main(["decode", "A" * 32]) == EXIT_INPUT
        assert main(["decode", "tooshort"]) == EXIT_INPUT
        capsys.readouterr()


POINT = {"type": "Feature", "geometry": {"type": "Point", "coordinates": [7.0, 51.0]},
         "properties": {"kind": "anomaly", "t": 0.0, "severity": 9, "value": 2.0}}


def malformed(case: str):
    """A GeoJSON document that `indicators_from_geojson` must refuse."""
    if case == "top-level-list":
        return [1, 2]
    feat = json.loads(json.dumps(POINT))
    if case == "scalar-coordinates":
        feat["geometry"]["coordinates"] = 7.0
    elif case == "text-coordinates":
        feat["geometry"]["coordinates"] = ["7.0", "51.0"]
    elif case == "null-properties":
        feat["properties"] = None
    return {"type": "FeatureCollection", "features": [feat]}


MALFORMED = ["top-level-list", "scalar-coordinates", "text-coordinates", "null-properties"]


class TestMalformedCrowdInput:
    """Malformed indicators or store lines are an input error: exit 3 with
    one JSON line, and no output."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_aggregate_indicators(self, tmp_path, capsys, case):
        geo = tmp_path / "in.geojson"
        geo.write_text(json.dumps(malformed(case)))
        store, snap = tmp_path / "store.jsonl", tmp_path / "snap.geojson"
        assert main(["aggregate", str(geo), "--store", str(store),
                     "--out", str(snap)]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)
        assert not store.exists() and not snap.exists()

    @pytest.mark.parametrize("case", MALFORMED)
    def test_encode_indicators(self, tmp_path, capsys, case):
        geo = tmp_path / "in.geojson"
        geo.write_text(json.dumps(malformed(case)))
        assert main(["encode", str(geo), "--lat", "51.0", "--lon", "7.0"]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)

    @pytest.mark.parametrize("line, error", [
        ("[1, 2]", "line 1: not a JSON object"),
        ('"fuse"', "line 1: not a JSON object"),
        (json.dumps({"op": "fuse", "anchor_id": 0, "t": 0.0, "value": 2.0, "lat": "51.0",
                     "lon": 7.0, "kind": "anomaly"}),
         "line 1: lat, lon, t and value must be JSON numbers"),
        # the fold rejects it, as it would the indicator, and returns the -1 it logs
        (json.dumps({"op": "fuse", "anchor_id": -1, "t": 1.0, "value": 2.0, "lat": 95.0,
                     "lon": 7.0, "kind": "anomaly"}),
         "line 1: the replay rejects the record (a non-finite value, a position off WGS84 "
         "or an int t too far from its anchor's)"),
    ], ids=["list", "string", "text-latitude", "rejected-by-the-replay"])
    def test_aggregate_store_line(self, tmp_path, capsys, line, error):
        store = tmp_path / "store.jsonl"
        store.write_text(line + "\n")
        geo = one_indicator(tmp_path)
        assert main(["aggregate", str(geo), "--store", str(store)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0]) == {"error": f"store: {error}",
                                                         "exit": EXIT_INPUT}
        assert store.read_text() == line + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.geojson", "store.jsonl"]


class TestEncodePositions:
    """An origin off WGS84 is a usage error, an indicator off it an input error."""

    @pytest.mark.parametrize("flag", [["--lat", "1000"], ["--lat", "nan"], ["--lon", "inf"],
                                      ["--lat", "-90.5"], ["--lon", "-180.1"]],
                             ids=["lat-1000", "lat-nan", "lon-inf", "lat-past-90", "lon-past-180"])
    def test_bad_origin_is_usage_error(self, tmp_path, capsys, flag):
        argv = {"--lat": "51.0", "--lon": "7.0"}
        argv[flag[0]] = flag[1]
        assert main(["encode", str(one_indicator(tmp_path)),
                     *(x for kv in argv.items() for x in kv)]) == EXIT_USAGE
        one_json_error(capsys, EXIT_USAGE)

    @pytest.mark.parametrize("lon", [math.nan, math.inf, 1e300, 180.5])
    def test_indicator_off_wgs84_is_input_error(self, tmp_path, capsys, lon):
        geo = tmp_path / "in.geojson"
        geo.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {**POINT, "geometry": {"type": "Point", "coordinates": [lon, 51.0]}}]}))
        assert main(["encode", str(geo), "--lat", "51.0", "--lon", "7.0"]) == EXIT_INPUT
        one_json_error(capsys, EXIT_INPUT)

    @pytest.mark.parametrize("lat, lon", [("90", "180"), ("-90", "-180")])
    def test_origin_on_the_bounds(self, tmp_path, capsys, lat, lon):
        assert main(["encode", str(one_indicator(tmp_path)),
                     "--lat", lat, "--lon", lon]) == EXIT_OK
        assert len(capsys.readouterr().out.split()[0]) == 32


def test_in_process_main_leaves_the_heap_unfrozen(pothole_trace, tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["analyze", str(pothole_trace), "--out", str(tmp_path / "report")]) == EXIT_OK
    assert main(["encode", str(one_indicator(tmp_path)), "--lat", "51.0",
                 "--lon", "7.0"]) == EXIT_OK
    assert gc.get_freeze_count() == before
    capsys.readouterr()


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
