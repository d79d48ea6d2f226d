import json
import math

import numpy as np
import pytest

from infrasense.cli import EXIT_INPUT, EXIT_OK, main
from infrasense.config import (
    ConfigError,
    PipelineConfig,
    config_hash,
    parse_config_text,
)
from infrasense.dissemination import SsidPacket, PacketEntry
from infrasense.trace_model import parse_trace

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
            "features.set = mean, rms\n")
        assert cfg.detector_k == 2.5
        assert cfg.feature_set == ("mean", "rms")

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
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config_text("context = rail\ndetector.k = 3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("detector.k = many\n")

    def test_bad_context(self):
        with pytest.raises(ConfigError):
            parse_config_text("context = air\n")

    def test_missing_separator(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")

    def test_hash_tracks_text(self):
        a = parse_config_text("detector.k = 2\n")
        b = parse_config_text("detector.k = 2\n")
        c = parse_config_text("detector.k = 3\n")
        assert config_hash(a) == config_hash(b) != config_hash(c)


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

    def test_failed_run_leaves_no_partial_outputs(self, tmp_path, capsys):
        # too-short trace fails mid-pipeline; out dir must stay empty
        spec = write_spec(tmp_path / "spec.json", duration=2.0, potholes=[])
        trace = tmp_path / "short.csv"
        main(["synth", "--spec", str(spec), "--out", str(trace)])
        out = tmp_path / "report"
        code = main(["analyze", str(trace), "--out", str(out)])
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

    def test_empty_scenario(self, tmp_path):
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text("")
        out = tmp_path / "log.csv"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines() == ["t,src,dst,checksum"]

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


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
