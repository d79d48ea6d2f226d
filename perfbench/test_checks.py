"""Each output check accepts a correct output and rejects a perturbed copy.

    python3 -m pytest perfbench
"""

import base64
import binascii
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SPEED = 10.0


def north_of(t, lat0=51.0, lon0=7.0):
    """(lat, lon) of a point SPEED * t metres north of the origin."""
    return lat0 + SPEED * t / inputs.M_PER_DEG, lon0


def point(lat, lon, **props):
    return {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
            "properties": props}


# ---------------------------------------------------------------- road

@pytest.fixture
def road_truth():
    potholes = [{"t": t, "lat": north_of(t)[0], "lon": north_of(t)[1]} for t in (20.0, 80.0)]
    turns = [{"t": 130.0, "sign": 1.0}]
    return {"potholes": potholes, "turns": turns}


def road_output(pothole_times, turn_times):
    feats = [point(*north_of(t), kind="anomaly", sub_kind="point", t=t) for t in pothole_times]
    feats += [point(*north_of(t), kind="maneuver", sub_kind="turn", t=t) for t in turn_times]
    return {"type": "FeatureCollection", "features": feats}


def test_pothole_tolerance_from_frame_plan():
    manifest = {"config": {"frame_window_len": 3.0, "frame_overlap": 1.0 / 3.0}}
    assert checks.pothole_tolerance(manifest, SPEED) == pytest.approx(25.0)


def test_potholes_accepts_placement_within_half_a_window(road_truth):
    out = road_output([21.4, 78.6], [])
    assert checks.check_potholes(out, road_truth, 25.0) == []


def test_potholes_rejects_a_pothole_shifted_by_5_s(road_truth):
    out = road_output([20.0, 85.0], [])
    assert len(checks.check_potholes(out, road_truth, 25.0)) == 1


def test_potholes_rejects_a_missing_or_doubled_report(road_truth):
    assert checks.check_potholes(road_output([20.0], []), road_truth, 25.0)
    assert checks.check_potholes(road_output([20.0, 20.5, 80.0], []), road_truth, 25.0)


def test_turns(road_truth):
    assert checks.check_turns(road_output([], [131.0]), road_truth, 3.0) == []
    assert checks.check_turns(road_output([], [135.0]), road_truth, 3.0)
    other = road_output([], [])
    other["features"].append(point(51.0, 7.0, kind="maneuver", sub_kind="u_turn", t=130.0))
    assert checks.check_turns(other, road_truth, 3.0)


def test_roughness_doubling(road_truth):
    base = {100.0 * k: 2.0 + 0.1 * k for k in range(20)}
    doubled = {s: 2.0 * v for s, v in base.items()}
    assert checks.check_roughness_doubling(base, doubled, road_truth, SPEED, 100.0) == []
    # a pothole segment may break the ratio; it is not checked
    doubled[200.0] *= 0.7
    assert checks.check_roughness_doubling(base, doubled, road_truth, SPEED, 100.0) == []
    doubled[500.0] *= 1.2
    assert checks.check_roughness_doubling(base, doubled, road_truth, SPEED, 100.0)
    assert checks.check_roughness_doubling(base, dict(list(doubled.items())[:-1]),
                                           road_truth, SPEED, 100.0)


# ---------------------------------------------------------------- rail

@pytest.fixture
def rail_profile():
    rng = np.random.default_rng(0)
    s = np.cumsum(rng.uniform(0.18, 0.22, 20000))
    cant = 5.0 * np.sin(2 * math.pi * s / 40.0 + 0.3) + 30.0 * np.exp(-((s - 2000) / 300) ** 2)
    cant += rng.normal(0.0, 1.0, len(s))
    header = ["s", "cant_mm", "twist3", "twist5", "curvature"]
    cols = [s, cant]
    for base in (3.0, 5.0):
        tw = (np.interp(s + base, s, cant) - cant) / base
        tw[s + base > s[-1]] = np.nan
        cols.append(tw)
    cols.append(np.zeros_like(s))
    return header, np.column_stack(cols)


def test_cant_irregularity(rail_profile):
    header, values = rail_profile
    truth = {"irregularity": {"amplitude_mm": 5.0, "wavelength_m": 40.0}}
    assert checks.check_cant_irregularity(header, values, truth) == []
    wrong = copy.deepcopy(truth)
    wrong["irregularity"]["amplitude_mm"] = 6.0
    assert checks.check_cant_irregularity(header, values, wrong)


def test_twist_accepts_the_recomputed_columns(rail_profile):
    assert checks.check_twist(*rail_profile) == []


def test_twist_rejects_a_value_off_by_1_mm_per_m(rail_profile):
    header, values = rail_profile
    values = values.copy()
    values[1000, header.index("twist5")] += 1.0
    assert checks.check_twist(header, values)


def test_twist_rejects_a_misplaced_blank(rail_profile):
    header, values = rail_profile
    values = values.copy()
    values[-1, header.index("twist3")] = 0.0
    assert checks.check_twist(header, values)


def test_curves():
    truth = {"curves": [{"lat": 51.0, "lon": 7.0, "radius_m": 1000.0},
                        {"lat": 51.05, "lon": 7.0, "radius_m": 1200.0}]}

    def report(*radii_and_places):
        return {"features": [point(lat, 7.0, kind="curvature", sub_kind="long", value=r)
                             for lat, r in radii_and_places]}

    assert checks.check_curves(report((51.0, 1080.0), (51.05, 1150.0)), truth, 800.0) == []
    assert checks.check_curves(report((51.0, 1080.0)), truth, 800.0)
    assert checks.check_curves(report((51.0, 1080.0), (51.05, 1150.0), (51.02, 900.0)),
                               truth, 800.0)
    assert checks.check_curves(report((51.0, 1500.0), (51.05, 1150.0)), truth, 800.0)
    assert checks.check_curves(report((51.01, 1000.0), (51.05, 1200.0)), truth, 800.0)


# ---------------------------------------------------------------- crowd

def record(aid, t, value, north_m, kind="anomaly"):
    lat, lon = north_of(north_m / SPEED)
    return {"op": "fuse", "anchor_id": aid, "t": t, "value": value, "lat": lat,
            "lon": lon, "kind": kind}


@pytest.fixture
def log():
    # two sites 100 m apart; the third report is 8 m from the first site,
    # the fourth is a roughness report on top of the first site
    return [record(0, 0.0, 1.0, 0.0), record(1, 10.0, 4.0, 100.0),
            record(0, 86400.0, 3.0, 8.0), record(2, 20.0, 7.0, 0.0, "roughness")]


def test_matching_accepts_the_exhaustive_scan(log):
    assert checks.check_matching(log, 15.0) == []


def test_matching_rejects_a_wrong_anchor(log):
    bad = copy.deepcopy(log)
    bad[2]["anchor_id"] = 1
    assert checks.check_matching(bad, 15.0)
    bad = copy.deepcopy(log)
    bad[3]["anchor_id"] = 0  # kinds never mix
    assert checks.check_matching(bad, 15.0)


def test_matching_uses_the_moved_centroid():
    # the second report moves the centroid 7 m north, so a third report
    # 20 m north of the first lies 13 m from the anchor and joins it
    log = [record(0, 0.0, 1.0, 0.0), record(0, 1.0, 1.0, 14.0), record(0, 2.0, 1.0, 20.0)]
    assert checks.check_matching(log, 15.0) == []
    log[2]["anchor_id"] = 1
    assert checks.check_matching(log, 15.0)


def snapshot_of(log, values):
    _, anchors = checks.replay_anchors(log, 15.0)
    return {"features": [point(a["lat"], a["lon"], anchor_id=i, kind=a["kind"], value=values[i],
                               contribution_count=a["count"]) for i, a in enumerate(anchors)]}


def test_fusion_matches_the_half_life_mean(log):
    half_life = 86400.0
    # anchor 0: 1.0 at t=0 decays by one half-life, then 3.0 enters
    want = {0: (0.5 * 1.0 + 3.0) / 1.5, 1: 4.0, 2: 7.0}
    assert checks.check_fusion(log, snapshot_of(log, want), half_life, 15.0) == []


def test_fusion_rejects_a_value_off_by_1_percent(log):
    want = {0: 1.01 * (0.5 * 1.0 + 3.0) / 1.5, 1: 4.0, 2: 7.0}
    assert checks.check_fusion(log, snapshot_of(log, want), 86400.0, 15.0)


def test_fusion_handles_a_late_arrival_without_rewinding():
    log = [record(0, 100.0, 2.0, 0.0), record(0, 0.0, 4.0, 0.0), record(0, 100.0, 6.0, 0.0)]
    # the late report decays the held evidence by 2^(-100/100); the clock stays at 100
    w1, v1 = 0.5 + 1.0, (0.5 * 2.0 + 4.0) / 1.5
    v2 = (w1 * v1 + 6.0) / (w1 + 1.0)
    assert checks.check_fusion(log, snapshot_of(log, {0: v2}), 100.0, 15.0) == []


def test_replay(log):
    snap = snapshot_of(log, {0: 1.0, 1: 4.0, 2: 7.0})
    after = copy.deepcopy(snap)
    after["features"][0]["properties"]["value"] = 2.0
    assert checks.check_replay(snap, after, touched={0}) == []
    assert checks.check_replay(snap, after, touched={1})


@pytest.fixture
def nodes():
    lat, lon = north_of(0.0)
    near_lat, _ = north_of(3.0)  # 30 m
    far_lat, _ = north_of(30.0)  # 300 m
    packet = inputs.encode_beacon(lat, lon, [(1, 2, 1, 9, 200)])
    always = {"duty": 1.0, "period": 10.0, "phase": 0.0}
    never = {"duty": 0.0, "period": 10.0, "phase": 0.0}
    return [
        {"id": "a", "waypoints": [[0.0, lat, lon]], "packets": [packet], **always},
        {"id": "b", "waypoints": [[0.0, near_lat, lon]], "packets": [], **never},
        {"id": "c", "waypoints": [[0.0, far_lat, lon], [10.0, near_lat, lon]], "packets": [],
         **never},
    ]


def delivery(t, src, dst, nodes):
    return {"t": t, "src": src, "dst": dst,
            "checksum": inputs.beacon_checksum(nodes[0]["packets"][0])}


def test_deliveries_accepts_a_hotspot_to_a_client_in_range(nodes):
    log = [delivery(0.0, "a", "b", nodes), delivery(10.0, "a", "c", nodes)]
    assert checks.check_deliveries(log, nodes, 50.0, inputs.beacon_checksum) == []


def test_deliveries_rejects_out_of_range_wrong_mode_and_unheld(nodes):
    cs = inputs.beacon_checksum
    assert checks.check_deliveries([delivery(5.0, "a", "c", nodes)], nodes, 50.0, cs)
    assert checks.check_deliveries([delivery(0.0, "b", "a", nodes)], nodes, 50.0, cs)
    nodes[1]["duty"] = 1.0  # b is a hotspot in range of c at t=10, but never held the packet
    assert checks.check_deliveries([delivery(10.0, "b", "c", nodes)], nodes, 50.0, cs)
    assert checks.check_deliveries([], nodes, 50.0, cs)


def test_no_duplicates(nodes):
    cs = inputs.beacon_checksum
    once = [delivery(0.0, "a", "b", nodes)]
    assert checks.check_no_duplicates(once, nodes, cs) == []
    assert checks.check_no_duplicates(once * 2, nodes, cs)
    assert checks.check_no_duplicates([delivery(0.0, "b", "a", nodes)], nodes, cs)


# ---------------------------------------------------------------- inputs and tracing

def test_beacon_layout():
    ssid = inputs.encode_beacon(51.0, 7.0, [(1, -2, 1, 9, 200)])
    assert len(ssid) == 32
    # CRC-16/CCITT-FALSE check value of "123456789"
    assert binascii.crc_hqx(b"123456789", 0xFFFF) == 0x29B1
    raw = base64.urlsafe_b64decode(ssid)
    assert len(raw) == 24
    assert inputs.beacon_checksum(ssid) == binascii.crc_hqx(raw[:-2], 0xFFFF)


def test_doubled_ride_differs_only_in_roughness():
    a = inputs.road_ride(3, duration=120.0)
    b = inputs.road_ride(3, duration=120.0, roughness_scale=2.0)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.gyro, b.gyro)
    assert a.truth["potholes"] == b.truth["potholes"]
    assert [s["amplitude_m"] * 2 for s in a.truth["sinusoids"]] == \
        [s["amplitude_m"] for s in b.truth["sinusoids"]]
    assert not np.array_equal(a.accel, b.accel)


def test_gapped_ride_drops_three_seconds():
    a = inputs.road_ride(3, duration=300.0)
    b = inputs.road_ride(3, duration=300.0, gap=True)
    assert len(a.t) - len(b.t) == int(inputs.GAP_LENGTH * inputs.RATE)
    assert np.max(np.diff(b.t)) > inputs.GAP_LENGTH


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:       500 |        900 |   scipy.signal",
        "import time:        50 |       1300 | infrasense.transforms",
        "import time:        70 |         70 | numpy",
    ])
    got = tracing.parse_importtime(text)
    assert got["transforms"] == pytest.approx(1300e-6)
    assert got["scipy"] == pytest.approx(1200e-6)


def test_benchmark_json_names_the_reported_metrics():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {"import.transforms.s": "s", "import.scipy.s": "s", **tracing.metric_units()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_straight_rail_ride():
    ride = inputs.rail_ride(3, duration=60.0, curves=False)
    assert ride.truth["curves"] == []
    assert np.std(ride.gyro[:, 2]) < 1.2 * inputs.GYRO_NOISE  # yaw rate is noise only
