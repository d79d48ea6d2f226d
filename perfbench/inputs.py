"""Seeded inputs for the benchmark, built without the program under test.

Every generator takes the run's seed and returns the input together with
its ground truth. Nothing here imports ``infrasense``, so a change to
``infrasense.synth`` or to its quarter-car model never changes what the
benchmark feeds the CLI.

Conventions match the trace format of the program: an aligned, stationary
device reads accel = (0, 0, -9.81); x forward, y left, z up; positive yaw
rate turns left.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

GRAVITY = 9.81
EARTH_RADIUS = 6371000.0
M_PER_DEG = math.pi / 180.0 * EARTH_RADIUS
LAT0, LON0 = 51.0, 7.0

RATE = 100.0  # Hz, every ride
JITTER = 0.001  # s, +- uniform timestamp jitter
ACCEL_NOISE = 0.05  # m/s^2 per axis
GYRO_NOISE = 0.005  # rad/s per axis
GPS_NOISE = 1.5  # m per horizontal axis
SPEED_NOISE = 0.1  # m/s
FIX_EVERY = 100  # samples between fixes (1 Hz)

# road rides
ROAD_SPEED = 10.0  # m/s
TURN_DURATION = 6.0  # s, 90 degrees as one half-sine lobe
POTHOLE_FREQ = 12.0  # Hz, ring-down of the wheel hop
POTHOLE_DECAY = 0.08  # s
GAP_START, GAP_LENGTH = 200.0, 3.0  # s, the gapped ride only

# rail rides
RAIL_SPEED = 20.0  # m/s
RAIL_HALF_WIDTH = 1500.0  # mm, 2*b0 of standard gauge
IRREGULARITY_WAVELENGTH = 40.0  # m
TRANSITION = 100.0  # m, clothoid on each side of a curve
ARC = 600.0  # m, constant-radius part of a curve


def to_latlon(north, east):
    lat = LAT0 + np.asarray(north) / M_PER_DEG
    lon = LON0 + np.asarray(east) / (M_PER_DEG * math.cos(math.radians(LAT0)))
    return lat, lon


def _rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    cr, sr, cp, sp, cy, sy = (math.cos(roll), math.sin(roll), math.cos(pitch),
                              math.sin(pitch), math.cos(yaw), math.sin(yaw))
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


@dataclass
class Ride:
    """One recording plus the ground truth the checks compare against."""

    kind: str  # "road" | "rail"
    t: np.ndarray  # (n,) jittered timestamps, as written
    accel: np.ndarray  # (n, 3) device frame
    gyro: np.ndarray  # (n, 3) device frame
    fix_rows: np.ndarray  # row indices that carry a GPS fix
    fix_lat: np.ndarray
    fix_lon: np.ndarray
    fix_speed: np.ndarray
    speed: float
    truth: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        fixes = {int(r): k for k, r in enumerate(self.fix_rows)}
        lines = ["t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc"]
        body = np.column_stack([self.accel, self.gyro])
        for i in range(len(self.t)):
            a = body[i]
            row = (f"{self.t[i]:.6f},{a[0]:.7g},{a[1]:.7g},{a[2]:.7g},"
                   f"{a[3]:.7g},{a[4]:.7g},{a[5]:.7g},")
            k = fixes.get(i)
            if k is None:
                row += ",,,"
            else:
                row += (f"{self.fix_lat[k]:.8f},{self.fix_lon[k]:.8f},"
                        f"{self.fix_speed[k]:.3f},5.0")
            lines.append(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _finish(kind, rng, t_true, accel_v, gyro_v, north, east, speed, rotation,
            keep, truth) -> Ride:
    """Add noise, rotate into the device frame, jitter, drop gap rows."""
    n = len(t_true)
    accel_v = accel_v + rng.normal(0.0, ACCEL_NOISE, (n, 3))
    gyro_v = gyro_v + rng.normal(0.0, GYRO_NOISE, (n, 3))
    # device = R^T vehicle: the phone is mounted at a fixed attitude R
    accel_d = accel_v @ rotation
    gyro_d = gyro_v @ rotation
    t = t_true + rng.uniform(-JITTER, JITTER, n)

    fix_rows = np.arange(0, n, FIX_EVERY)
    lat, lon = to_latlon(north[fix_rows] + rng.normal(0.0, GPS_NOISE, len(fix_rows)),
                         east[fix_rows] + rng.normal(0.0, GPS_NOISE, len(fix_rows)))
    fspeed = np.maximum(0.0, speed + rng.normal(0.0, SPEED_NOISE, len(fix_rows)))

    kept = np.flatnonzero(keep)
    fix_keep = keep[fix_rows]
    new_index = np.cumsum(keep) - 1
    return Ride(kind=kind, t=t[kept], accel=accel_d[kept], gyro=gyro_d[kept],
                fix_rows=new_index[fix_rows[fix_keep]], fix_lat=lat[fix_keep],
                fix_lon=lon[fix_keep], fix_speed=fspeed[fix_keep], speed=speed,
                truth=truth)


def _path(t_true, yaw_rate, speed):
    dt = t_true[1] - t_true[0]
    heading = np.concatenate([[0.0], np.cumsum(0.5 * (yaw_rate[1:] + yaw_rate[:-1]) * dt)])
    north = np.concatenate([[0.0], np.cumsum(speed * np.cos(heading[:-1]) * dt)])
    east = np.concatenate([[0.0], np.cumsum(speed * np.sin(heading[:-1]) * dt)])
    return north, east


def road_ride(seed: int, duration: float = 600.0, roughness_scale: float = 1.0,
              gap: bool = False) -> Ride:
    """A road ride at constant speed with potholes, 90-degree turns, two
    roughness sinusoids and a fixed device tilt.

    Events sit in 50 s slots: every third slot is a turn (alternating left
    and right), the others hold one pothole each. The layout and the noise
    come from two streams of ``seed``, so two rides with one seed differ
    only in what ``roughness_scale`` and ``gap`` change.
    """
    lay = np.random.default_rng([seed, 1])
    n = int(round(duration * RATE))
    t_true = np.arange(n) / RATE
    v = ROAD_SPEED

    slots = np.arange(25.0, duration - 10.0, 50.0)
    offsets = lay.uniform(-8.0, 8.0, len(slots))
    potholes, turns = [], []
    yaw_rate = np.zeros(n)
    vert = np.zeros(n)
    for k, slot in enumerate(slots):
        tc = float(slot + offsets[k])
        if k % 3 == 2:
            sign = 1.0 if len(turns) % 2 == 0 else -1.0
            t0 = tc - TURN_DURATION / 2
            inside = (t_true >= t0) & (t_true <= t0 + TURN_DURATION)
            amp = math.pi ** 2 / (4.0 * TURN_DURATION)
            yaw_rate[inside] = sign * amp * np.sin(math.pi * (t_true[inside] - t0) / TURN_DURATION)
            turns.append({"t": tc, "sign": sign})
        else:
            peak = float(lay.uniform(5.0, 8.0))
            after = t_true >= tc
            dt = t_true[after] - tc
            vert[after] += peak * np.exp(-dt / POTHOLE_DECAY) * np.sin(2 * math.pi * POTHOLE_FREQ * dt)
            potholes.append({"t": tc})

    sinusoids = []
    for lo_amp, hi_amp, lo_wl, hi_wl in ((0.003, 0.005, 5.0, 8.0), (0.006, 0.010, 12.0, 20.0)):
        amp = float(lay.uniform(lo_amp, hi_amp)) * roughness_scale
        wl = float(lay.uniform(lo_wl, hi_wl))
        phase = float(lay.uniform(0.0, 2 * math.pi))
        w = 2 * math.pi * v / wl
        vert += -amp * w * w * np.sin(w * t_true + phase)
        sinusoids.append({"amplitude_m": amp, "wavelength_m": wl})

    north, east = _path(t_true, yaw_rate, v)
    for event in potholes + turns:
        i = int(round(event["t"] * RATE))
        lat, lon = to_latlon(north[i], east[i])
        event["lat"], event["lon"] = float(lat), float(lon)

    accel_v = np.zeros((n, 3))
    accel_v[:, 1] = v * yaw_rate  # centripetal, to the left on a left turn
    accel_v[:, 2] = -GRAVITY + vert
    gyro_v = np.zeros((n, 3))
    gyro_v[:, 2] = yaw_rate
    tilt = (float(lay.uniform(-0.4, 0.4)), float(lay.uniform(-0.6, -0.2)),
            float(lay.uniform(-math.pi, math.pi)))

    keep = np.ones(n, dtype=bool)
    if gap:
        keep &= ~((t_true >= GAP_START) & (t_true < GAP_START + GAP_LENGTH))
    truth = {"potholes": potholes, "turns": turns, "sinusoids": sinusoids,
             "tilt_rad": tilt, "gap": [GAP_START, GAP_LENGTH] if gap else None,
             "duration": duration}
    return _finish("road", np.random.default_rng([seed, 2]), t_true, accel_v, gyro_v,
                   north, east, v, _rotation(*tilt), keep, truth)


def _curvature_profile(s, start, radius):
    """Unsigned curvature of a clothoid-arc-clothoid curve starting at ``start``."""
    k = 1.0 / radius
    x = s - start
    up = np.clip(x / TRANSITION, 0.0, 1.0)
    down = np.clip((TRANSITION * 2 + ARC - x) / TRANSITION, 0.0, 1.0)
    return k * np.minimum(up, down)


def rail_ride(seed: int, duration: float = 600.0, curves: bool = True) -> Ride:
    """A rail ride at constant speed over two curves (left, then right) with
    clothoid transitions and design cant, or over straight track, plus a
    sinusoidal cant irregularity of known amplitude on the whole line."""
    lay = np.random.default_rng([seed, 3])
    n = int(round(duration * RATE))
    t_true = np.arange(n) / RATE
    v = RAIL_SPEED
    s = v * t_true
    length = v * duration
    curve_len = 2 * TRANSITION + ARC

    kappa = np.zeros(n)
    design = np.zeros(n)  # signed design cant, mm
    placed = []
    for sign, lo, hi in ((1.0, 0.15, 0.3), (-1.0, 0.6, 0.75)) if curves else ():
        start = float(lay.uniform(lo, hi) * length)
        radius = float(lay.uniform(800.0, 1500.0))
        cant = float(lay.uniform(60.0, 120.0))
        k = _curvature_profile(s, start, radius)
        kappa += sign * k
        design += sign * cant * k * radius
        s_mid = start + curve_len / 2
        placed.append({"s_start": start, "s_mid": s_mid, "t_mid": s_mid / v,
                       "radius_m": radius, "design_cant_mm": cant, "sign": sign})

    amp = float(lay.uniform(4.0, 6.0))
    phase = float(lay.uniform(0.0, 2 * math.pi))
    irregular = amp * np.sin(2 * math.pi * s / IRREGULARITY_WAVELENGTH + phase)
    # body roll: the inner rail of a curve is the low one
    roll = -np.arcsin((design + irregular) / RAIL_HALF_WIDTH)
    roll_rate = np.gradient(roll, t_true)

    yaw_rate = v * kappa
    north, east = _path(t_true, yaw_rate, v)
    for c in placed:
        i = int(round(c["t_mid"] * RATE))
        lat, lon = to_latlon(north[i], east[i])
        c["lat"], c["lon"] = float(lat), float(lon)

    centripetal = v * v * kappa
    accel_v = np.zeros((n, 3))
    accel_v[:, 1] = centripetal * np.cos(roll) + GRAVITY * np.sin(roll)
    accel_v[:, 2] = -GRAVITY * np.cos(roll) + centripetal * np.sin(roll)
    gyro_v = np.column_stack([roll_rate, np.zeros(n), yaw_rate])

    truth = {"curves": placed, "irregularity": {"amplitude_mm": amp,
             "wavelength_m": IRREGULARITY_WAVELENGTH, "phase": phase},
             "duration": duration}
    return _finish("rail", np.random.default_rng([seed, 4]), t_true, accel_v, gyro_v,
                   north, east, v, np.eye(3), np.ones(n, dtype=bool), truth)


@dataclass
class CrowdBatch:
    """Indicator files of many rides over one street grid, plus the small
    file that is fused after the store is reopened."""

    files: list[list[dict]]  # per ride: indicator properties with lat/lon
    replay_file: list[dict]
    sites: list[dict]


GRID_STEP = 150.0  # m between parallel streets
SITE_SPACING = 60.0  # m, minimum distance between defect sites
SITE_SCATTER = 4.0  # m, GPS scatter of a report around its site
FALSE_SHARE = 0.05  # share of reports at a random place
MONTHS = 180 * 86400.0  # s, spread of the upload timestamps


def crowd_batch(seed: int, n_files: int, per_file: int, n_sites: int) -> CrowdBatch:
    """Defect sites on a street grid; each ride reports a random subset of
    them with GPS scatter, plus isolated false reports, at a ride time drawn
    over six months."""
    rng = np.random.default_rng([seed, 5])
    streets = 20
    span = GRID_STEP * (streets - 1)
    sites: list[dict] = []
    while len(sites) < n_sites:
        along = float(rng.uniform(0.0, span))
        across = GRID_STEP * int(rng.integers(streets))
        north, east = (along, across) if rng.random() < 0.5 else (across, along)
        if any(math.hypot(north - p["north"], east - p["east"]) < SITE_SPACING for p in sites):
            continue
        kind = "anomaly" if rng.random() < 0.7 else "roughness"
        sites.append({"north": north, "east": east, "kind": kind,
                      "level": float(rng.uniform(2.0, 9.0))})

    def report(north, east, kind, level, t):
        lat, lon = to_latlon(north + rng.normal(0.0, SITE_SCATTER),
                             east + rng.normal(0.0, SITE_SCATTER))
        value = float(level + rng.normal(0.0, 0.5))
        return {"kind": kind, "sub_kind": "point" if kind == "anomaly" else "segment",
                "lat": float(lat), "lon": float(lon), "t": t,
                "severity": int(min(255, max(0, round(16 * value)))),
                "confidence": 1.0, "value": value,
                "unit": "score" if kind == "anomaly" else "m/km"}

    def ride(count):
        t0 = float(rng.uniform(0.0, MONTHS))
        out = []
        for j in range(count):
            t = t0 + 10.0 * j
            if rng.random() < FALSE_SHARE:
                out.append(report(float(rng.uniform(0, span)), float(rng.uniform(0, span)),
                                  "anomaly", float(rng.uniform(2.0, 9.0)), t))
            else:
                site = sites[int(rng.integers(len(sites)))]
                out.append(report(site["north"], site["east"], site["kind"], site["level"], t))
        return out

    files = [ride(per_file) for _ in range(n_files)]
    return CrowdBatch(files=files, replay_file=ride(10), sites=sites)


def write_geojson(indicators: list[dict], path) -> None:
    features = [{"type": "Feature",
                 "geometry": {"type": "Point", "coordinates": [d["lon"], d["lat"]]},
                 "properties": {k: d[k] for k in ("kind", "sub_kind", "t", "severity",
                                                  "confidence", "value", "unit")}}
                for d in indicators]
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def encode_beacon(lat: float, lon: float, entries) -> str:
    """A 32-character SSID beacon, following the documented 24-byte layout:
    [version|flags], count, lat/lon as i32 micro-degrees, three 4-byte
    entries, CRC-16/CCITT-FALSE over the first 22 bytes, URL-safe base64."""
    body = struct.pack("<BBii", 1 << 4, len(entries), round(lat * 1e6), round(lon * 1e6))
    for dn, de, typ, sev, conf in entries:
        body += struct.pack("<bbBB", dn, de, (typ << 4) | sev, conf)
    body += b"\x00" * 4 * (3 - len(entries))
    body += struct.pack("<H", binascii.crc_hqx(body, 0xFFFF))
    return base64.urlsafe_b64encode(body).decode("ascii")


def beacon_checksum(ssid: str) -> int:
    return struct.unpack("<H", base64.urlsafe_b64decode(ssid)[-2:])[0]


SIM_DENSITY = 100 / 600.0 ** 2  # vehicles per m^2, about two in radio range
SIM_DURATION = 60  # s


def scenario(seed: int, n_nodes: int) -> list[dict]:
    """Vehicles with straight-leg waypoints inside a square sized for a
    fixed density, duty-cycled radios, and one seed packet on every tenth
    vehicle."""
    rng = np.random.default_rng([seed, 6])
    side = math.sqrt(n_nodes / SIM_DENSITY)
    nodes = []
    for i in range(n_nodes):
        north, east = rng.uniform(0.0, side, 2)
        waypoints = []
        t = 0.0
        while True:
            lat, lon = to_latlon(north, east)
            waypoints.append([t, float(lat), float(lon)])
            if t > SIM_DURATION:
                break
            leg = float(rng.uniform(8.0, 20.0))
            heading = float(rng.uniform(0.0, 2 * math.pi))
            speed = float(rng.uniform(5.0, 15.0))
            north = float(np.clip(north + speed * leg * math.cos(heading), 0.0, side))
            east = float(np.clip(east + speed * leg * math.sin(heading), 0.0, side))
            t += leg
        period = float(rng.choice([5.0, 10.0, 20.0]))
        node = {"id": f"v{i:04d}", "waypoints": waypoints,
                "duty": float(rng.uniform(0.2, 0.6)), "period": period,
                "phase": float(rng.uniform(0.0, period)), "packets": []}
        if i % 10 == 0:
            lat, lon = waypoints[0][1], waypoints[0][2]
            entries = [(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)),
                        1, int(rng.integers(0, 16)), int(rng.integers(0, 256)))
                       for _ in range(int(rng.integers(1, 4)))]
            node["packets"].append(encode_beacon(lat, lon, entries))
        nodes.append(node)
    return nodes


def write_scenario(nodes: list[dict], path) -> None:
    with open(path, "w") as fh:
        for node in nodes:
            fh.write(json.dumps(node) + "\n")
