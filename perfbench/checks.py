"""Output checks. Each compares what the CLI wrote with the ground truth of
the inputs, or with a property the method must have, recomputed here
without the program. Each returns a list of problems; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

EARTH_RADIUS = 6371000.0
# distance slack for a comparison the program makes with its own haversine
NEAR_TIE = 1e-6  # m


def haversine(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dphi = p2 - p1
    dlmb = np.radians(np.asarray(lon2) - np.asarray(lon1))
    a = np.sin(dphi / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS * np.arcsin(np.sqrt(a))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def features_of(collection, kind, sub_kind=None):
    return [f for f in collection["features"]
            if f["properties"]["kind"] == kind
            and (sub_kind is None or f["properties"]["sub_kind"] == sub_kind)]


# ---------------------------------------------------------------- road

def pothole_tolerance(manifest: dict, speed: float) -> float:
    """Metres within which an anomaly must sit: the indicator is placed at
    the centre of its peak window, which holds the pothole (half a window),
    plus half a hop for clock drift under timestamp jitter."""
    cfg = manifest["config"]
    window = cfg["frame_window_len"]
    hop = window * (1.0 - cfg["frame_overlap"])
    return speed * (window / 2 + hop / 2)


def check_potholes(collection: dict, truth: dict, tolerance_m: float) -> list[str]:
    """Every injected pothole has exactly one anomaly within the tolerance."""
    anomalies = features_of(collection, "anomaly")
    lon = np.array([f["geometry"]["coordinates"][0] for f in anomalies])
    lat = np.array([f["geometry"]["coordinates"][1] for f in anomalies])
    problems = []
    for p in truth["potholes"]:
        d = haversine(p["lat"], p["lon"], lat, lon) if anomalies else np.array([])
        near = int(np.sum(d <= tolerance_m))
        if near != 1:
            closest = f"{float(d.min()):.1f} m" if len(d) else "none"
            problems.append(f"pothole at t={p['t']:.1f} s: {near} anomalies within "
                            f"{tolerance_m:.1f} m (closest {closest})")
    return problems


def check_turns(collection: dict, truth: dict, half_width_s: float) -> list[str]:
    """Every injected turn has exactly one `turn` maneuver during it."""
    times = np.array([f["properties"]["t"] for f in features_of(collection, "maneuver", "turn")])
    problems = []
    for turn in truth["turns"]:
        near = int(np.sum(np.abs(times - turn["t"]) <= half_width_s))
        if near != 1:
            problems.append(f"turn at t={turn['t']:.1f} s: {near} turn maneuvers")
    return problems


def read_roughness(path) -> dict[float, float]:
    with open(path, newline="") as fh:
        return {float(r["s_start"]): float(r["index_m_per_km"]) for r in csv.DictReader(fh)}


DOUBLING_TOLERANCE = 0.1  # relative, on segments that hold only roughness and noise


def check_roughness_doubling(base: dict, doubled: dict, truth: dict, speed: float,
                             segment_length: float) -> list[str]:
    """The index is a linear functional of the road profile up to sensor
    noise: doubling the sinusoid amplitudes doubles it on every segment
    without a pothole."""
    if sorted(base) != sorted(doubled) or not base:
        return [f"segments differ: {len(base)} vs {len(doubled)}"]
    holes = [speed * p["t"] for p in truth["potholes"]]
    problems = []
    checked = 0
    for s0, value in base.items():
        if any(s0 - speed * 1.0 <= h < s0 + segment_length for h in holes):
            continue
        checked += 1
        ratio = doubled[s0] / value if value > 0 else math.inf
        if abs(ratio - 2.0) > 2.0 * DOUBLING_TOLERANCE:
            problems.append(f"segment at {s0:g} m: index ratio {ratio:.3f}, expected 2")
    if checked < len(base) // 2:
        problems.append(f"only {checked} of {len(base)} segments are pothole-free")
    return problems


# ---------------------------------------------------------------- rail

def read_geometry(path) -> tuple[list[str], np.ndarray]:
    """Header and values of geometry.csv; blank cells become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    values = np.array([[float(c) if c else np.nan for c in r] for r in rows[1:]])
    return header, values


CANT_TOLERANCE = 0.1  # relative error of the fitted irregularity amplitude


def check_cant_irregularity(header, values, truth: dict) -> list[str]:
    """A least-squares sinusoid at the injected wavelength, fitted to
    cant_mm over s, recovers the injected amplitude."""
    s = values[:, header.index("s")]
    cant = values[:, header.index("cant_mm")]
    irr = truth["irregularity"]
    w = 2 * math.pi / irr["wavelength_m"]
    design = np.column_stack([np.sin(w * s), np.cos(w * s), np.ones_like(s)])
    coef, *_ = np.linalg.lstsq(design, cant, rcond=None)
    amp = float(math.hypot(coef[0], coef[1]))
    if abs(amp - irr["amplitude_mm"]) > CANT_TOLERANCE * irr["amplitude_mm"]:
        return [f"fitted cant irregularity {amp:.2f} mm, injected {irr['amplitude_mm']:.2f} mm"]
    return []


TWIST_TOLERANCE = 1e-6  # mm/m; the CSV carries full float precision


def check_twist(header, values) -> list[str]:
    """Each twistN column equals (cant(s + N) - cant(s)) / N recomputed from
    the file's own cant_mm, linearly interpolated, and is blank exactly
    where s + N runs past the profile."""
    s = values[:, header.index("s")]
    cant = values[:, header.index("cant_mm")]
    problems = []
    bases = [c for c in header if c.startswith("twist")]
    if not bases:
        return ["no twist columns"]
    for col in bases:
        base = float(col[len("twist"):])
        got = values[:, header.index(col)]
        inside = s + base <= s[-1]
        want = (np.interp(s + base, s, cant) - cant) / base
        if not np.array_equal(np.isnan(got), ~inside):
            problems.append(f"{col}: blanks at {int(np.isnan(got).sum())} rows, "
                            f"expected {int((~inside).sum())}")
            continue
        err = np.abs(got[inside] - want[inside])
        if err.size and float(err.max()) > TWIST_TOLERANCE:
            k = int(np.argmax(err))
            problems.append(f"{col}: off by {float(err.max()):.3g} mm/m at s={s[inside][k]:.1f} m")
    return problems


# relative; the reported radius is 1 / mean |curvature| over the detected
# run, which takes in part of both transitions
RADIUS_TOLERANCE = 0.2


def check_curves(collection: dict, truth: dict, curve_length: float) -> list[str]:
    """Exactly the injected curves are reported: one curvature indicator
    per curve, within half a curve length of its middle, with the radius
    within tolerance."""
    curves = features_of(collection, "curvature")
    if len(curves) != len(truth["curves"]):
        return [f"{len(curves)} curve indicators for {len(truth['curves'])} injected curves"]
    problems = []
    for c in truth["curves"]:
        best = min(curves, key=lambda f: float(haversine(
            c["lat"], c["lon"], f["geometry"]["coordinates"][1], f["geometry"]["coordinates"][0])))
        lon, lat = best["geometry"]["coordinates"]
        d = float(haversine(c["lat"], c["lon"], lat, lon))
        radius = best["properties"]["value"]
        if d > curve_length / 2:
            problems.append(f"curve of radius {c['radius_m']:.0f} m: nearest report {d:.0f} m away")
        elif abs(radius - c["radius_m"]) > RADIUS_TOLERANCE * c["radius_m"]:
            problems.append(f"curve radius {radius:.0f} m, injected {c['radius_m']:.0f} m")
    return problems


# ---------------------------------------------------------------- crowd

def read_log(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_log_inputs(records: list[dict], contributions: list[dict]) -> list[str]:
    """The event log holds every contribution, in order, unchanged."""
    if len(records) != len(contributions):
        return [f"log has {len(records)} records for {len(contributions)} contributions"]
    for i, (rec, ind) in enumerate(zip(records, contributions)):
        for key in ("kind", "lat", "lon", "t", "value"):
            if rec[key] != ind[key]:
                return [f"record {i}: {key} is {rec[key]!r}, contributed {ind[key]!r}"]
    return []


def replay_anchors(records: list[dict], radius: float):
    """Exhaustive nearest-anchor matching, recomputed from the log: the
    nearest same-kind anchor within the radius, ties to the smaller id,
    otherwise a new anchor; a matched centroid moves to the
    contribution-weighted mean. Returns the expected anchor id of each
    record and the anchors as dicts of lat/lon/kind/count."""
    lat = np.empty(len(records))
    lon = np.empty(len(records))
    kinds: list[str] = []
    count: list[int] = []
    expected = []
    n = 0
    for rec in records:
        same = np.array([k == rec["kind"] for k in kinds], dtype=bool)
        d = haversine(lat[:n], lon[:n], rec["lat"], rec["lon"]) if n else np.array([])
        inside = same & (d <= radius + NEAR_TIE)
        borderline = same & (np.abs(d - radius) <= NEAR_TIE)
        if inside.any():
            cand = np.flatnonzero(inside)
            order = cand[np.argsort(d[cand], kind="stable")]
            aid = int(order[0])
            tie = len(order) > 1 and d[order[1]] - d[order[0]] <= NEAR_TIE
        else:
            aid, tie = -1, False
        logged = rec["anchor_id"]
        if (tie or borderline.any()) and (logged == n or (logged < n and inside[logged])):
            # a distance within rounding of the radius or of a rival: any
            # answer among those is right, so follow the log
            aid = -1 if logged == n else logged
        if aid < 0:
            aid = n
            lat[n], lon[n] = rec["lat"], rec["lon"]
            kinds.append(rec["kind"])
            count.append(1)
            n += 1
        else:
            c = count[aid]
            lat[aid] = (lat[aid] * c + rec["lat"]) / (c + 1)
            lon[aid] = (lon[aid] * c + rec["lon"]) / (c + 1)
            count[aid] = c + 1
        expected.append(aid)
    anchors = [{"lat": float(lat[i]), "lon": float(lon[i]), "kind": kinds[i], "count": count[i]}
               for i in range(n)]
    return expected, anchors


def check_matching(records: list[dict], radius: float) -> list[str]:
    """Each contribution's anchor equals the exhaustive scan's."""
    expected, _ = replay_anchors(records, radius)
    for i, (rec, aid) in enumerate(zip(records, expected)):
        if rec["anchor_id"] != aid:
            return [f"record {i}: matched to anchor {rec['anchor_id']}, nearest is {aid}"]
    return []


def fused_values(records: list[dict], half_life: float) -> dict[int, float]:
    """Half-life-weighted mean per anchor: the evidence held decays by
    2^(-|dt| / half_life) against the newest time seen, every contribution
    enters with weight 1, and a late arrival does not rewind the clock."""
    state: dict[int, tuple[float, float, float]] = {}
    for rec in records:
        aid, t, x = rec["anchor_id"], rec["t"], rec["value"]
        if aid not in state:
            state[aid] = (x, 1.0, t)
            continue
        value, weight, last = state[aid]
        decay = 2.0 ** (-abs(t - last) / half_life)
        new_weight = decay * weight + 1.0
        state[aid] = ((decay * weight * value + x) / new_weight, new_weight, max(t, last))
    return {aid: v for aid, (v, _, _) in state.items()}


VALUE_TOLERANCE = 1e-9  # relative


def check_fusion(records: list[dict], snapshot: dict, half_life: float,
                 radius: float) -> list[str]:
    """Each anchor's value equals the half-life-weighted mean of its
    contributions, and its position and count equal the replayed ones."""
    values = fused_values(records, half_life)
    _, anchors = replay_anchors(records, radius)
    feats = {f["properties"]["anchor_id"]: f for f in snapshot["features"]}
    if sorted(feats) != sorted(values):
        return [f"snapshot has {len(feats)} anchors, log has {len(values)}"]
    for aid, want in values.items():
        props = feats[aid]["properties"]
        if abs(props["value"] - want) > VALUE_TOLERANCE * max(1.0, abs(want)):
            return [f"anchor {aid}: value {props['value']!r}, half-life mean {want!r}"]
        if aid < len(anchors):
            a = anchors[aid]
            lon, lat = feats[aid]["geometry"]["coordinates"]
            if props["contribution_count"] != a["count"] or \
                    float(haversine(lat, lon, a["lat"], a["lon"])) > 1e-3:
                return [f"anchor {aid}: centroid or count differs from the replayed log"]
    return []


def check_replay(before: dict, after: dict, touched: set[int]) -> list[str]:
    """Reopening the store replays it: every anchor the new file did not
    touch is unchanged in the snapshot."""
    a = {f["properties"]["anchor_id"]: f for f in after["features"]}
    for f in before["features"]:
        aid = f["properties"]["anchor_id"]
        if aid in touched:
            continue
        if a.get(aid) != f:
            return [f"anchor {aid} changed across save and replay"]
    return []


def read_deliveries(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{"t": float(r["t"]), "src": r["src"], "dst": r["dst"],
                 "checksum": int(r["checksum"])} for r in csv.DictReader(fh)]


def _position(node: dict, t: float) -> tuple[float, float]:
    wps = node["waypoints"]
    if t <= wps[0][0]:
        return wps[0][1], wps[0][2]
    if t >= wps[-1][0]:
        return wps[-1][1], wps[-1][2]
    for (t0, la0, lo0), (t1, la1, lo1) in zip(wps, wps[1:]):
        if t0 <= t < t1:
            f = (t - t0) / (t1 - t0)
            return la0 + f * (la1 - la0), lo0 + f * (lo1 - lo0)
    raise ValueError("waypoints not sorted")


def _hotspot(node: dict, t: float) -> bool:
    return ((t - node["phase"]) % node["period"]) < node["duty"] * node["period"]


def check_deliveries(deliveries: list[dict], nodes: list[dict], comm_range: float,
                     checksum_of) -> list[str]:
    """Every delivery goes from a hotspot that held the packet to a client
    within range at its step."""
    by_id = {n["id"]: n for n in nodes}
    held = {n["id"]: {checksum_of(p): -1.0 for p in n["packets"]} for n in nodes}
    for d in sorted(deliveries, key=lambda d: d["t"]):
        src, dst = by_id.get(d["src"]), by_id.get(d["dst"])
        if src is None or dst is None:
            return [f"delivery at t={d['t']}: unknown node"]
        if not _hotspot(src, d["t"]) or _hotspot(dst, d["t"]):
            return [f"delivery {d['src']}->{d['dst']} at t={d['t']}: wrong radio modes"]
        dist = float(haversine(*_position(src, d["t"]), *_position(dst, d["t"])))
        if dist > comm_range + NEAR_TIE:
            return [f"delivery {d['src']}->{d['dst']} at t={d['t']}: {dist:.1f} m apart"]
        since = held[d["src"]].get(d["checksum"])
        if since is None or since >= d["t"]:
            return [f"delivery {d['src']}->{d['dst']} at t={d['t']}: source lacked the packet"]
        held[d["dst"]].setdefault(d["checksum"], d["t"])
    if not deliveries:
        return ["no deliveries"]
    return []


def check_no_duplicates(deliveries: list[dict], nodes: list[dict], checksum_of) -> list[str]:
    """No node receives a packet twice, or one it started with."""
    seen = {(n["id"], checksum_of(p)) for n in nodes for p in n["packets"]}
    for d in deliveries:
        key = (d["dst"], d["checksum"])
        if key in seen:
            return [f"{d['dst']} received packet {d['checksum']} twice"]
        seen.add(key)
    return []
