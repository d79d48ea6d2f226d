"""Naive reference implementations the tests compare the program against.

Each one is the plain row-by-row or step-by-step form of a stage that the
program computes on columns or arrays.
"""

import csv
import json
import math

import numpy as np

from infrasense.aggregation import (
    SegmentAnchor,
    SegmentState,
    SegmentStore,
    StoreError,
    great_circle,
)
from infrasense.dissemination import Delivery, decode_packet
from infrasense.rail_analysis import CURVE_GAP, CURVE_MIN_ARC, geometry_columns
from infrasense.reports import JSON_NUMBER, Indicator, json_line
from infrasense.road_analysis import MANEUVER_GAP, MANEUVER_MIN_DURATION
from infrasense.trace_model import (
    CSV_COLUMNS,
    FIX_COLUMNS,
    EmptyTraceError,
    Fixes,
    ParseReport,
    SchemaError,
    Trace,
    sample_rate,
)
from infrasense.transforms import TransformError, WaveletDecomposition
from infrasense.transforms.wavelets import _even, filter_pair

REQUIRED = ("t", "ax", "ay", "az")


def _finite(*vals) -> bool:
    return all(v is not None and math.isfinite(v) for v in vals)


def _maybe_float(raw):
    if raw is None:
        return None
    raw = raw.strip() if isinstance(raw, str) else raw
    if raw == "" or raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def _rows_to_trace(rows):
    kept = []
    drops = {"required_nonfinite": 0, "invalid_fix": 0}
    for row in rows:
        t = _maybe_float(row.get("t"))
        acc = [_maybe_float(row.get(k)) for k in ("ax", "ay", "az")]
        if not _finite(t, *acc):
            drops["required_nonfinite"] += 1
            continue
        gyr = [_maybe_float(row.get(k)) for k in ("gx", "gy", "gz")]
        gyr = gyr if _finite(*gyr) else None
        fix = None
        geo = [_maybe_float(row.get(k)) for k in ("lat", "lon", "speed", "acc")]
        if _finite(*geo):
            lat, lon, speed, accuracy = geo
            if not (abs(lat) <= 90 and abs(lon) <= 180 and speed >= 0 and accuracy > 0):
                drops["invalid_fix"] += 1
                continue
            fix = (t, *geo)
        kept.append((t, acc, gyr, fix))

    if len(kept) < 2:
        raise EmptyTraceError(f"only {len(kept)} usable samples (need >= 2)")

    ts = [r[0] for r in kept]
    reorders = sum(1 for a, b in zip(ts, ts[1:]) if b < a)
    kept.sort(key=lambda r: r[0])

    t = np.array([r[0] for r in kept])
    accel = np.array([r[1] for r in kept])
    gyros = [r[2] for r in kept]
    gyro = np.array(gyros) if all(g is not None for g in gyros) else None
    fixes = np.array([r[3] for r in kept if r[3] is not None]).reshape(-1, 5)
    trace = Trace(t=t, accel=accel, gyro=gyro, fixes=Fixes(*fixes.T))
    sample_rate(t)  # a median interval of 0 fails the parse
    dropped = sum(drops.values())
    return trace, ParseReport(rows_read=len(kept) + dropped, rows_dropped=dropped,
                              reorders=reorders, drops=drops)


def parse_trace_rows(path, format: str = "csv"):
    """`parse_trace` one row at a time: `csv.DictReader` rows or JSONL objects."""
    path = str(path)
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                header = reader.fieldnames or []
                missing = [c for c in REQUIRED if c not in header]
                if missing:
                    raise SchemaError(f"missing required columns: {missing}")
                rows = list(reader)
            except csv.Error as e:
                raise SchemaError(f"unreadable CSV: {e}") from e
    else:
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as e:  # JSONDecodeError, or an int past the digit limit
                    raise SchemaError(f"line {lineno}: invalid JSON ({e})") from e
                if not isinstance(obj, dict):
                    raise SchemaError(f"line {lineno}: not a JSON object")
                if not all(k in obj for k in REQUIRED):
                    raise SchemaError(f"line {lineno}: missing required keys")
                rows.append(obj)
    return _rows_to_trace(rows)


def write_trace_csv_writer(trace, path) -> None:
    """`write_trace_csv` through `csv.writer`, one row of Python floats at a time."""
    ft = trace.fixes.t
    right = np.clip(np.searchsorted(trace.t, ft), 1, len(trace.t) - 1)
    rows = np.where(ft - trace.t[right - 1] <= trace.t[right] - ft, right - 1, right)
    geo = np.column_stack([getattr(trace.fixes, k) for k in FIX_COLUMNS[1:]])
    fix_by_row = dict(zip(rows.tolist(), geo.tolist()))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for i, t in enumerate(trace.t):
            row = [repr(float(t))] + [repr(float(v)) for v in trace.accel[i]]
            if trace.gyro is not None:
                row += [repr(float(v)) for v in trace.gyro[i]]
            else:
                row += ["", "", ""]
            fix = fix_by_row.get(i)
            row += [repr(v) for v in fix] if fix else ["", "", "", ""]
            w.writerow(row)


def gravity_split_loop(trace, tau: float = 1.0):
    """`gravity_split` one step at a time: g_i = a*g_(i-1) + (1-a)*accel_i."""
    n = len(trace)
    gravity = np.empty((n, 3))
    gravity[0] = trace.accel[0]
    dts = np.diff(trace.t)
    for i in range(1, n):
        dt = max(float(dts[i - 1]), 1e-9)
        a = tau / (tau + dt)
        gravity[i] = a * gravity[i - 1] + (1.0 - a) * trace.accel[i]
    return gravity, trace.accel - gravity


# `feature_matrix` one window at a time: FEATURES[name](window) is one
# feature of a 1-D window, as a float.


def _mean(x):
    return float(np.mean(x))


def _mad(x):
    return float(np.median(np.abs(x - np.median(x))))


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def _var(x):
    return float(np.mean(np.square(x - np.mean(x))))


def _sd(x):
    return float(np.sqrt(_var(x)))


def _energy(x):
    return float(np.linalg.norm(x))


def _skew(x):
    sd = _sd(x)
    if sd == 0.0:
        return 0.0
    return float(np.mean(((x - np.mean(x)) / sd) ** 3))


def _kurt(x):
    sd = _sd(x)
    if sd == 0.0:
        return 0.0
    return float(np.mean(((x - np.mean(x)) / sd) ** 4))


def _peak2peak(x):
    return float(np.max(x) - np.min(x))


def _peak2rms(x):
    rms = _rms(x)
    if rms == 0.0:
        return 0.0
    return float(np.max(np.abs(x)) / rms)


FEATURES = {
    "mean": _mean,
    "mad": _mad,
    "rms": _rms,
    "var": _var,
    "sd": _sd,
    "energy": _energy,
    "skew": _skew,
    "kurt": _kurt,
    "peak2peak": _peak2peak,
    "peak2rms": _peak2rms,
}


# The wavelet transforms with one `np.roll` copy of the signal per filter tap.


def dwt_level_roll(signal, wavelet: str = "haar") -> tuple[np.ndarray, np.ndarray]:
    h, g = filter_pair(wavelet)
    x = _even(np.asarray(signal, dtype=float))
    low = np.zeros(len(x))
    high = np.zeros(len(x))
    for n in range(len(h)):
        rolled = np.roll(x, -n)
        low += h[n] * rolled
        high += g[n] * rolled
    return low[::2], high[::2]


def idwt_level_roll(approx, detail, wavelet: str, out_len: int) -> np.ndarray:
    h, g = filter_pair(wavelet)
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    n = 2 * len(a)
    up_a = np.zeros(n)
    up_d = np.zeros(n)
    up_a[::2] = a
    up_d[::2] = d
    x = np.zeros(n)
    for m in range(len(h)):
        x += h[m] * np.roll(up_a, m) + g[m] * np.roll(up_d, m)
    return x[:out_len]


def waverec_roll(dec: WaveletDecomposition) -> np.ndarray:
    a = dec.approx
    for d, n in zip(reversed(dec.details), reversed(dec.input_lengths)):
        a = idwt_level_roll(a, d, dec.wavelet, out_len=n)
    return a


def _upsampled_positions(filt: np.ndarray, level: int) -> list[tuple[int, float]]:
    step = 2 ** (level - 1)
    return [(n * step, float(c)) for n, c in enumerate(filt)]


def swt_roll(signal, wavelet: str = "haar", levels: int = 1) -> WaveletDecomposition:
    x = np.asarray(signal, dtype=float)
    orig = len(x)
    block = 2 ** levels
    if orig % block:
        x = np.concatenate([x, np.zeros(block - orig % block)])
    if levels > int(math.floor(math.log2(len(x)))):
        raise TransformError(f"{levels} levels too deep for padded length {len(x)}")
    h, g = filter_pair(wavelet)
    details = []
    a = x
    for j in range(1, levels + 1):
        low = np.zeros(len(a))
        high = np.zeros(len(a))
        for shift, c in _upsampled_positions(h, j):
            low += c * np.roll(a, -shift)
        for shift, c in _upsampled_positions(g, j):
            high += c * np.roll(a, -shift)
        details.append(high)
        a = low
    return WaveletDecomposition(details=details, approx=a, wavelet=wavelet,
                                scheme="stationary", original_length=orig)


def swt_band_reconstruct_roll(dec: WaveletDecomposition, levels=None,
                              include_approx: bool = False) -> np.ndarray:
    if levels is None:
        levels = set(range(1, dec.levels + 1))
        include_approx = True
    levels = set(levels)
    h, g = filter_pair(dec.wavelet)
    a = dec.approx if include_approx else np.zeros_like(dec.approx)
    for j in range(dec.levels, 0, -1):
        d = dec.details[j - 1] if j in levels else np.zeros_like(dec.details[j - 1])
        rec = np.zeros(len(a))
        for shift, c in _upsampled_positions(h, j):
            rec += c * np.roll(a, shift)
        for shift, c in _upsampled_positions(g, j):
            rec += c * np.roll(d, shift)
        a = 0.5 * rec
    return a[:dec.original_length]


def extrema_loop(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EMD's interior maxima and minima, carrying the slope through flats
    one sample at a time."""
    d = np.sign(np.diff(x))
    for i in range(1, len(d)):
        if d[i] == 0:
            d[i] = d[i - 1]
    turn = np.diff(d)
    maxima = np.where(turn < 0)[0] + 1
    minima = np.where(turn > 0)[0] + 1
    return maxima, minima


def match_segment_scan(store, indicator, policy) -> int:
    """`SegmentStore.match_segment` as an exhaustive scan of every anchor of
    the store in ascending id."""
    best_id, best_d = None, None
    for aid in sorted(store.states):
        st = store.states[aid]
        if st.anchor.kind != indicator.kind:
            continue
        d = great_circle(st.anchor.lat, st.anchor.lon, indicator.lat, indicator.lon)
        if d <= policy.radius and (best_d is None or d < best_d):
            best_id, best_d = aid, d
    if best_id is None:
        aid = store._next_id
        store._next_id += 1
        anchor = SegmentAnchor(id=aid, lat=indicator.lat, lon=indicator.lon,
                               kind=indicator.kind)
        store.states[aid] = SegmentState(anchor=anchor)
        return aid
    anchor = store.states[best_id].anchor
    n = anchor.contribution_count
    anchor.lat = (anchor.lat * n + indicator.lat) / (n + 1)
    dlon = indicator.lon - anchor.lon
    if abs(dlon) > 180.0:  # across +-180 deg: average the wrapped difference
        lon = anchor.lon + (dlon - math.copysign(360.0, dlon)) / (n + 1)
        anchor.lon = (lon + 180.0) % 360.0 - 180.0
    else:
        anchor.lon = (anchor.lon * n + indicator.lon) / (n + 1)
    anchor.contribution_count = n + 1
    return best_id


def load_replay(path, policy) -> SegmentStore:
    """`SegmentStore.load` as a replay through `contribute`: the file read
    line by line, and an `Indicator` built for every record."""
    store = SegmentStore()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json_line(line)
            except ValueError as e:
                raise StoreError(f"line {lineno}: invalid JSON ({e})") from e
            try:
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                lat, lon, t, value = rec["lat"], rec["lon"], rec["t"], rec["value"]
                if not (type(lat) in JSON_NUMBER and type(lon) in JSON_NUMBER
                        and type(t) in JSON_NUMBER and type(value) in JSON_NUMBER):
                    raise ValueError("lat, lon, t and value must be JSON numbers")
                ind = Indicator(kind=rec["kind"], sub_kind="", lat=lat, lon=lon,
                                t=t, severity=0, confidence=1.0, value=value)
                expect = rec["anchor_id"]
            except (KeyError, ValueError) as e:
                raise StoreError(f"line {lineno}: {e}") from e
            aid = store.contribute(ind, policy)
            if aid < 0:
                raise StoreError(f"line {lineno}: the replay rejects the record "
                                 f"(a non-finite value or t, or a position off WGS84)")
            if aid != expect:
                raise StoreError(
                    f"line {lineno}: replay assigned anchor {aid}, "
                    f"log says {expect} (policy mismatch?)"
                )
    return store


def best_packet_sorted(node):
    """Highest-severity held packet (ties by checksum), from a full sort."""
    if not node.inbox:
        return None
    ranked = sorted(node.inbox.items(),
                    key=lambda kv: (-decode_packet(kv[1]).max_severity(), kv[0]))
    return ranked[0][1]


def step_simulation_pairs(nodes, t: float, dt: float, comm_range: float):
    """One synchronous step over every ordered node pair, asking each node
    for its mode and position again for every pair."""
    if dt <= 0 or comm_range <= 0:
        raise ValueError("dt and range must be positive")
    ordered = sorted(nodes, key=lambda n: n.id)
    log = []
    for src in ordered:
        if src.mode(t) != "hotspot":
            continue
        ssid = best_packet_sorted(src)
        if ssid is None:
            continue
        slat, slon = src.position(t)
        for dst in ordered:
            if dst.id == src.id or dst.mode(t) != "client":
                continue
            dlat, dlon = dst.position(t)
            if great_circle(slat, slon, dlat, dlon) > comm_range:
                continue
            if dst.receive(ssid):
                log.append(Delivery(t=t, src=src.id, dst=dst.id,
                                    checksum=decode_packet(ssid).checksum))
    return log


def run_simulation_pairs(nodes, duration: float, dt: float = 1.0,
                         comm_range: float = 50.0):
    log = []
    steps = int(round(duration / dt))
    for i in range(steps):
        log.extend(step_simulation_pairs(nodes, i * dt, dt, comm_range))
    return log


def geometry_to_csv_writer(profile, path, twist_bases=(3.0, 5.0)) -> None:
    """`geometry_to_csv` through `csv.writer`, one row at a time: the same
    rounded `geometry_columns`, each cell formatted by `format(value, ".Nf")`."""
    columns = geometry_columns(profile, twist_bases)
    cells = []
    for _, values, decimals in columns:
        column = [format(v, f".{decimals}f") for v in values.tolist()]
        cells.append(column + [""] * (len(profile) - len(column)))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([name for name, _, _ in columns])
        w.writerows(zip(*cells))


def curve_runs_loop(s, smooth, threshold) -> list[tuple[int, int]]:
    """`curve_runs` one sample at a time along the track.

    A stretch opens when |smooth| reaches threshold/2 and closes at the
    first sample below it; a stretch that went above `threshold` joins the
    open run if it starts less than CURVE_GAP after that run's last sample,
    and otherwise closes that run and opens the next.
    """
    out = []
    run = None  # [first, last] index of the open run
    stretch = None  # first index of the current stretch at or above threshold/2
    hot = False  # whether that stretch went above threshold

    def close():
        if run is not None and s[run[1]] - s[run[0]] >= CURVE_MIN_ARC:
            out.append((run[0], run[1] + 1))

    # the sentinel after the last sample closes a stretch at the profile end
    for i, k in enumerate(list(np.abs(smooth)) + [-math.inf]):
        if k >= threshold / 2:
            if stretch is None:
                stretch, hot = i, False
            hot = hot or k > threshold
            continue
        if stretch is not None and hot:
            if run is not None and s[stretch] - s[run[1]] < CURVE_GAP:
                run[1] = i - 1
            else:
                close()
                run = [stretch, i - 1]
        stretch = None
    close()
    return out


def segment_rows_mask(s, segment_length) -> list[np.ndarray]:
    """The rows of each whole segment of the distance `s`, found by comparing
    every sample with the segment's edges: k*L <= s < (k+1)*L."""
    out = []
    for seg in range(int(s[-1] // segment_length)):
        s0, s1 = seg * segment_length, (seg + 1) * segment_length
        out.append(np.where((s >= s0) & (s < s1))[0])
    return out


def lobes_loop(omega: np.ndarray, dead: float) -> list[int]:
    """Signs of the successive lobes of a yaw-rate event."""
    signs = []
    current = 0
    for w in omega:
        s = 0 if abs(w) < dead else (1 if w > 0 else -1)
        if s != 0 and s != current:
            signs.append(s)
            current = s
        elif s != 0:
            current = s
    return signs


def yaw_events_loop(t, wz, omega_on, omega_off, min_duration=MANEUVER_MIN_DURATION,
                    min_gap=MANEUVER_GAP) -> list[tuple[int, int]]:
    """`yaw_events` one sample at a time: an event opens when |wz| exceeds
    `omega_on` and closes at the first sample below `omega_off` that lies
    `min_gap` or more after the last sample at or above it."""
    events = []
    active = False
    start = 0
    last_hot = 0  # last index with |w| >= omega_off
    for i, w in enumerate(np.abs(wz)):
        if not active:
            if w > omega_on:
                active = True
                start = i
                last_hot = i
        else:
            if w >= omega_off:
                last_hot = i
            elif t[i] - t[last_hot] >= min_gap:
                if t[last_hot] - t[start] >= min_duration:
                    events.append((start, last_hot))
                active = False
    if active and t[last_hot] - t[start] >= min_duration:
        events.append((start, last_hot))
    return events
