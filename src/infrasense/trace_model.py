"""Trace data model: parsing, resampling, and inertial preprocessing.

A :class:`Trace` bundles the inertial samples and GPS fixes of one ride.
Preprocessing covers gravity separation with a first-order low-pass,
gyro integration, and reorientation of the device frame into a
vehicle-aligned frame (z up against gravity, x forward).

Frame convention: an aligned, stationary device reads accel = (0, 0, -9.81);
the gravity vector points along -z.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

GRAVITY = 9.81

CSV_COLUMNS = ("t", "ax", "ay", "az", "gx", "gy", "gz", "lat", "lon", "speed", "acc")
_REQUIRED = ("t", "ax", "ay", "az")


class TraceError(Exception):
    """Base class for trace-layer failures."""


class SchemaError(TraceError):
    """Input file does not match the trace schema."""


class EmptyTraceError(TraceError):
    """Fewer than two usable samples."""


class CapabilityError(TraceError):
    """Requested operation needs a sensor the trace does not carry."""


@dataclass(frozen=True)
class GeoFix:
    t: float
    lat: float
    lon: float
    speed: float  # m/s
    accuracy: float  # m, horizontal

    def __post_init__(self):
        if not (abs(self.lat) <= 90 and abs(self.lon) <= 180):
            raise ValueError(f"invalid coordinates ({self.lat}, {self.lon})")
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if self.accuracy <= 0:
            raise ValueError("accuracy must be positive")


@dataclass(frozen=True)
class ParseReport:
    rows_read: int
    rows_dropped: int
    reorders: int


@dataclass
class Trace:
    """One ride: time-ordered inertial samples plus geo fixes.

    ``gyro`` is None when any retained row lacked gyro readings; consumers
    must handle that degraded mode.
    """

    t: np.ndarray  # (n,) s, non-decreasing
    accel: np.ndarray  # (n, 3) m/s^2
    gyro: np.ndarray | None  # (n, 3) rad/s or None
    fixes: list[GeoFix]
    nominal_rate: float  # Hz, declared; not trusted
    meta: str = ""

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        if self.gyro is not None:
            self.gyro = np.asarray(self.gyro, dtype=float)
        if len(self.t) < 2:
            raise EmptyTraceError("a trace needs at least 2 samples")
        if self.nominal_rate <= 0:
            raise ValueError("nominal_rate must be positive")
        if np.any(np.diff(self.t) < 0):
            raise ValueError("samples must be sorted by t")
        if not np.all(np.isfinite(self.t)) or not np.all(np.isfinite(self.accel)):
            raise ValueError("non-finite sample values")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return float(self.t[-1] - self.t[0])

    def speed_at(self, t) -> np.ndarray:
        """Interpolated GPS speed at the given times; NaN without fixes."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not self.fixes:
            return np.full(t.shape, np.nan)
        ft = np.array([f.t for f in self.fixes])
        fv = np.array([f.speed for f in self.fixes])
        return np.interp(t, ft, fv)


def positions_at(fixes, t) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) of a fix list, interpolated at the given times; NaN without fixes."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not fixes:
        nan = np.full(t.shape, np.nan)
        return nan, nan.copy()
    ft = np.array([f.t for f in fixes])
    lat = np.interp(t, ft, np.array([f.lat for f in fixes]))
    lon = np.interp(t, ft, np.array([f.lon for f in fixes]))
    return lat, lon


def sample_rate(t) -> float:
    """Measured sample rate: one over the median sample interval, in Hz."""
    return 1.0 / float(np.median(np.diff(t)))


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal integral of y over x, starting at 0."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def runs(mask) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of equal values in a boolean array,
    in order; `stop` is exclusive and the run's value is ``mask[start]``."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) == 0:
        return []
    cuts = (np.flatnonzero(mask[1:] != mask[:-1]) + 1).tolist()
    edges = [0, *cuts, len(mask)]
    return list(zip(edges[:-1], edges[1:]))


def _finite(*vals) -> bool:
    return all(v is not None and math.isfinite(v) for v in vals)


def _maybe_float(raw) -> float | None:
    if raw is None:
        return None
    raw = raw.strip() if isinstance(raw, str) else raw
    if raw == "" or raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def _rows_to_trace(rows, meta: str) -> tuple[Trace, ParseReport]:
    kept = []
    dropped = 0
    for row in rows:
        t = _maybe_float(row.get("t"))
        acc = [_maybe_float(row.get(k)) for k in ("ax", "ay", "az")]
        if not _finite(t, *acc):
            dropped += 1
            continue
        gyr = [_maybe_float(row.get(k)) for k in ("gx", "gy", "gz")]
        gyr = gyr if _finite(*gyr) else None
        fix = None
        geo = [_maybe_float(row.get(k)) for k in ("lat", "lon", "speed", "acc")]
        if _finite(*geo):
            try:
                fix = GeoFix(t, geo[0], geo[1], geo[2], geo[3])
            except ValueError:
                dropped += 1
                continue
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
    fixes = [r[3] for r in kept if r[3] is not None]
    trace = Trace(t=t, accel=accel, gyro=gyro, fixes=fixes, nominal_rate=sample_rate(t), meta=meta)
    return trace, ParseReport(rows_read=len(kept) + dropped, rows_dropped=dropped, reorders=reorders)


def parse_trace(path, format: str = "csv") -> tuple[Trace, ParseReport]:
    """Parse a recording into a Trace.

    CSV needs the header ``t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc``; JSONL is
    one object per line with the same keys. Gyro and geo cells may be empty
    per row. Rows with non-finite required values are dropped and counted.
    """
    path = str(path)
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in _REQUIRED if c not in header]
            if missing:
                raise SchemaError(f"missing required columns: {missing}")
            rows = list(reader)
    elif format == "jsonl":
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SchemaError(f"line {lineno}: invalid JSON ({e})") from e
                if not all(k in obj for k in _REQUIRED):
                    raise SchemaError(f"line {lineno}: missing required keys")
                rows.append(obj)
    else:
        raise ValueError(f"unknown format {format!r}")
    return _rows_to_trace(rows, meta=path)


def write_trace_csv(trace: Trace, path) -> None:
    """Write a Trace back out in the canonical CSV schema.

    The schema carries a fix on a sample row, so each fix goes on the row of
    its nearest sample time (ties to the earlier row), which moves it by at
    most half a sample interval. When two fixes land on one row, the later
    one in ``trace.fixes`` is written and the other is lost.
    """
    fix_by_row = {}
    if trace.fixes:
        ft = np.array([f.t for f in trace.fixes])
        right = np.clip(np.searchsorted(trace.t, ft), 1, len(trace.t) - 1)
        rows = np.where(ft - trace.t[right - 1] <= trace.t[right] - ft, right - 1, right)
        fix_by_row = dict(zip(rows.tolist(), trace.fixes))
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
            if fix is not None:
                row += [repr(fix.lat), repr(fix.lon), repr(fix.speed), repr(fix.accuracy)]
            else:
                row += ["", "", "", ""]
            w.writerow(row)


def resample(trace: Trace, rate: float) -> Trace:
    """Resample onto a uniform grid at `rate` Hz by linear interpolation.

    Downsampling by a ratio >= 2 applies a moving-average pre-filter of
    width equal to the rounded decimation factor.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    n_out = int(np.floor(trace.span * rate + 1e-9)) + 1
    if n_out < 2:
        raise EmptyTraceError("trace span too short for the requested rate")

    t_new = trace.t[0] + np.arange(n_out) / rate
    ratio = sample_rate(trace.t) / rate

    def prep(sig):
        if ratio >= 2.0:
            width = int(round(ratio))
            kernel = np.ones(width) / width
            pad = width // 2
            ext = np.concatenate([np.repeat(sig[:1], pad, 0), sig, np.repeat(sig[-1:], pad, 0)])
            sm = np.stack(
                [np.convolve(ext[:, c], kernel, mode="same")[pad:pad + len(sig)] for c in range(sig.shape[1])],
                axis=1,
            )
            return sm
        return sig

    def interp_cols(sig):
        sig = prep(sig)
        return np.stack([np.interp(t_new, trace.t, sig[:, c]) for c in range(sig.shape[1])], axis=1)

    accel = interp_cols(trace.accel)
    gyro = interp_cols(trace.gyro) if trace.gyro is not None else None
    return Trace(t=t_new, accel=accel, gyro=gyro, fixes=list(trace.fixes), nominal_rate=rate, meta=trace.meta)


@dataclass(frozen=True)
class GravityState:
    """Running low-pass gravity estimate g with smoothing factor alpha."""

    g: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))


def alpha_from_timeconstant(tau: float, dt: float) -> float:
    """Smoothing factor tau/(tau+dt) of the first-order low-pass."""
    if tau <= 0 or dt <= 0:
        raise ValueError("tau and dt must be positive")
    return tau / (tau + dt)


def update_gravity(state: GravityState, accel) -> tuple[GravityState, np.ndarray]:
    """One low-pass step: g' = a*g + (1-a)*accel, linear = accel - g'."""
    a = np.asarray(accel, dtype=float)
    g_new = state.alpha * state.g + (1.0 - state.alpha) * a
    return replace(state, g=g_new), a - g_new


def gravity_split(trace: Trace, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Run the gravity low-pass over a whole trace.

    Returns (gravity, linear), both (n, 3). Initialized at the first accel
    sample; alpha follows the per-step dt.
    """
    n = len(trace)
    gravity = np.empty((n, 3))
    gravity[0] = trace.accel[0]
    dts = np.diff(trace.t)
    for i in range(1, n):
        dt = max(float(dts[i - 1]), 1e-9)
        a = alpha_from_timeconstant(tau, dt)
        gravity[i] = a * gravity[i - 1] + (1.0 - a) * trace.accel[i]
    return gravity, trace.accel - gravity


def integrate_gyro(trace: Trace, axis: str, t0: float, t1: float) -> float:
    """Trapezoidal integral of one gyro axis over [t0, t1], in radians."""
    if trace.gyro is None:
        raise CapabilityError("trace has no gyroscope data")
    ax = {"x": 0, "y": 1, "z": 2}[axis]
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t0 == t1:
        return 0.0
    t0 = max(t0, float(trace.t[0]))
    t1 = min(t1, float(trace.t[-1]))
    inner = (trace.t > t0) & (trace.t < t1)
    ts = np.concatenate([[t0], trace.t[inner], [t1]])
    w = np.interp(ts, trace.t, trace.gyro[:, ax])
    return float(np.trapezoid(w, ts))


def _rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Proper rotation matrix taking unit vector u onto unit vector v."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    c = float(np.dot(u, v))
    axis = np.cross(u, v)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # antipodal: rotate pi about any axis orthogonal to u
        p = np.array([1.0, 0.0, 0.0])
        if abs(u[0]) > 0.9:
            p = np.array([0.0, 1.0, 0.0])
        axis = np.cross(u, p)
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis = axis / s
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    angle = math.atan2(s, c)
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


@dataclass(frozen=True)
class ReorientResult:
    trace: Trace
    rotation: np.ndarray  # (3,3), applied as v_vehicle = R @ v_device
    linear: np.ndarray  # (n, 3) m/s^2, vehicle-frame acceleration minus gravity
    forward_resolved: bool  # False: vertical-only reorientation


def reorient(trace: Trace, tau: float = 1.0, speed_threshold: float = 3.0) -> ReorientResult:
    """Rotate a trace into the vehicle frame and split off gravity.

    This is the one gravity split of an analysis: the result carries the
    split's linear acceleration rotated into the vehicle frame, which every
    road analysis takes as input. The time-averaged gravity estimate is
    mapped onto (0, 0, -g); the mean horizontal linear-acceleration direction
    during forward motion (speed > `speed_threshold` m/s) is mapped onto +x.
    Without motion epochs only the vertical alignment is applied and
    `forward_resolved` is False.
    """
    if trace.span < 2.0:
        raise TraceError("reorientation needs at least 2 s of data")
    gravity, linear = gravity_split(trace, tau=tau)
    g_mean = gravity.mean(axis=0)
    if np.linalg.norm(g_mean) < 1e-6:
        raise TraceError("degenerate gravity estimate")
    r_vert = _rotation_between(g_mean, np.array([0.0, 0.0, -1.0]))

    rotation = r_vert
    forward = False
    speeds = trace.speed_at(trace.t)
    moving = np.isfinite(speeds) & (speeds > speed_threshold)
    if np.any(moving):
        horiz = (r_vert @ linear[moving].T).T[:, :2]
        mean_h = horiz.mean(axis=0)
        if np.linalg.norm(mean_h) > 1e-3:
            yaw = math.atan2(mean_h[1], mean_h[0])
            cy, sy = math.cos(-yaw), math.sin(-yaw)
            r_yaw = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
            rotation = r_yaw @ r_vert
            forward = True

    accel = (rotation @ trace.accel.T).T
    gyro = (rotation @ trace.gyro.T).T if trace.gyro is not None else None
    out = Trace(
        t=trace.t.copy(), accel=accel, gyro=gyro, fixes=list(trace.fixes),
        nominal_rate=trace.nominal_rate, meta=trace.meta,
    )
    return ReorientResult(trace=out, rotation=rotation, linear=(rotation @ linear.T).T,
                          forward_resolved=forward)
