"""Trace data model: parsing, writing, and inertial preprocessing.

A :class:`Trace` bundles the inertial samples and GPS fixes of one ride.
Preprocessing covers gravity separation with a first-order low-pass and
reorientation of the device frame into a vehicle-aligned frame (z up
against gravity, x forward).

Frame convention: an aligned, stationary device reads accel = (0, 0, -9.81);
the gravity vector points along -z.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

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
    drops: dict  # rows dropped per reason: "required_nonfinite", "invalid_fix"


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
    """Measured sample rate: one over the median sample interval, in Hz.

    Raises TraceError when that interval is 0, i.e. when most samples share
    their timestamp with a neighbour.
    """
    dt = float(np.median(np.diff(t)))
    if dt == 0.0:
        raise TraceError("median sample interval is 0: most samples repeat a timestamp")
    return 1.0 / dt


def sampling_gaps(t) -> dict:
    """Sample intervals longer than 1.5 times the median one: how many, and
    their summed length in seconds."""
    dt = np.diff(t)
    long = dt[dt > 1.5 * np.median(dt)]
    return {"count": len(long), "total_s": float(np.sum(long))}


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


def _cell_value(raw) -> float:
    """One cell as a float: NaN when it is absent, empty or unparsable."""
    if raw == "" or raw is None:
        return math.nan
    try:
        return float(raw.strip() if isinstance(raw, str) else raw)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON int past 1.8e308
        return math.nan


def _column(cells, n: int) -> np.ndarray:
    """One column of cells as floats, NaN where a cell is absent, empty or
    unparsable.

    `float` strips the whitespace a number is padded with, so its values
    equal `_cell_value`'s; a column with any cell it rejects is converted
    again cell by cell.
    """
    try:
        return np.fromiter(map(float, cells), float, n)
    except (TypeError, ValueError, OverflowError):
        return np.fromiter(map(_cell_value, cells), float, n)


def _columns_to_trace(cols: dict, n: int, meta: str) -> tuple[Trace, ParseReport]:
    """Apply the row rules to the raw cells of `n` rows, one column at a time.

    `cols` maps each schema column present in the input to its n cells.
    A row is dropped when a required value is non-finite, or when all four
    geo values are finite but fail `GeoFix` validation. A kept row carries a
    fix only when all four geo values are finite; the trace has a gyro only
    when every kept row has all three gyro values.
    """
    nan = np.full(n, math.nan)
    v = {k: _column(cols[k], n) if k in cols else nan for k in CSV_COLUMNS}
    t = v["t"]
    accel = np.column_stack([v["ax"], v["ay"], v["az"]])
    gyro = np.column_stack([v["gx"], v["gy"], v["gz"]])
    geo = np.column_stack([t, v["lat"], v["lon"], v["speed"], v["acc"]])
    lat, lon, speed, acc = geo[:, 1:].T

    required = np.isfinite(t) & np.isfinite(accel).all(axis=1)
    has_fix = np.isfinite(geo[:, 1:]).all(axis=1)
    valid_fix = (np.abs(lat) <= 90) & (np.abs(lon) <= 180) & (speed >= 0) & (acc > 0)
    invalid_fix = required & has_fix & ~valid_fix
    kept = np.flatnonzero(required & ~invalid_fix)
    if len(kept) < 2:
        raise EmptyTraceError(f"only {len(kept)} usable samples (need >= 2)")

    reorders = int(np.count_nonzero(np.diff(t[kept]) < 0))
    kept = kept[np.argsort(t[kept], kind="stable")]
    gyro = gyro[kept] if np.isfinite(gyro[kept]).all() else None
    fixes = [GeoFix(*row) for row in geo[kept[has_fix[kept]]].tolist()]
    trace = Trace(t=t[kept], accel=accel[kept], gyro=gyro, fixes=fixes,
                  nominal_rate=sample_rate(t[kept]), meta=meta)
    drops = {"required_nonfinite": n - int(np.count_nonzero(required)),
             "invalid_fix": int(np.count_nonzero(invalid_fix))}
    return trace, ParseReport(rows_read=n, rows_dropped=n - len(kept), reorders=reorders,
                              drops=drops)


def parse_trace(path, format: str = "csv") -> tuple[Trace, ParseReport]:
    """Parse a recording into a Trace.

    CSV needs the header ``t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc``; JSONL is
    one object per line with the same keys. Gyro and geo cells may be empty
    per row. An empty or unparsable cell counts as missing. Rows with
    non-finite required values or an invalid fix are dropped and counted by
    reason in the report. CSV rows are read as `csv.DictReader` reads them:
    blank lines are skipped, short rows padded with missing cells and the
    cells past the header ignored.
    """
    path = str(path)
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in _REQUIRED if c not in header]
            if missing:
                raise SchemaError(f"missing required columns: {missing}")
            rows = [row for row in reader if row]
        # a header name repeated: the last of its columns counts, as in DictReader
        index = {name: i for i, name in enumerate(header)}
        # transposed, short rows padded with None; a column no row reaches is all None
        cells = list(itertools.zip_longest(*rows))
        cols = {k: cells[j] if j < len(cells) else [None] * len(rows)
                for k, j in index.items() if k in CSV_COLUMNS}
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
        cols = {k: [obj.get(k) for obj in rows] for k in CSV_COLUMNS}
    else:
        raise ValueError(f"unknown format {format!r}")
    return _columns_to_trace(cols, len(rows), meta=path)


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


# A scan block ends after this many steps, or sooner where its running
# product of alphas would fall below exp(-_SCAN_DEPTH): that keeps the
# product far above underflow (a fixed 256-step block underflows to NaN at
# dt = 20 s with tau = 1 s) and the rescaled inputs far below overflow.
_SCAN_BLOCK = 1024
_SCAN_DEPTH = 300.0


def gravity_split(trace: Trace, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Run the gravity low-pass over a whole trace.

    Returns (gravity, linear), both (n, 3). The low-pass is
    g_i = a_i * g_(i-1) + (1 - a_i) * accel_i, initialized at the first
    accel sample, with a_i = tau / (tau + dt_i) following each step's dt
    (clamped to 1e-9 s). The recurrence is solved as a blocked prefix scan
    (Blelloch 1990): within a block, g_k = P_k * (g_start + cumsum((1-a)x/P)_k)
    with P the cumulative product of a, and the last g carries into the
    next block.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    accel = trace.accel
    alpha = tau / (tau + np.maximum(np.diff(trace.t), 1e-9))
    inputs = (1.0 - alpha)[:, None] * accel[1:]
    depth = -np.cumsum(np.log(alpha))  # -log of the product of alpha from step 0
    gravity = np.empty_like(accel)
    gravity[0] = g = accel[0]
    start, steps = 0, len(alpha)
    while start < steps:
        base = depth[start - 1] if start else 0.0
        stop = min(start + _SCAN_BLOCK, int(np.searchsorted(depth, base + _SCAN_DEPTH, "right")))
        stop = max(stop, start + 1)
        prod = np.cumprod(alpha[start:stop])[:, None]
        block = prod * (g + np.cumsum(inputs[start:stop] / prod, axis=0))
        gravity[start + 1:stop + 1] = block
        g = block[-1]
        start = stop
    return gravity, accel - gravity


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
