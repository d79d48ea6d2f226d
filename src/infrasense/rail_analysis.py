"""Railroad track geometry: cant, twist over base lengths, and curvature.

Cant is derived from the band-limited integral of the roll rate (gyro x),
which avoids the centrifugal contamination of the lateral-acceleration
path; curvature is yaw rate over speed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .reports import Indicator, clamp_severity
from .trace_model import CapabilityError, Trace, along_track, cumtrapz, runs, write_rows
from .transforms import swt_bandpass

RAIL_CENTER_WIDTH = 1500.0  # mm, 2*b0: the distance between the rail centres
CANT_MIN_SPEED = 3.0  # m/s; spans no faster give no geometry


class RailAnalysisError(Exception):
    pass


@dataclass(frozen=True)
class GeometryProfile:
    """Track geometry as columns, one row per retained sample."""

    s: np.ndarray  # m along track
    cant_angle: np.ndarray  # rad
    cant_height: np.ndarray  # mm
    curvature: np.ndarray  # 1/m
    t: np.ndarray  # s
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def cant_angle(h_t: float) -> float:
    """Cant angle asin(h_t / 2b0) from the rail elevation difference (mm)."""
    if abs(h_t) > RAIL_CENTER_WIDTH:
        raise ValueError(f"|h_t| = {abs(h_t)} exceeds the rail center width {RAIL_CENTER_WIDTH}")
    return math.asin(h_t / RAIL_CENTER_WIDTH)


def cant_from_roll(trace: Trace, wavelength_band: tuple[float, float] = (10.0, 200.0),
                   ) -> tuple[GeometryProfile, list[tuple[float, float, str]]]:
    """Track geometry profile from a reoriented rail trace.

    Roll angle is the cumulative integral of the roll rate, band-limited by
    the SWT levels retaining the given track wavelengths (lambda = v/f); a
    span too short for any such level keeps its roll minus its mean. Spans
    with speed <= CANT_MIN_SPEED are excluded and returned with reasons. A
    trace without a gyro or without GPS fixes raises CapabilityError.
    """
    if trace.gyro is None:
        raise CapabilityError("track geometry needs a gyroscope")
    speeds, s_along = along_track(trace, "track geometry")

    valid = speeds > CANT_MIN_SPEED
    keep = np.zeros(len(trace), dtype=bool)
    roll_band = np.zeros(len(trace))
    skipped: list[tuple[float, float, str]] = []
    for i, j in runs(valid):
        if not valid[i] or j - i < 16:
            reason = "too_short" if valid[i] else "low_speed"
            skipped.append((float(trace.t[i]), float(trace.t[j - 1]), reason))
            continue
        t_seg = trace.t[i:j]
        v_mean = float(np.mean(speeds[i:j]))
        roll = cumtrapz(trace.gyro[i:j, 0], t_seg)
        band = swt_bandpass(roll, trace.rate, v_mean / wavelength_band[1], v_mean / wavelength_band[0])
        roll_band[i:j] = roll - np.mean(roll) if band is None else band
        keep[i:j] = True

    cant = roll_band[keep]
    t_kept = trace.t[keep]
    profile = GeometryProfile(
        s=s_along[keep], cant_angle=cant, cant_height=RAIL_CENTER_WIDTH * np.sin(cant),
        curvature=trace.gyro[keep, 2] / speeds[keep], t=t_kept,
        lat=trace.fixes.interp("lat", t_kept), lon=trace.fixes.interp("lon", t_kept),
    )
    return profile, skipped


def twist(profile: GeometryProfile, base: float) -> np.ndarray:
    """Cant gradient (mm/m) over the given base length.

    One value per point with a full base ahead of it: these are the first
    ``len(result)`` points of the profile.
    """
    if base <= 0:
        raise ValueError("base must be positive")
    s, cant = profile.s, profile.cant_height
    if len(s) == 0:
        return np.empty(0)
    if s[-1] - s[0] < base:
        raise RailAnalysisError(f"profile shorter than base {base} m")
    m = int(np.count_nonzero(s + base <= s[-1]))
    return (np.interp(s[:m] + base, s, cant) - cant[:m]) / base


# Curve detection, in metres of track: the signed curvature is averaged over
# a centred window, runs closer than the gap merge, and shorter arcs drop.
CURVE_WINDOW = 20.0
CURVE_GAP = 20.0
CURVE_MIN_ARC = 20.0


def curve_runs(s: np.ndarray, smooth: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """(start, stop) of each curve run of a smoothed curvature profile.

    A run is a maximal stretch with |smooth| >= threshold/2 that holds a
    sample above `threshold`; runs less than CURVE_GAP apart merge, and
    merged runs with an arc under CURVE_MIN_ARC drop. `stop` is exclusive.
    """
    level = np.abs(smooth)
    spans = np.array([(i, j) for i, j in runs(level >= threshold / 2)
                      if np.any(level[i:j] > threshold)], dtype=int).reshape(-1, 2)
    if len(spans) == 0:
        return []
    apart = s[spans[1:, 0]] - s[spans[:-1, 1] - 1] >= CURVE_GAP
    starts = spans[np.concatenate([[True], apart]), 0]
    stops = spans[np.concatenate([apart, [True]]), 1]
    long_enough = s[stops - 1] - s[starts] >= CURVE_MIN_ARC
    return list(zip(starts[long_enough].tolist(), stops[long_enough].tolist()))


def classify_curves(profile: GeometryProfile,
                    threshold: float = 1.0 / 5000.0) -> list[Indicator]:
    """Curves of the track, labeled by arc length: short (< 100 m), medium
    (100-500 m), long (> 500 m).

    The signed curvature is averaged over CURVE_WINDOW m of track centred on
    each sample (the window is clipped at the profile ends), which keeps a
    reverse curve one run and cuts gyro noise by the root of the samples in
    the window. Runs follow `curve_runs`: on above `threshold`, off below
    half of it. The radius is 1 / mean raw |curvature| over the run's samples
    above `threshold`, so it is exact on noise-free input.
    """
    s, kappa = profile.s, profile.curvature
    if len(s) == 0:
        return []
    area = cumtrapz(kappa, s)
    lo = np.maximum(s - CURVE_WINDOW / 2, s[0])
    hi = np.minimum(s + CURVE_WINDOW / 2, s[-1])
    width = hi - lo
    smooth = np.divide(np.interp(hi, s, area) - np.interp(lo, s, area), width,
                       out=kappa.copy(), where=width > 0)
    out = []
    for i, j in curve_runs(s, smooth, threshold):
        raw = np.abs(kappa[i:j])
        above = raw[raw > threshold]
        # a run's smoothed peak can come from raw samples just outside it
        mean_kappa = float(np.mean(above if len(above) else np.abs(smooth[i:j])))
        arc = s[j - 1] - s[i]
        sub = "short" if arc < 100.0 else ("medium" if arc <= 500.0 else "long")
        mid = (i + j - 1) // 2
        out.append(Indicator(
            kind="curvature", sub_kind=sub, lat=float(profile.lat[mid]),
            lon=float(profile.lon[mid]), t=float(profile.t[mid]),
            severity=clamp_severity(1e5 * mean_kappa), confidence=1.0,
            value=1.0 / mean_kappa, unit="m",
        ))
    return out


# Decimal places of each geometry.csv column, at what the sensors resolve:
# s to 1 mm (GPS speed resolves it to about a metre), cant to 0.1 um,
# twist to 1e-7 mm/m and curvature to 1e-8 1/m, four orders of magnitude
# below the per-sample gyro-z noise over speed.
S_DECIMALS = 3
CANT_DECIMALS = 4
TWIST_DECIMALS = 7
CURVATURE_DECIMALS = 8


def twist_column(base: float) -> str:
    """Name of the geometry.csv column of twist over `base` m."""
    return f"twist{base:g}"


def geometry_columns(profile: GeometryProfile,
                     twist_bases: tuple[float, ...]) -> list[tuple[str, np.ndarray, int]]:
    """The columns of geometry.csv as (name, values, decimal places).

    Every column is rounded to its decimal places. Each twist is computed
    from the rounded s and cant, so that it can be recomputed from the file
    itself, and holds one value per point with a full base ahead (none when
    the profile is shorter than the base).
    """
    s = np.round(profile.s, S_DECIMALS)
    cant = np.round(profile.cant_height, CANT_DECIMALS)
    rounded = replace(profile, s=s, cant_height=cant)
    columns = [("s", s, S_DECIMALS), ("cant_mm", cant, CANT_DECIMALS)]
    for base in twist_bases:
        try:
            values = np.round(twist(rounded, base), TWIST_DECIMALS)
        except RailAnalysisError:
            values = np.empty(0)
        columns.append((twist_column(base), values, TWIST_DECIMALS))
    columns.append(("curvature", np.round(profile.curvature, CURVATURE_DECIMALS),
                    CURVATURE_DECIMALS))
    return columns


def geometry_to_csv(profile: GeometryProfile, path,
                    twist_bases: tuple[float, ...] = (3.0, 5.0)) -> None:
    """Profile CSV: s, cant_mm, one twist column per base, curvature.

    Cells are the `geometry_columns`, written with their decimal places
    (``"%.3f"`` and so on), so each parses back to exactly the rounded
    value. Points without a full base ahead get an empty twist cell. Rows
    are written in blocks (`write_rows`); a row with every cell is
    formatted with one ``%``, the rows past a short twist column cell by
    cell."""
    columns = geometry_columns(profile, twist_bases)
    formats = [f"%.{decimals}f" for _, _, decimals in columns]
    row_format = ",".join(formats).__mod__
    full = min(len(values) for _, values, _ in columns)  # rows with every cell

    def block_rows(start, stop):
        cut = min(max(start, full), stop)
        rows = map(row_format, zip(*(values[start:cut].tolist() for _, values, _ in columns)))
        tail = []
        for (_, values, _), fmt in zip(columns, formats):
            cells = list(map(fmt.__mod__, values[cut:stop].tolist()))
            tail.append(cells + [""] * (stop - cut - len(cells)))  # a short twist column
        return itertools.chain(rows, map(",".join, zip(*tail)))

    header = ",".join(name for name, _, _ in columns)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        write_rows(fh, len(profile), block_rows)
