"""Railroad track geometry: cant, twist over base lengths, and curvature.

Cant is derived from the band-limited integral of the roll rate (gyro x),
which avoids the centrifugal contamination of the lateral-acceleration
path; curvature is yaw rate over speed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .reports import Indicator, clamp_severity
from .trace_model import CapabilityError, Trace, cumtrapz, positions_at, runs, sample_rate
from .transforms import swt_bandpass


class RailAnalysisError(Exception):
    pass


@dataclass(frozen=True)
class TrackConstants:
    gauge: float = 1435.0  # mm
    rail_center_width: float = 1500.0  # mm, 2*b0

    def __post_init__(self):
        if self.gauge <= 0 or self.rail_center_width <= 0:
            raise ValueError("track constants must be positive")


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


def cant_angle(h_t: float, consts: TrackConstants = TrackConstants()) -> float:
    """Cant angle asin(h_t / 2b0) from the rail elevation difference (mm)."""
    w = consts.rail_center_width
    if abs(h_t) > w:
        raise ValueError(f"|h_t| = {abs(h_t)} exceeds the rail center width {w}")
    return math.asin(h_t / w)


def cant_from_roll(trace: Trace, consts: TrackConstants = TrackConstants(),
                   wavelength_band: tuple[float, float] = (10.0, 200.0),
                   min_speed: float = 3.0,
                   ) -> tuple[GeometryProfile, list[tuple[float, float, str]]]:
    """Track geometry profile from a reoriented rail trace.

    Roll angle is the cumulative integral of the roll rate, band-limited by
    the SWT levels retaining the given track wavelengths (lambda = v/f); a
    span too short for any such level keeps its roll minus its mean. Spans
    with speed <= `min_speed` are excluded and returned with reasons.
    """
    if trace.gyro is None:
        raise CapabilityError("track geometry needs a gyroscope")
    speeds = trace.speed_at(trace.t)
    if not np.all(np.isfinite(speeds)):
        raise RailAnalysisError("track geometry needs GPS speed")
    rate = sample_rate(trace.t)
    s_along = cumtrapz(speeds, trace.t)

    valid = speeds > min_speed
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
        band = swt_bandpass(roll, rate, v_mean / wavelength_band[1], v_mean / wavelength_band[0])
        roll_band[i:j] = roll - np.mean(roll) if band is None else band
        keep[i:j] = True

    cant = roll_band[keep]
    lat, lon = positions_at(trace.fixes, trace.t[keep])
    profile = GeometryProfile(
        s=s_along[keep], cant_angle=cant, cant_height=consts.rail_center_width * np.sin(cant),
        curvature=trace.gyro[keep, 2] / speeds[keep], t=trace.t[keep], lat=lat, lon=lon,
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


def classify_curves(profile: GeometryProfile,
                    threshold: float = 1.0 / 5000.0) -> list[Indicator]:
    """Contiguous |curvature| > threshold runs, labeled by arc length:
    short (< 100 m), medium (100-500 m), long (> 500 m)."""
    kappa = np.abs(profile.curvature)
    hot = kappa > threshold
    out = []
    for i, j in runs(hot):
        if not hot[i]:
            continue
        arc = profile.s[j - 1] - profile.s[i]
        mean_kappa = float(np.mean(kappa[i:j]))
        sub = "short" if arc < 100.0 else ("medium" if arc <= 500.0 else "long")
        mid = (i + j - 1) // 2
        out.append(Indicator(
            kind="curvature", sub_kind=sub, lat=float(profile.lat[mid]),
            lon=float(profile.lon[mid]), t=float(profile.t[mid]),
            severity=clamp_severity(1e5 * mean_kappa), confidence=1.0,
            value=1.0 / mean_kappa, unit="m",
        ))
    return out


def geometry_to_csv(profile: GeometryProfile, path,
                    twist_bases: tuple[float, ...] = (3.0, 5.0)) -> None:
    """Profile CSV: s, cant_mm, one twist column per base, curvature.

    Points without a full base ahead get an empty twist cell."""
    columns = [profile.s.tolist(), profile.cant_height.tolist()]
    for base in twist_bases:
        try:
            values = twist(profile, base).tolist()
        except RailAnalysisError:
            values = []
        columns.append(values + [""] * (len(profile) - len(values)))
    columns.append(profile.curvature.tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "cant_mm", *[f"twist{base:g}" for base in twist_bases], "curvature"])
        w.writerows(zip(*columns))
