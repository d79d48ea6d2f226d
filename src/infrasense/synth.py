"""Seeded synthetic trace generation backed by the quarter-car simulator.

A SynthSpec describes a road (sinusoid set plus pothole/bump pulses), a
constant travel speed, and sensor noise; identical specs produce identical
traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .reports import EARTH_RADIUS
from .road_analysis import QuarterCar, simulate_quarter_car
from .trace_model import GRAVITY, Fixes, Trace

PROFILE_SPACING = 0.05  # m
METERS_PER_DEG_LAT = math.pi / 180.0 * EARTH_RADIUS


@dataclass(frozen=True)
class Sinusoid:
    amplitude_m: float
    wavelength_m: float


@dataclass(frozen=True)
class Pothole:
    position_m: float
    depth_m: float  # positive = dip
    length_m: float


@dataclass(frozen=True)
class SynthSpec:
    duration: float  # s
    rate: float = 100.0  # Hz
    speed: float = 10.0  # m/s
    seed: int = 0
    noise_sigma: float = 0.0  # m/s^2 on each accel axis
    gyro_noise_sigma: float = 0.0  # rad/s
    sinusoids: tuple[Sinusoid, ...] = ()
    potholes: tuple[Pothole, ...] = ()
    lat0: float = 51.0
    lon0: float = 7.0
    heading_deg: float = 0.0  # 0 = north
    with_gyro: bool = True
    fix_interval: float = 1.0  # s
    quarter_car: QuarterCar = field(default_factory=QuarterCar)

    def __post_init__(self):
        for name in ("duration", "rate", "speed", "fix_interval"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        with open(path) as fh:
            data = json.load(fh)
        data["sinusoids"] = tuple(Sinusoid(**s) for s in data.get("sinusoids", []))
        data["potholes"] = tuple(Pothole(**p) for p in data.get("potholes", []))
        if "quarter_car" in data:
            data["quarter_car"] = QuarterCar(**data["quarter_car"])
        return cls(**data)


def road_profile(spec: SynthSpec) -> np.ndarray:
    """Elevation (m) on a PROFILE_SPACING grid covering the whole ride."""
    length = spec.speed * spec.duration + PROFILE_SPACING
    s = np.arange(0.0, length + PROFILE_SPACING, PROFILE_SPACING)
    y = np.zeros_like(s)
    for sin in spec.sinusoids:
        y += sin.amplitude_m * np.sin(2 * np.pi * s / sin.wavelength_m)
    for p in spec.potholes:
        mask = (s >= p.position_m) & (s < p.position_m + p.length_m)
        y[mask] -= p.depth_m
    return y


def generate_trace(spec: SynthSpec) -> Trace:
    """Deterministic synthetic trace: quarter-car vertical response plus
    seeded sensor noise, straight-line GPS fixes at `fix_interval`."""
    rng = np.random.default_rng(spec.seed)
    profile = road_profile(spec)
    accel_qc = simulate_quarter_car(profile, PROFILE_SPACING, spec.speed,
                                    spec.quarter_car, spec.rate)
    n = int(round(spec.duration * spec.rate)) + 1
    accel_qc = accel_qc[:n]
    if len(accel_qc) < n:
        accel_qc = np.pad(accel_qc, (0, n - len(accel_qc)))
    t = np.arange(n) / spec.rate

    accel = rng.normal(0.0, spec.noise_sigma, size=(n, 3)) if spec.noise_sigma > 0 else np.zeros((n, 3))
    accel[:, 2] += -GRAVITY + accel_qc
    gyro = None
    if spec.with_gyro:
        gyro = rng.normal(0.0, spec.gyro_noise_sigma, size=(n, 3)) if spec.gyro_noise_sigma > 0 else np.zeros((n, 3))

    heading = math.radians(spec.heading_deg)
    # fix times as a running sum of fix_interval (cumsum adds in order), up to the end
    steps = np.full(int(spec.duration / spec.fix_interval) + 2, float(spec.fix_interval))
    ft = np.cumsum(np.concatenate([[0.0], steps]))
    ft = ft[ft <= spec.duration + 1e-9]
    dist = spec.speed * ft
    lat = spec.lat0 + dist * math.cos(heading) / METERS_PER_DEG_LAT
    lon = spec.lon0 + dist * math.sin(heading) / (
        METERS_PER_DEG_LAT * math.cos(math.radians(spec.lat0)))
    fixes = Fixes(t=ft, lat=lat, lon=lon, speed=np.full_like(ft, spec.speed),
                  accuracy=np.full_like(ft, 5.0))
    return Trace(t=t, accel=accel, gyro=gyro, fixes=fixes)


def pothole_positions(spec: SynthSpec) -> list[tuple[float, float, float]]:
    """(s, lat, lon) ground truth of each pothole center."""
    heading = math.radians(spec.heading_deg)
    out = []
    for p in spec.potholes:
        s_mid = p.position_m + p.length_m / 2.0
        lat = spec.lat0 + s_mid * math.cos(heading) / METERS_PER_DEG_LAT
        lon = spec.lon0 + s_mid * math.sin(heading) / (
            METERS_PER_DEG_LAT * math.cos(math.radians(spec.lat0)))
        out.append((s_mid, lat, lon))
    return out
