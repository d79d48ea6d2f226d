"""Road services: point-anomaly detection, maneuver classification,
IRI-style roughness, and a quarter-car simulator used as a synthetic oracle.

Traces are expected in the vehicle frame (see trace_model.reorient):
z up against gravity, x forward, so the vertical channel is index 2 and
yaw rate is gyro z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .reports import Indicator, clamp_severity
from .trace_model import CapabilityError, Trace, cumtrapz, positions_at, runs, sample_rate
from .transforms import swt_bandpass

DEFAULT_DETECTOR_FEATURES = ("peak2peak", "kurt", "rms")


class RoadAnalysisError(Exception):
    pass


class StepInstabilityError(RoadAnalysisError):
    """Quarter-car integration diverged; decrease the step size."""


@dataclass(frozen=True)
class AnomalyResult:
    indicators: list[Indicator]
    degenerate: bool  # some feature column had zero dispersion


def robust_z(column: np.ndarray) -> tuple[np.ndarray, bool]:
    """(x - median) / (1.4826 * MAD); zero with a flag when MAD is 0."""
    med = np.median(column)
    mad = np.median(np.abs(column - med))
    if mad == 0.0:
        return np.zeros_like(column), True
    return (column - med) / (1.4826 * mad), False


def detect_anomalies(matrix: FeatureMatrix, fixes, k: float = 3.0,
                     feature_subset=DEFAULT_DETECTOR_FEATURES) -> AnomalyResult:
    """Unsupervised point-anomaly detection on a feature matrix.

    A window is anomalous when the mean robust z-score over the feature
    subset exceeds `k`; contiguous anomalous windows merge into a single
    indicator placed at the peak-score window.
    """
    if matrix.n_windows < 8:
        raise RoadAnalysisError("need at least 8 windows")
    missing = [f for f in feature_subset if f not in matrix.names]
    if missing:
        raise RoadAnalysisError(f"matrix lacks features: {missing}")

    zs = []
    degenerate = False
    for name in feature_subset:
        z, flat = robust_z(matrix.column(name))
        degenerate = degenerate or flat
        zs.append(z)
    score = np.mean(zs, axis=0)
    hot = score > k

    peaks = [i + int(np.argmax(score[i:j])) for i, j in runs(hot) if hot[i]]
    t_mid = 0.5 * (matrix.t_start[peaks] + matrix.t_end[peaks])
    lats, lons = positions_at(fixes, t_mid)
    indicators = []
    for peak, t, lat, lon in zip(peaks, t_mid.tolist(), lats.tolist(), lons.tolist()):
        s = float(score[peak])
        indicators.append(Indicator(
            kind="anomaly", sub_kind="point",
            lat=lat, lon=lon, t=t,
            severity=clamp_severity(16.0 * s),
            confidence=min(1.0, s / (2.0 * k)),
            value=s, unit="score",
        ))
    return AnomalyResult(indicators=indicators, degenerate=degenerate)


def _lobes(omega: np.ndarray, dead: float) -> list[int]:
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


def classify_maneuvers(trace: Trace, linear: np.ndarray, omega_on: float = 0.06,
                       omega_off: float = 0.03, min_duration: float = 0.3,
                       min_gap: float = 0.5) -> list[Indicator]:
    """Detect yaw-rate events with hysteresis and classify them.

    `linear` is the trace's (n, 3) linear acceleration in the vehicle frame
    (see ``ReorientResult.linear``); its y column gives the lateral peak.

    An event opens when |yaw rate| exceeds `omega_on` and closes once it
    stays below `omega_off` for `min_gap` seconds (so multi-lobe maneuvers
    that cross zero remain one event). turn: single lobe, |net angle| in
    [60, 150) deg; u_turn: >= 150 deg; lane_change / swerve: two opposite
    lobes with near-zero net angle, split on peak lateral acceleration;
    curvy_segment: >= 3 alternating lobes; anything else is `other`.
    """
    if trace.gyro is None:
        raise CapabilityError("maneuver classification needs a gyroscope")
    wz = trace.gyro[:, 2]
    t = trace.t

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

    out = []
    for i0, i1 in events:
        seg_w = wz[i0:i1 + 1]
        seg_t = t[i0:i1 + 1]
        dpsi = float(np.trapezoid(seg_w, seg_t))
        deg = abs(math.degrees(dpsi))
        duration = float(seg_t[-1] - seg_t[0])
        lobes = _lobes(seg_w, dead=omega_off)
        lat_peak = float(np.max(np.abs(linear[i0:i1 + 1, 1])))

        if deg >= 150.0:
            sub = "u_turn"
        elif len(lobes) == 1 and 60.0 <= deg < 150.0:
            sub = "turn"
        elif len(lobes) == 2 and lobes[0] != lobes[1] and deg < 15.0 and lat_peak > 2.0:
            sub = "swerve"
        elif len(lobes) == 2 and lobes[0] != lobes[1] and deg < 15.0 and duration < 6.0:
            sub = "lane_change"
        elif len(lobes) >= 3:
            sub = "curvy_segment"
        else:
            sub = "other"

        t_mid = 0.5 * (seg_t[0] + seg_t[-1])
        lat, lon = positions_at(trace.fixes, t_mid)
        out.append(Indicator(
            kind="maneuver", sub_kind=sub, lat=float(lat[0]), lon=float(lon[0]),
            t=float(t_mid), severity=clamp_severity(deg), confidence=1.0,
            value=dpsi, unit="rad",
        ))
    return out


@dataclass(frozen=True)
class RoughnessReport:
    segment_length: float  # m
    index: float  # m/km
    band: tuple[float, float]  # wavelength interval, m
    mean_speed: float  # m/s
    s_start: float = 0.0  # m along the ride


def detrend_linear(x: np.ndarray) -> np.ndarray:
    """x minus its least-squares line against the sample index (needs len >= 2)."""
    k = np.arange(len(x)) - 0.5 * (len(x) - 1)  # centred, so k is orthogonal to the offset
    centred = x - np.mean(x)
    return centred - (k @ centred) / (k @ k) * k


def roughness_index(trace: Trace, linear: np.ndarray, band: tuple[float, float] = (0.5, 50.0),
                    segment_length: float = 100.0,
                    min_speed: float = 2.0) -> tuple[list[RoughnessReport], list[tuple[int, str]]]:
    """IRI-style roughness per travelled-distance segment.

    `linear` is the trace's (n, 3) linear acceleration in the vehicle frame
    (see ``ReorientResult.linear``). Per segment: SWT levels whose frequency
    band maps into the wavelength band (lambda = v/f) reconstruct the
    band-limited vertical acceleration, which is double-integrated (linear
    detrend after each pass); the index is the rectified elevation increment
    sum per length, in m/km.
    """
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    speeds = trace.speed_at(trace.t)
    if not np.all(np.isfinite(speeds)):
        raise RoadAnalysisError("roughness needs GPS speed")
    rate = sample_rate(trace.t)
    az = linear[:, 2]
    s = cumtrapz(speeds, trace.t)

    reports = []
    skipped = []
    n_segments = int(s[-1] // segment_length)
    for seg in range(n_segments):
        s0, s1 = seg * segment_length, (seg + 1) * segment_length
        mask = (s >= s0) & (s < s1)
        idx = np.where(mask)[0]
        if len(idx) < 16:
            skipped.append((seg, "too_few_samples"))
            continue
        v_mean = float(np.mean(speeds[idx]))
        if v_mean <= min_speed:
            skipped.append((seg, "low_speed"))
            continue
        # frequency band of the requested wavelength band at this speed
        f_lo, f_hi = v_mean / band[1], v_mean / band[0]
        a_band = swt_bandpass(az[idx], rate, f_lo, f_hi)
        if a_band is None:
            skipped.append((seg, "band_unresolvable"))
            continue
        t_seg = trace.t[idx]
        vel = detrend_linear(cumtrapz(a_band, t_seg))
        elev = detrend_linear(cumtrapz(vel, t_seg))
        length = float(s[idx[-1]] - s[idx[0]])
        index = float(np.sum(np.abs(np.diff(elev))) / length) * 1000.0
        reports.append(RoughnessReport(
            segment_length=segment_length, index=index, band=band,
            mean_speed=v_mean, s_start=s0,
        ))
    return reports, skipped


@dataclass(frozen=True)
class QuarterCar:
    """2-DOF quarter-car parameters normalized per sprung mass.

    Defaults are the conventional golden-car set used for roughness work.
    """

    suspension_stiffness: float = 63.3  # 1/s^2
    tire_stiffness: float = 653.0  # 1/s^2
    damping: float = 6.0  # 1/s
    mass_ratio: float = 0.15  # unsprung / sprung

    def __post_init__(self):
        if min(self.suspension_stiffness, self.tire_stiffness, self.mass_ratio) <= 0 or self.damping < 0:
            raise ValueError("quarter-car parameters must be positive (damping >= 0)")


def quarter_car_states(profile_fn, duration: float, params: QuarterCar, rate: float,
                       init=(0.0, 0.0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of the quarter-car equations.

    Returns (states, sprung_accel) with states rows (zs, vs, zu, vu).
    `profile_fn(t)` is the road elevation under the tire at time t.
    """
    ks, kt = params.suspension_stiffness, params.tire_stiffness
    c, mu = params.damping, params.mass_ratio

    def deriv(t, y):
        zs, vs, zu, vu = y
        road = profile_fn(t)
        a_s = -ks * (zs - zu) - c * (vs - vu)
        a_u = (ks * (zs - zu) + c * (vs - vu) - kt * (zu - road)) / mu
        return np.array([vs, a_s, vu, a_u])

    dt = 1.0 / rate
    n = int(round(duration * rate)) + 1
    states = np.empty((n, 4))
    states[0] = init
    for i in range(1, n):
        t0 = (i - 1) * dt
        y = states[i - 1]
        k1 = deriv(t0, y)
        k2 = deriv(t0 + dt / 2, y + dt / 2 * k1)
        k3 = deriv(t0 + dt / 2, y + dt / 2 * k2)
        k4 = deriv(t0 + dt, y + dt * k3)
        states[i] = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    accel = -ks * (states[:, 0] - states[:, 2]) - c * (states[:, 1] - states[:, 3])
    return states, accel


def simulate_quarter_car(profile, spacing: float, speed: float,
                         params: QuarterCar = QuarterCar(), rate: float = 100.0) -> np.ndarray:
    """Sprung-mass acceleration of a quarter car driven over `profile`.

    `profile` is elevation (m) on a uniform distance grid with `spacing`
    meters between points; the vehicle traverses it at constant `speed`.
    """
    y = np.asarray(profile, dtype=float)
    if speed <= 0 or rate <= 0 or spacing <= 0:
        raise ValueError("speed, rate and spacing must be positive")
    s_grid = np.arange(len(y)) * spacing
    duration = s_grid[-1] / speed

    def road(t):
        return float(np.interp(speed * t, s_grid, y))

    states, accel = quarter_car_states(road, duration, params, rate)
    amp_in = float(np.max(np.abs(y)))
    if amp_in > 0 and float(np.max(np.abs(states[:, 0]))) > 10.0 * amp_in:
        raise StepInstabilityError("response grew beyond 10x the input; increase `rate`")
    return accel
