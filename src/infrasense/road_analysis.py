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
from .trace_model import CapabilityError, Fixes, Trace, along_track, cumtrapz, median, runs
from .transforms import swt_bandpass

DEFAULT_DETECTOR_FEATURES = ("peak2peak", "kurt", "rms")
MIN_WINDOWS = 8  # feature windows the anomaly detector needs
# Maneuver events, in seconds: yaw-rate samples less than MANEUVER_GAP apart
# join one event, and events shorter than MANEUVER_MIN_DURATION drop.
MANEUVER_MIN_DURATION = 0.3
MANEUVER_GAP = 0.5
ROUGHNESS_MIN_SPEED = 2.0  # m/s; a segment driven no faster gets no index


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
    med = median(column)
    mad = median(np.abs(column - med))
    if mad == 0.0:
        return np.zeros_like(column), True
    return (column - med) / (1.4826 * mad), False


def detect_anomalies(matrix: FeatureMatrix, fixes: Fixes, k: float = 3.0,
                     feature_subset=DEFAULT_DETECTOR_FEATURES) -> AnomalyResult:
    """Unsupervised point-anomaly detection on a feature matrix.

    A window is anomalous when the mean robust z-score over the feature
    subset exceeds `k`; contiguous anomalous windows merge into a single
    indicator placed at the peak-score window.
    """
    if matrix.n_windows < MIN_WINDOWS:
        raise RoadAnalysisError(f"need at least {MIN_WINDOWS} windows")
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
    lats, lons = fixes.interp("lat", t_mid), fixes.interp("lon", t_mid)
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


def yaw_events(t: np.ndarray, wz: np.ndarray, omega_on: float,
               omega_off: float) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each yaw-rate event (needs omega_off <= omega_on).

    Samples with |wz| >= `omega_off` are hot. A hot sample opens a group when
    a (cold) sample before it lies MANEUVER_GAP or more after the previous hot
    one. An event runs from its group's first sample above `omega_on` to its
    last hot sample, and lasts MANEUVER_MIN_DURATION or more."""
    level = np.abs(wz)
    hot = np.flatnonzero(level >= omega_off)
    new = np.ones(len(hot) + 1, dtype=bool)  # new[k]: hot[k] opens a group
    new[1:-1] = t[hot[1:] - 1] - t[hot[:-1]] >= MANEUVER_GAP  # 0 for neighbouring hot samples
    on = np.append(np.flatnonzero(level > omega_on), len(wz))  # and a stop past the end
    first, last = on[np.searchsorted(on, hot[new[:-1]])], hot[new[1:]]
    found = first <= last
    first, last = first[found], last[found]
    keep = t[last] - t[first] >= MANEUVER_MIN_DURATION
    return first[keep], last[keep]


def lobe_signs(omega: np.ndarray, dead: float) -> np.ndarray:
    """Signs of the successive lobes of a yaw-rate event: the first sign of
    each run of signs of the samples with |omega| >= `dead` (0 counts as -1)."""
    signs = np.where(omega > 0, 1, -1)[np.abs(omega) >= dead]
    return signs[np.diff(signs, prepend=0) != 0]


def classify_maneuvers(trace: Trace, linear: np.ndarray, omega_on: float = 0.06,
                       omega_off: float = 0.03) -> list[Indicator]:
    """Detect yaw-rate events with hysteresis and classify them.

    `linear` is the trace's (n, 3) linear acceleration in the vehicle frame
    (see ``ReorientResult.linear``); its y column gives the lateral peak.

    An event opens when |yaw rate| exceeds `omega_on` and closes once it
    stays below `omega_off` for MANEUVER_GAP seconds, so multi-lobe maneuvers
    that cross zero remain one event (`yaw_events`). turn: single lobe, |net
    angle| in [60, 150) deg; u_turn: >= 150 deg; lane_change / swerve: two
    (opposite) lobes with near-zero net angle, split on peak lateral
    acceleration; curvy_segment: >= 3 lobes; anything else is `other`.
    """
    if not omega_off <= omega_on:
        raise ValueError(f"omega_off {omega_off} must not exceed omega_on {omega_on}")
    if trace.gyro is None:
        raise CapabilityError("maneuver classification needs a gyroscope")
    wz = trace.gyro[:, 2]
    t = trace.t
    first, last = yaw_events(t, wz, omega_on, omega_off)

    t_mid = 0.5 * (t[first] + t[last])
    lats, lons = trace.fixes.interp("lat", t_mid), trace.fixes.interp("lon", t_mid)
    out = []
    for i0, i1, tm, lat, lon in zip(first.tolist(), last.tolist(), t_mid.tolist(),
                                    lats.tolist(), lons.tolist()):
        seg_w = wz[i0:i1 + 1]
        seg_t = t[i0:i1 + 1]
        dpsi = float(np.trapezoid(seg_w, seg_t))
        deg = abs(math.degrees(dpsi))
        duration = float(seg_t[-1] - seg_t[0])
        lobes = len(lobe_signs(seg_w, omega_off))
        lat_peak = float(np.max(np.abs(linear[i0:i1 + 1, 1])))

        if deg >= 150.0:
            sub = "u_turn"
        elif lobes == 1 and 60.0 <= deg < 150.0:
            sub = "turn"
        elif lobes == 2 and deg < 15.0 and lat_peak > 2.0:
            sub = "swerve"
        elif lobes == 2 and deg < 15.0 and duration < 6.0:
            sub = "lane_change"
        elif lobes >= 3:
            sub = "curvy_segment"
        else:
            sub = "other"

        out.append(Indicator(
            kind="maneuver", sub_kind=sub, lat=lat, lon=lon,
            t=tm, severity=clamp_severity(deg), confidence=1.0,
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


def segment_bounds(s: np.ndarray, segment_length: float) -> np.ndarray:
    """Row bounds of the whole segments of a non-decreasing distance `s`.

    Segment k holds the rows k*L <= s < (k+1)*L, from ``bounds[k]`` up to
    ``bounds[k + 1]``; the part of the ride after the last whole segment
    is in none.
    """
    edges = np.arange(int(s[-1] // segment_length) + 1) * segment_length
    return np.searchsorted(s, edges)


def roughness_index(trace: Trace, linear: np.ndarray, band: tuple[float, float] = (0.5, 50.0),
                    segment_length: float = 100.0,
                    ) -> tuple[list[RoughnessReport], list[tuple[int, str]]]:
    """IRI-style roughness per travelled-distance segment.

    `linear` is the trace's (n, 3) linear acceleration in the vehicle frame
    (see ``ReorientResult.linear``). Per segment: SWT levels whose frequency
    band maps into the wavelength band (lambda = v/f) reconstruct the
    band-limited vertical acceleration, which is double-integrated (linear
    detrend after each pass); the index is the rectified elevation increment
    sum per length, in m/km. A trace without GPS fixes raises CapabilityError.
    """
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    speeds, s = along_track(trace, "roughness")
    az = linear[:, 2]

    reports = []
    skipped = []
    bounds = segment_bounds(s, segment_length)
    for seg in range(len(bounds) - 1):
        i, j = bounds[seg], bounds[seg + 1]
        if j - i < 16:
            skipped.append((seg, "too_few_samples"))
            continue
        v_mean = float(np.mean(speeds[i:j]))
        if v_mean <= ROUGHNESS_MIN_SPEED:
            skipped.append((seg, "low_speed"))
            continue
        # frequency band of the requested wavelength band at this speed
        f_lo, f_hi = v_mean / band[1], v_mean / band[0]
        a_band = swt_bandpass(az[i:j], trace.rate, f_lo, f_hi)
        if a_band is None:
            skipped.append((seg, "band_unresolvable"))
            continue
        t_seg = trace.t[i:j]
        vel = detrend_linear(cumtrapz(a_band, t_seg))
        elev = detrend_linear(cumtrapz(vel, t_seg))
        length = float(s[j - 1] - s[i])
        index = float(np.sum(np.abs(np.diff(elev))) / length) * 1000.0
        reports.append(RoughnessReport(
            segment_length=segment_length, index=index, band=band,
            mean_speed=v_mean, s_start=seg * segment_length,
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
