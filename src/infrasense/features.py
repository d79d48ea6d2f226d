"""Overlapping-window framing and the statistical feature library.

Windows of a uniformly sampled signal are described by a feature vector;
a whole signal becomes a feature matrix (one row per window). All moments
are population moments (1/m), kurtosis is non-excess (normal -> 3).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FramePlan:
    """Window length (s), overlap fraction of the window, and sample rate."""

    window_len: float
    overlap: float
    rate: float

    def __post_init__(self):
        if self.window_len <= 0 or self.rate <= 0:
            raise ValueError("window_len and rate must be positive")
        if not (0.0 <= self.overlap < 1.0):
            raise ValueError("overlap must lie in [0, 1)")
        if self.size < 2:
            raise ValueError("window shorter than 2 samples")

    @property
    def size(self) -> int:
        return int(round(self.window_len * self.rate))

    @property
    def hop(self) -> int:
        return max(1, int(round(self.size * (1.0 - self.overlap))))


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

DEFAULT_FEATURES = tuple(FEATURES)


@dataclass(frozen=True)
class FeatureVector:
    values: tuple[float, ...]
    names: tuple[str, ...]
    window_index: int
    t_start: float
    t_end: float
    degenerate: bool = False  # zero-dispersion window

    def __post_init__(self):
        if len(self.values) != len(self.names):
            raise ValueError("values and names must have equal length")


@dataclass
class FeatureMatrix:
    """Rectangular stack of feature vectors sharing one name tuple."""

    names: tuple[str, ...]
    values: np.ndarray  # (n_windows, k)
    window_index: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    degenerate: np.ndarray  # (n_windows,) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ValueError("matrix must be rectangular with k = len(names)")

    @property
    def n_windows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def rows(self):
        for i in range(self.n_windows):
            yield FeatureVector(
                tuple(self.values[i]), self.names, int(self.window_index[i]),
                float(self.t_start[i]), float(self.t_end[i]), bool(self.degenerate[i]),
            )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_index", "t_start", "t_end", *self.names])
            for i in range(self.n_windows):
                w.writerow([int(self.window_index[i]), self.t_start[i], self.t_end[i],
                            *self.values[i]])


def frame_signal(signal, plan: FramePlan) -> list[tuple[int, int, np.ndarray]]:
    """Split a signal into overlapping windows.

    Returns (window_index, start_sample, slice) triples. Trailing samples
    that cannot fill a window are dropped.
    """
    x = np.asarray(signal, dtype=float)
    m, hop = plan.size, plan.hop
    if len(x) < m:
        raise FeatureError(f"signal length {len(x)} shorter than window {m}")
    count = (len(x) - m) // hop + 1
    return [(i, i * hop, x[i * hop:i * hop + m]) for i in range(count)]


def extract_features(window, names=DEFAULT_FEATURES, window_index: int = 0,
                     t_start: float = 0.0, t_end: float = 0.0) -> FeatureVector:
    """Compute the selected features for one window."""
    x = np.asarray(window, dtype=float)
    if len(x) < 2:
        raise FeatureError("window needs at least 2 samples")
    unknown = [n for n in names if n not in FEATURES]
    if unknown:
        raise FeatureError(f"unknown features: {unknown}")
    values = tuple(FEATURES[n](x) for n in names)
    return FeatureVector(values, tuple(names), window_index, t_start, t_end,
                         degenerate=(_sd(x) == 0.0))


def feature_matrix(signal, plan: FramePlan, names=DEFAULT_FEATURES,
                   t=None) -> FeatureMatrix:
    """Frame a signal and extract one feature vector per window.

    Windows are stamped from the sample times `t` (``arange(n) / rate`` when
    omitted): a window starts at its first sample and ends one sample
    interval after its last, so sampling gaps shift the stamps with them.
    """
    frames = frame_signal(signal, plan)
    if t is None:
        stamps = np.arange(len(signal) + 1) / plan.rate
    else:
        stamps = np.append(t, t[-1] + 1.0 / plan.rate)
    vecs = [
        extract_features(w, names, window_index=i, t_start=float(stamps[start]),
                         t_end=float(stamps[start + plan.size]))
        for i, start, w in frames
    ]
    return FeatureMatrix(
        names=tuple(names),
        values=np.array([v.values for v in vecs]),
        window_index=np.array([v.window_index for v in vecs]),
        t_start=np.array([v.t_start for v in vecs]),
        t_end=np.array([v.t_end for v in vecs]),
        degenerate=np.array([v.degenerate for v in vecs]),
    )


def normalize_features(matrix: FeatureMatrix) -> tuple[FeatureMatrix, tuple[str, ...]]:
    """Min-max scale each column to [0, 1].

    Constant columns map to 0 and are returned as the flagged name tuple.
    """
    if matrix.n_windows < 2:
        raise FeatureError("normalization needs at least 2 rows")
    lo = matrix.values.min(axis=0)
    hi = matrix.values.max(axis=0)
    span = hi - lo
    constant = span == 0.0
    safe = np.where(constant, 1.0, span)
    scaled = (matrix.values - lo) / safe
    scaled[:, constant] = 0.0
    out = FeatureMatrix(
        names=matrix.names, values=scaled,
        window_index=matrix.window_index.copy(),
        t_start=matrix.t_start.copy(), t_end=matrix.t_end.copy(),
        degenerate=matrix.degenerate.copy(),
    )
    flagged = tuple(n for n, c in zip(matrix.names, constant) if c)
    return out, flagged
