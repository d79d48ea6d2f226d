"""Overlapping-window framing and the statistical feature library.

Windows of a uniformly sampled signal are described by a feature vector;
a whole signal becomes a feature matrix (one row per window). All moments
are population moments (1/m), kurtosis is non-excess (normal -> 3).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


DEFAULT_FEATURES = ("mean", "mad", "rms", "var", "sd", "energy", "skew", "kurt",
                    "peak2peak", "peak2rms")


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_index", "t_start", "t_end", *self.names])
            for i in range(self.n_windows):
                w.writerow([int(self.window_index[i]), self.t_start[i], self.t_end[i],
                            *self.values[i]])


def _check_names(names) -> None:
    unknown = [n for n in names if n not in DEFAULT_FEATURES]
    if unknown:
        raise FeatureError(f"unknown features: {unknown}")


def extract_features(window, names=DEFAULT_FEATURES, window_index: int = 0,
                     t_start: float = 0.0, t_end: float = 0.0) -> FeatureVector:
    """Compute the selected features for one window."""
    x = np.asarray(window, dtype=float)
    if len(x) < 2:
        raise FeatureError("window needs at least 2 samples")
    _check_names(names)
    feats = _window_features(x[None, :])
    return FeatureVector(tuple(float(feats[n][0]) for n in names), tuple(names),
                         window_index, t_start, t_end, degenerate=bool(feats["degenerate"][0]))


def _window_features(w: np.ndarray) -> dict[str, np.ndarray]:
    """Every feature of every row of `w`, each row reduced along its own axis.

    A zero-dispersion row has skew and kurtosis 0 and is flagged in
    ``"degenerate"``; a zero-RMS row has a peak-to-RMS of 0.
    """
    mean = np.mean(w, axis=1)
    dev = w - mean[:, None]
    var = np.mean(np.square(dev), axis=1)
    sd = np.sqrt(var)
    rms = np.sqrt(np.mean(np.square(w), axis=1))
    flat = sd == 0.0
    # standardized deviations, left at 0 in a zero-dispersion window
    z = np.divide(dev, sd[:, None], out=np.zeros_like(dev), where=~flat[:, None])
    med = np.median(w, axis=1)
    peak = np.max(np.abs(w), axis=1)
    return {
        "mean": mean,
        "mad": np.median(np.abs(w - med[:, None]), axis=1),
        "rms": rms,
        "var": var,
        "sd": sd,
        "energy": np.sqrt(np.sum(np.square(w), axis=1)),
        "skew": np.mean(z ** 3, axis=1),
        "kurt": np.mean(z ** 4, axis=1),
        "peak2peak": np.max(w, axis=1) - np.min(w, axis=1),
        "peak2rms": np.divide(peak, rms, out=np.zeros_like(rms), where=rms != 0.0),
        "degenerate": flat,
    }


def feature_matrix(signal, plan: FramePlan, names=DEFAULT_FEATURES,
                   t=None) -> FeatureMatrix:
    """Frame a signal and extract one feature vector per window.

    Window i covers samples ``[i * plan.hop, i * plan.hop + plan.size)``;
    trailing samples that cannot fill a window are dropped. All windows are
    evaluated at once on a strided view of the signal. Windows are stamped
    from the sample times `t` (``arange(n) / rate`` when omitted): a window
    starts at its first sample and ends one sample interval after its last,
    so sampling gaps shift the stamps with them.
    """
    x = np.asarray(signal, dtype=float)
    m, hop = plan.size, plan.hop
    if len(x) < m:
        raise FeatureError(f"signal length {len(x)} shorter than window {m}")
    _check_names(names)
    windows = sliding_window_view(x, m)[::hop]
    starts = np.arange(len(windows)) * hop
    if t is None:
        stamps = np.arange(len(x) + 1) / plan.rate
    else:
        stamps = np.append(t, t[-1] + 1.0 / plan.rate)
    feats = _window_features(windows)
    return FeatureMatrix(
        names=tuple(names),
        values=np.reshape([feats[n] for n in names], (len(names), len(windows))).T,
        window_index=np.arange(len(windows)),
        t_start=stamps[starts],
        t_end=stamps[starts + m],
        degenerate=feats["degenerate"],
    )
