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


def _window_features(w: np.ndarray) -> dict[str, np.ndarray]:
    """Every feature of every row of `w`, with `extract_features`'s arithmetic.

    Rows are reduced along their own axis, the way the one-window functions
    reduce a window; only the energy's sum runs in another order.
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

    All windows are evaluated at once on a strided view of the signal; row i
    matches ``extract_features`` on window i of ``frame_signal``. Windows are
    stamped from the sample times `t` (``arange(n) / rate`` when omitted): a
    window starts at its first sample and ends one sample interval after its
    last, so sampling gaps shift the stamps with them.
    """
    x = np.asarray(signal, dtype=float)
    m, hop = plan.size, plan.hop
    if len(x) < m:
        raise FeatureError(f"signal length {len(x)} shorter than window {m}")
    unknown = [n for n in names if n not in FEATURES]
    if unknown:
        raise FeatureError(f"unknown features: {unknown}")
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
