"""Short-time Fourier transform and the shared time-frequency grid type."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TransformError(Exception):
    pass


@dataclass
class Spectrogram:
    """Time-frequency magnitude grid (frames x bins)."""

    magnitudes: np.ndarray  # (n_frames, n_bins)
    frame_times: np.ndarray  # (n_frames,) s
    bin_freqs: np.ndarray  # (n_bins,) Hz

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        if self.magnitudes.shape != (len(self.frame_times), len(self.bin_freqs)):
            raise ValueError("grid shape does not match axes")


_TAPERS = {
    "rectangular": lambda m: np.ones(m),
    "hann": lambda m: np.hanning(m),
}


def stft(signal, rate: float, window_len: int, hop: int,
         taper: str = "rectangular") -> Spectrogram:
    """Magnitude STFT with the given frame length and hop (both samples)."""
    x = np.asarray(signal, dtype=float)
    if window_len > len(x):
        raise TransformError("window longer than signal")
    if hop < 1:
        raise TransformError("hop must be >= 1")
    if taper not in _TAPERS:
        raise TransformError(f"unknown taper {taper!r}")
    w = _TAPERS[taper](window_len)

    mags = np.abs(np.fft.rfft(sliding_window_view(x, window_len)[::hop] * w, axis=1))
    n_frames = len(mags)
    frame_times = (np.arange(n_frames) * hop + (window_len - 1) / 2.0) / rate
    bin_freqs = np.fft.rfftfreq(window_len, d=1.0 / rate)
    return Spectrogram(mags, frame_times, bin_freqs)
