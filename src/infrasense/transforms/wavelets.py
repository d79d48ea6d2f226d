"""Orthonormal wavelet filter banks: decimated DWT and stationary (SWT).

Boundary handling is circular (periodic) throughout, which makes perfect
reconstruction exact. Odd-length inputs to a decimated level are extended
by repeating the last sample; the original length is stored and restored
on reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stft import TransformError

_SQRT3 = math.sqrt(3.0)

# Orthonormal low-pass (scaling) filters.
WAVELETS = {
    "haar": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "db4": np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * math.sqrt(2.0)),
}


def filter_pair(wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) analysis filters; high is the quadrature mirror of low."""
    if wavelet not in WAVELETS:
        raise TransformError(f"unsupported wavelet {wavelet!r}")
    h = WAVELETS[wavelet]
    g = np.array([(-1) ** n * h[len(h) - 1 - n] for n in range(len(h))])
    return h, g


@dataclass
class WaveletDecomposition:
    """Detail bands d1..dL plus the final approximation aL."""

    details: list[np.ndarray]
    approx: np.ndarray
    wavelet: str
    scheme: str  # "decimated" | "stationary"
    input_lengths: list[int] = field(default_factory=list)  # per-level, decimated
    original_length: int = 0  # pre-padding, stationary

    @property
    def levels(self) -> int:
        return len(self.details)


def _even(x: np.ndarray) -> np.ndarray:
    if len(x) % 2:
        return np.concatenate([x, x[-1:]])
    return x


def dwt_level(signal, wavelet: str = "haar") -> tuple[np.ndarray, np.ndarray]:
    """One decimated analysis level: circular filter then downsample by 2.

    The filter wraps around periodically, also on signals shorter than it."""
    h, g = filter_pair(wavelet)
    x = _even(np.asarray(signal, dtype=float))
    low = np.zeros(len(x))
    high = np.zeros(len(x))
    for n in range(len(h)):
        rolled = np.roll(x, -n)
        low += h[n] * rolled
        high += g[n] * rolled
    return low[::2], high[::2]


def idwt_level(approx, detail, wavelet: str, out_len: int) -> np.ndarray:
    """Invert one decimated level; trims to `out_len`."""
    h, g = filter_pair(wavelet)
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    n = 2 * len(a)
    up_a = np.zeros(n)
    up_d = np.zeros(n)
    up_a[::2] = a
    up_d[::2] = d
    x = np.zeros(n)
    for m in range(len(h)):
        x += h[m] * np.roll(up_a, m) + g[m] * np.roll(up_d, m)
    return x[:out_len]


def wavedec(signal, wavelet: str = "haar", levels: int = 1) -> WaveletDecomposition:
    """Iterated decimated decomposition down to `levels`."""
    x = np.asarray(signal, dtype=float)
    if levels < 1:
        raise TransformError("levels must be >= 1")
    if levels > int(math.floor(math.log2(len(x)))):
        raise TransformError(f"{levels} levels too deep for length {len(x)}")
    details = []
    lengths = []
    a = x
    for _ in range(levels):
        lengths.append(len(a))
        a, d = dwt_level(a, wavelet)
        details.append(d)
    return WaveletDecomposition(details=details, approx=a, wavelet=wavelet,
                                scheme="decimated", input_lengths=lengths)


def waverec(dec: WaveletDecomposition) -> np.ndarray:
    """Exact inverse of :func:`wavedec`."""
    if dec.scheme != "decimated":
        raise TransformError("waverec expects a decimated decomposition")
    a = dec.approx
    for d, n in zip(reversed(dec.details), reversed(dec.input_lengths)):
        a = idwt_level(a, d, dec.wavelet, out_len=n)
    return a


def _upsampled_positions(filt: np.ndarray, level: int) -> list[tuple[int, float]]:
    step = 2 ** (level - 1)
    return [(n * step, float(c)) for n, c in enumerate(filt)]


def swt(signal, wavelet: str = "haar", levels: int = 1) -> WaveletDecomposition:
    """Stationary (undecimated, a-trous) decomposition.

    The input is zero-padded to the next multiple of 2^levels; all bands
    have the padded length and reconstruction trims back.
    """
    x = np.asarray(signal, dtype=float)
    orig = len(x)
    block = 2 ** levels
    if orig % block:
        x = np.concatenate([x, np.zeros(block - orig % block)])
    if levels > int(math.floor(math.log2(len(x)))):
        raise TransformError(f"{levels} levels too deep for padded length {len(x)}")
    h, g = filter_pair(wavelet)
    details = []
    a = x
    for j in range(1, levels + 1):
        low = np.zeros(len(a))
        high = np.zeros(len(a))
        for shift, c in _upsampled_positions(h, j):
            low += c * np.roll(a, -shift)
        for shift, c in _upsampled_positions(g, j):
            high += c * np.roll(a, -shift)
        details.append(high)
        a = low
    return WaveletDecomposition(details=details, approx=a, wavelet=wavelet,
                                scheme="stationary", original_length=orig)


def swt_band_reconstruct(dec: WaveletDecomposition, levels=None,
                         include_approx: bool = False) -> np.ndarray:
    """Reconstruct from a subset of detail levels (1-based).

    `levels=None` with `include_approx=True` reproduces the input exactly.
    For orthonormal filter pairs |H|^2 + |G|^2 = 2 at every frequency, so the
    synthesis step is half the sum of the two circular correlations.
    """
    if dec.scheme != "stationary":
        raise TransformError("expected a stationary decomposition")
    if levels is None:
        levels = set(range(1, dec.levels + 1))
        include_approx = True
    levels = set(levels)
    bad = levels - set(range(1, dec.levels + 1))
    if bad:
        raise TransformError(f"levels out of range: {sorted(bad)}")
    h, g = filter_pair(dec.wavelet)
    a = dec.approx if include_approx else np.zeros_like(dec.approx)
    for j in range(dec.levels, 0, -1):
        d = dec.details[j - 1] if j in levels else np.zeros_like(dec.details[j - 1])
        rec = np.zeros(len(a))
        for shift, c in _upsampled_positions(h, j):
            rec += c * np.roll(a, shift)
        for shift, c in _upsampled_positions(g, j):
            rec += c * np.roll(d, shift)
        a = 0.5 * rec
    return a[:dec.original_length]


def iswt(dec: WaveletDecomposition) -> np.ndarray:
    """Full inverse stationary transform."""
    return swt_band_reconstruct(dec, None)


def swt_level_band(rate: float, level: int) -> tuple[float, float]:
    """Nominal frequency band [rate/2^(j+1), rate/2^j] of detail level j."""
    return rate / 2 ** (level + 1), rate / 2 ** level


def levels_for_band(rate: float, max_level: int, f_lo: float, f_hi: float) -> list[int]:
    """Detail levels whose nominal band intersects [f_lo, f_hi]."""
    out = []
    for j in range(1, max_level + 1):
        lo, hi = swt_level_band(rate, j)
        if hi > f_lo and lo < f_hi:
            out.append(j)
    return out
