"""Empirical mode decomposition.

Sifting subtracts the mean of cubic-spline envelopes of the local maxima
and minima until the normalized change between sift iterates drops below
`_SIFT_STOP`; the decomposition ends at a monotone residue or at
`max_imfs`. Envelope boundaries mirror the two nearest extrema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavelets import TransformError

_MAX_SIFTS = 100
_SIFT_STOP = 0.05


@dataclass
class ImfSet:
    """Ordered intrinsic mode functions plus the final residue."""

    imfs: list[np.ndarray]
    residue: np.ndarray

    def __len__(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        out = self.residue.copy()
        for c in self.imfs:
            out += c
        return out


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of interior local maxima and minima (plateaus collapse)."""
    d = np.sign(np.diff(x))
    # carry the previous non-zero slope through flats (forward fill)
    d = d[np.maximum.accumulate(np.where(d != 0, np.arange(len(d)), 0))]
    turn = np.diff(d)
    maxima = np.where(turn < 0)[0] + 1
    minima = np.where(turn > 0)[0] + 1
    return maxima, minima


def _envelope(idx: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic-spline envelope through (idx, vals).

    With two or more extrema the two nearest are mirrored beyond each edge;
    a single extremum falls back to endpoint knots.
    """
    from scipy.interpolate import CubicSpline  # here, so importing the CLI loads no scipy

    n = len(x)
    if len(idx) >= 2:
        left_x = -idx[:2][::-1]
        left_y = vals[:2][::-1]
        right_x = 2 * (n - 1) - idx[-2:][::-1]
        right_y = vals[-2:][::-1]
        xs = np.concatenate([left_x, idx, right_x])
        ys = np.concatenate([left_y, vals, right_y])
    else:
        xs = np.concatenate([[0], idx, [n - 1]])
        ys = np.concatenate([[x[0]], vals, [x[-1]]])
    xs, keep = np.unique(xs, return_index=True)
    ys = ys[keep]
    bc = "not-a-knot" if len(xs) >= 4 else "natural"
    return CubicSpline(xs, ys, bc_type=bc)(np.arange(n))


def _sift(residue: np.ndarray) -> np.ndarray | None:
    """Extract one IMF from `residue`, or None if it is (near) monotone."""
    n = len(residue)
    h = residue.copy()
    for _ in range(_MAX_SIFTS):
        maxima, minima = _extrema(h)
        if len(maxima) + len(minima) < 3 or len(maxima) < 1 or len(minima) < 1:
            return None if np.array_equal(h, residue, equal_nan=True) else h
        upper = _envelope(maxima, h[maxima], h)
        lower = _envelope(minima, h[minima], h)
        mean = 0.5 * (upper + lower)
        h_new = h - mean
        denom = float(np.sum(h * h))
        if denom == 0.0:
            return None
        sd = float(np.sum(mean * mean)) / denom
        h = h_new
        if sd < _SIFT_STOP:
            return h
    return h


def emd(signal, max_imfs: int = 10) -> ImfSet:
    """Decompose into intrinsic mode functions plus a residue.

    The sum of all IMFs and the residue reproduces the input exactly
    (the residue is maintained by running subtraction).
    """
    x = np.asarray(signal, dtype=float)
    if len(x) < 8:
        raise TransformError("EMD needs at least 8 samples")
    imfs: list[np.ndarray] = []
    residue = x.copy()
    for _ in range(max_imfs):
        imf = _sift(residue)
        if imf is None:
            break
        imfs.append(imf)
        residue = residue - imf
    return ImfSet(imfs=imfs, residue=residue)
