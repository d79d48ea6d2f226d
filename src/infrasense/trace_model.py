"""Trace data model: parsing, writing, and inertial preprocessing.

A :class:`Trace` bundles the inertial samples and GPS fixes of one ride.
Preprocessing covers gravity separation with a first-order low-pass and
reorientation of the device frame into a vehicle-aligned frame (z up
against gravity, x forward).

Frame convention: an aligned, stationary device reads accel = (0, 0, -9.81);
the gravity vector points along -z.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .outputs import new_file
from .reports import json_objects

GRAVITY = 9.81
FORWARD_MIN_SPEED = 3.0  # m/s; faster samples are in forward motion for `reorient`

CSV_COLUMNS = ("t", "ax", "ay", "az", "gx", "gy", "gz", "lat", "lon", "speed", "acc")
_REQUIRED = ("t", "ax", "ay", "az")
_REQUIRED_KEYS = frozenset(_REQUIRED)
_GEO = ("lat", "lon", "speed", "acc")


class TraceError(Exception):
    """Base class for trace-layer failures."""


class SchemaError(TraceError):
    """Input file does not match the trace schema."""


class EmptyTraceError(TraceError):
    """Fewer than two usable samples."""


class CapabilityError(TraceError):
    """Requested operation needs a sensor the trace does not carry."""


FIX_COLUMNS = ("t", "lat", "lon", "speed", "accuracy")


def valid_fix(lat, lon, speed, accuracy):
    """The fix rule, elementwise: |lat| <= 90, |lon| <= 180, speed >= 0 and
    accuracy > 0 (NaN fails it)."""
    return (np.abs(lat) <= 90) & (np.abs(lon) <= 180) & (speed >= 0) & (accuracy > 0)


@dataclass(frozen=True)
class Fixes:
    """GPS fixes as columns of equal length, sorted by t; empty means no GPS."""

    t: np.ndarray  # s
    lat: np.ndarray  # deg
    lon: np.ndarray  # deg
    speed: np.ndarray  # m/s
    accuracy: np.ndarray  # m, horizontal

    def __post_init__(self):
        for name in FIX_COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if any(getattr(self, k).shape != (len(self.t),) for k in FIX_COLUMNS):
            raise ValueError("fix columns must be 1-D and of equal length")
        if not np.all(np.isfinite(self.t)) or np.any(np.diff(self.t) < 0):
            raise ValueError("fix times must be finite and sorted")
        if not np.all(valid_fix(self.lat, self.lon, self.speed, self.accuracy)):
            raise ValueError("invalid fix: the rule is |lat| <= 90, |lon| <= 180, "
                             "speed >= 0 and accuracy > 0")

    def __len__(self) -> int:
        return len(self.t)

    def interp(self, column: str, t) -> np.ndarray:
        """One column interpolated at the given times; NaN without fixes."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not len(self):
            return np.full(t.shape, np.nan)
        return np.interp(t, self.t, getattr(self, column))


@dataclass(frozen=True)
class ParseReport:
    rows_read: int
    rows_dropped: int
    reorders: int
    drops: dict  # rows dropped per reason: "required_nonfinite", "invalid_fix"


@dataclass
class Trace:
    """One ride: time-ordered inertial samples plus geo fixes.

    ``gyro`` is None when any retained row lacked gyro readings; consumers
    must handle that degraded mode.
    """

    t: np.ndarray  # (n,) s, non-decreasing
    accel: np.ndarray  # (n, 3) m/s^2
    gyro: np.ndarray | None  # (n, 3) rad/s or None
    fixes: Fixes = field(default_factory=lambda: Fixes(*np.empty((5, 0))))

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float)
        if self.gyro is not None:
            self.gyro = np.asarray(self.gyro, dtype=float)
        n = len(self.t)
        if n < 2:
            raise EmptyTraceError("a trace needs at least 2 samples")
        for name, v, shape in (("t", self.t, (n,)), ("accel", self.accel, (n, 3)),
                               ("gyro", self.gyro, (n, 3))):
            if v is not None and (v.shape != shape or not np.all(np.isfinite(v))):
                raise ValueError(f"{name} must be finite, of shape {shape}")
        if np.any(np.diff(self.t) < 0):
            raise ValueError("samples must be sorted by t")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return float(self.t[-1] - self.t[0])

    @cached_property
    def rate(self) -> float:
        """Measured sample rate in Hz (see `sample_rate`), taken on first use."""
        return sample_rate(self.t)


def sample_rate(t) -> float:
    """Measured sample rate: one over the median sample interval, in Hz.

    Raises TraceError when that interval is 0, i.e. when most samples share
    their timestamp with a neighbour.
    """
    dt = float(median(np.diff(t)))
    if dt == 0.0:
        raise TraceError("median sample interval is 0: most samples repeat a timestamp")
    return 1.0 / dt


def sampling_gaps(t) -> dict:
    """Sample intervals longer than 1.5 times the median one: how many, and
    their summed length in seconds."""
    dt = np.diff(t)
    long = dt[dt > 1.5 * median(dt)]
    return {"count": len(long), "total_s": float(np.sum(long))}


def median(a, axis: int = -1):
    """``np.median(a, axis)`` of float input, bit for bit, without the
    ``numpy.ma`` import that ``np.median`` makes on its first call: partition
    at the middle index or indices and at the end, take the mean of the
    middle values, and put the last partitioned value where it is NaN."""
    part = np.moveaxis(np.asarray(a), axis, -1)
    n = part.shape[-1]
    h = n // 2
    part = np.partition(part, [h - 1, h, -1] if n % 2 == 0 else [h, -1])
    mid = np.mean(part[..., h - 1 + n % 2:h + 1], axis=-1)
    if n == 0:
        return mid
    last = part[..., -1]
    return np.where(np.isnan(last), last, mid)[()]


def cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal integral of y over x, starting at 0."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def along_track(trace: Trace, what: str) -> tuple[np.ndarray, np.ndarray]:
    """GPS speed at each sample, and the distance travelled (its cumulative
    trapezoid over t); CapabilityError "`what` needs GPS speed" when the
    trace has no fixes."""
    if not len(trace.fixes):
        raise CapabilityError(f"{what} needs GPS speed")
    speeds = trace.fixes.interp("speed", trace.t)
    return speeds, cumtrapz(speeds, trace.t)


def runs(mask) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of equal values in a boolean array,
    in order; `stop` is exclusive and the run's value is ``mask[start]``."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) == 0:
        return []
    cuts = (np.flatnonzero(mask[1:] != mask[:-1]) + 1).tolist()
    edges = [0, *cuts, len(mask)]
    return list(zip(edges[:-1], edges[1:]))


def _cell_value(raw) -> float:
    """One cell as a float: NaN when it is absent, empty or unparsable."""
    if raw == "" or raw is None:
        return math.nan
    try:
        return float(raw.strip() if isinstance(raw, str) else raw)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON int past 1.8e308
        return math.nan


# An empty CSV cell, a short CSV row's missing cell, and a JSON null or
# absent key
_EMPTY = frozenset(("", None))


def _column(cells, n: int) -> np.ndarray:
    """One column of cells as floats, NaN where a cell is absent, empty or
    unparsable.

    `float` strips the whitespace a number is padded with, so its values
    equal `_cell_value`'s. A column with empty cells (`_EMPTY`) converts
    only its other cells; one with a cell `float` rejects among those, or
    an unhashable JSON value, is converted again cell by cell.
    """
    try:
        return np.fromiter(map(float, cells), float, n)
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        present = ~np.fromiter(map(_EMPTY.__contains__, cells), bool, n)
        out = np.full(n, math.nan)
        out[present] = np.fromiter(map(float, itertools.compress(cells, present.tolist())), float)
        return out
    except (TypeError, ValueError, OverflowError):
        return np.fromiter(map(_cell_value, cells), float, n)


def _columns_to_trace(cols: dict, n: int) -> tuple[Trace, ParseReport]:
    """Apply the row rules to `n` rows, one column at a time.

    `cols` maps each schema column present in the input to its n values, as
    `_column` reads them.
    A row is dropped when a required value is non-finite, or when all four
    geo values are finite but fail the fix rule (`valid_fix`). A kept row carries a
    fix only when all four geo values are finite; the trace has a gyro only
    when every kept row has all three gyro values.
    """
    v = {k: cols[k] if k in cols else np.full(n, math.nan) for k in CSV_COLUMNS}
    t = v["t"]

    def finite(names):
        return np.logical_and.reduce([np.isfinite(v[k]) for k in names])

    required = finite(_REQUIRED)
    has_fix = finite(_GEO)
    invalid_fix = required & has_fix & ~valid_fix(v["lat"], v["lon"], v["speed"], v["acc"])
    kept = np.flatnonzero(required & ~invalid_fix)
    if len(kept) < 2:
        raise EmptyTraceError(f"only {len(kept)} usable samples (need >= 2)")

    reorders = int(np.count_nonzero(np.diff(t[kept]) < 0))
    if reorders:
        kept = kept[np.argsort(t[kept], kind="stable")]
    every_row = len(kept) == n and not reorders  # kept is arange(n): copy nothing

    def take(column):
        return column if every_row else column[kept]

    def stack(names):
        return np.column_stack([take(v[k]) for k in names])

    has_gyro = all(np.isfinite(v[k])[kept].all() for k in ("gx", "gy", "gz"))
    fix_rows = kept[has_fix[kept]]
    trace = Trace(t=take(t), accel=stack(("ax", "ay", "az")),
                  gyro=stack(("gx", "gy", "gz")) if has_gyro else None,
                  fixes=Fixes(*(v[k][fix_rows] for k in ("t", *_GEO))))
    trace.rate  # measured here, so that a median interval of 0 fails the parse
    drops = {"required_nonfinite": n - int(np.count_nonzero(required)),
             "invalid_fix": int(np.count_nonzero(invalid_fix))}
    return trace, ParseReport(rows_read=n, rows_dropped=n - len(kept), reorders=reorders,
                              drops=drops)


# Rows per block when a trace is read or a CSV is written. Only one block's
# cells exist as Python strings at a time, so that part of the memory a
# parse or a write needs does not grow with the length of the ride.
_ROW_BLOCK = 4096


def _floats(cells: dict, m: int) -> dict:
    """Each column's cells in a block of m rows as floats (`_column`)."""
    return {k: _column(column, m) for k, column in cells.items()}


def _read_blocks(blocks) -> tuple[dict, int]:
    """Join blocks of float columns: `blocks` yields (columns, m) for each
    block of m rows. Returns the joined columns and the number of rows."""
    parts, n = {}, 0
    for columns, m in blocks:
        for k, column in columns.items():
            parts.setdefault(k, []).append(column)
        n += m
    return {k: np.concatenate(v) for k, v in parts.items()}, n


def _row_blocks(rows, block_cells):
    """`_ROW_BLOCK` rows at a time, as (columns, m) with `block_cells(rows)`
    mapping a list of rows to each column's cells in them."""
    while block := list(itertools.islice(rows, _ROW_BLOCK)):
        yield _floats(block_cells(block), len(block)), len(block)


# Bytes per geo cell in `_loadtxt_columns`. numpy cuts a longer cell short
# without a word, so a block with a cell that fills the width is refused;
# a float's repr takes at most 24.
_GEO_WIDTH = 32


def _row_dtype(width: int, index: dict) -> np.dtype:
    """The row `_loadtxt_columns` reads: field f<j> for cell j, float64 for
    the required and gyro columns, `_GEO_WIDTH` bytes for the geo ones and
    one byte for a cell outside `index`, whose value is never used."""
    kinds = ["S1"] * width
    for name, j in index.items():
        kinds[j] = f"S{_GEO_WIDTH}" if name in _GEO else "f8"
    return np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])


def _loadtxt_columns(lines, dtype: np.dtype, index: dict) -> dict | None:
    """Each indexed column of a block of CSV lines as floats, read by
    numpy's C text reader (`np.loadtxt`) into the fields of `dtype`
    (`_row_dtype`); None for a block it cannot read exactly as `csv.reader`
    and `_column` do.

    The refusals are the split's (`_split_cells`): a quote, a line longer
    than `csv.field_size_limit()`, a last line without a newline, or a row
    of another width than the header's, for which `loadtxt` raises. Then
    its own: text that is not ASCII, a `\r` or a NUL (a bytes field drops a
    trailing one), a blank line (which `loadtxt` skips; one that holds only
    whitespace is a row of one cell), a float cell that `loadtxt` cannot
    read (an empty or junk one) and a geo cell that fills its field. The
    geo cells that are not empty go through `_column`, so junk there reads
    NaN.
    """
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\x00" in text or not text.isascii()
            or not text.endswith("\n") or "\n" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    m = len(lines)
    if len(table) != m:
        return None
    columns = {}
    for name, j in index.items():
        cells = table[f"f{j}"]
        if name not in _GEO:
            columns[name] = cells.copy()  # frees the table once the block is read
            continue
        present = cells != b""
        given = cells[present].astype(str).tolist()
        if given and max(map(len, given)) >= _GEO_WIDTH:
            return None
        columns[name] = np.full(m, math.nan)
        columns[name][present] = _column(given, len(given))
    return columns


def _split_cells(lines, width: int, index: dict) -> dict | None:
    """Each indexed column's cells in a block of CSV lines, by one split of
    the block's text; None unless every line is exactly `width` unquoted
    cells ended by a newline and no longer than `csv.field_size_limit()`.

    Line ends become separator cells, which must fall every `width` + 1
    cells, so a row can be read from the split only as `csv.reader` reads
    it.
    """
    text = "".join(lines)
    if '"' in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    m, step = len(lines), width + 1
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    flat = text.replace("\n", ",\n,").split(",")
    if len(flat) != m * step + 1 or flat[width::step].count("\n") != m:
        return None
    return {k: flat[j:m * step:step] for k, j in index.items()}


def _csv_blocks(fh, width: int, index: dict):
    """The float columns of the CSV rows after the header, as `_row_blocks`
    yields them. Each block of lines is read by the first reader that can
    read it exactly: numpy's C reader (`_loadtxt_columns`), then one split
    of its text (`_split_cells`); from the first block neither can read on,
    every row is read by `csv.reader`."""
    dtype = _row_dtype(width, index)

    def transpose(rows):
        # short rows padded with None; a column no row reaches is all None
        cells = list(itertools.zip_longest(*rows))
        return {k: cells[j] if j < len(cells) else [None] * len(rows)
                for k, j in index.items()}

    while lines := list(itertools.islice(fh, _ROW_BLOCK)):
        columns = _loadtxt_columns(lines, dtype, index)
        if columns is None:
            cells = _split_cells(lines, width, index)
            if cells is None:
                rows = filter(None, csv.reader(itertools.chain(lines, fh)))
                yield from _row_blocks(rows, transpose)
                return
            columns = _floats(cells, len(lines))
        yield columns, len(lines)


def _jsonl_rows(fh):
    """The JSON object of each non-blank line (`json_objects`); SchemaError
    on a line that is no object or lacks a required key."""
    for lineno, obj in json_objects(fh, SchemaError):
        if not obj.keys() >= _REQUIRED_KEYS:
            raise SchemaError(f"line {lineno}: missing required keys")
        yield obj


def parse_trace(path, format: str = "csv") -> tuple[Trace, ParseReport]:
    """Parse a recording into a Trace.

    CSV needs the header ``t,ax,ay,az,gx,gy,gz,lat,lon,speed,acc``; JSONL is
    one object per line with the same keys. Gyro and geo cells may be empty
    per row. An empty or unparsable cell counts as missing. Rows with
    non-finite required values or an invalid fix are dropped and counted by
    reason in the report. CSV rows are read as `csv.DictReader` reads them:
    blank lines are skipped, short rows padded with missing cells and the
    cells past the header ignored; a file `csv.reader` cannot read, such as
    one with a cell longer than `csv.field_size_limit()`, is a SchemaError.
    Both formats are read `_ROW_BLOCK` rows at a time. Each CSV block goes
    to the first of three readers that reads it exactly (`_csv_blocks`):
    numpy's C text reader for plain numeric rows (`_loadtxt_columns`), one
    split of its text for rows of the header's width with an empty or junk
    required or gyro cell, other line ends or non-ASCII text
    (`_split_cells`), and `csv.reader` from the first block with a quote,
    a blank, short or long row, or an oversized line on.
    """
    path = str(path)
    if format == "csv":
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh), [])
                missing = [c for c in _REQUIRED if c not in header]
                if missing:
                    raise SchemaError(f"missing required columns: {missing}")
                # a header name repeated: the last of its columns counts, as in DictReader
                index = {name: j for j, name in enumerate(header) if name in CSV_COLUMNS}
                cols, n = _read_blocks(_csv_blocks(fh, len(header), index))
            except csv.Error as e:
                raise SchemaError(f"unreadable CSV: {e}") from e
    elif format == "jsonl":
        with open(path) as fh:
            cols, n = _read_blocks(_row_blocks(_jsonl_rows(fh), lambda objs: {
                k: [obj.get(k) for obj in objs] for k in CSV_COLUMNS}))
    else:
        raise ValueError(f"unknown format {format!r}")
    return _columns_to_trace(cols, n)


def write_rows(fh, n: int, block_rows) -> None:
    """Write `n` CSV rows `_ROW_BLOCK` at a time, as `csv.writer` writes
    cells that need no quoting: each row ended by CRLF.

    `block_rows(start, stop)` returns rows start..stop, each one string of
    cells joined by commas.
    """
    for start in range(0, n, _ROW_BLOCK):
        fh.write("\r\n".join(block_rows(start, min(start + _ROW_BLOCK, n))) + "\r\n")


def write_trace_csv(trace: Trace, path) -> None:
    """Write a Trace back out in the canonical CSV schema.

    The schema carries a fix on a sample row, so each fix goes on the row of
    its nearest sample time (ties to the earlier row), which moves it by at
    most half a sample interval. When two fixes land on one row, the later
    one in ``trace.fixes`` is written and the other is lost.
    """
    n = len(trace.t)
    ft = trace.fixes.t
    right = np.clip(np.searchsorted(trace.t, ft), 1, n - 1)
    rows = np.where(ft - trace.t[right - 1] <= trace.t[right] - ft, right - 1, right)
    last = np.diff(rows, append=n) != 0  # fixes are sorted, and so are their rows
    # NaN marks an empty cell: no value of a valid Trace or Fixes is NaN
    geo = np.full((4, n), math.nan)
    geo[:, rows[last]] = [getattr(trace.fixes, k)[last] for k in FIX_COLUMNS[1:]]
    gyro = trace.gyro.T if trace.gyro is not None else np.full((3, n), math.nan)
    columns = [trace.t, *trace.accel.T, *gyro, *geo]

    def block_rows(start, stop):
        cells = [[repr(v) if v == v else "" for v in c[start:stop].tolist()] for c in columns]
        return map(",".join, zip(*cells))

    with new_file(path, newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        write_rows(fh, n, block_rows)


# A scan block ends after this many steps, or sooner where its running
# product of alphas would fall below exp(-_SCAN_DEPTH): that keeps the
# product far above underflow (a fixed 256-step block underflows to NaN at
# dt = 20 s with tau = 1 s) and the rescaled inputs far below overflow.
_SCAN_BLOCK = 1024
_SCAN_DEPTH = 300.0


def gravity_split(trace: Trace, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Run the gravity low-pass over a whole trace.

    Returns (gravity, linear), both (n, 3). The low-pass is
    g_i = a_i * g_(i-1) + (1 - a_i) * accel_i, initialized at the first
    accel sample, with a_i = tau / (tau + dt_i) following each step's dt
    (clamped to 1e-9 s). The recurrence is solved as a blocked prefix scan
    (Blelloch 1990): within a block, g_k = P_k * (g_start + cumsum((1-a)x/P)_k)
    with P the cumulative product of a, and the last g carries into the
    next block.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    accel = trace.accel
    alpha = tau / (tau + np.maximum(np.diff(trace.t), 1e-9))
    inputs = (1.0 - alpha)[:, None] * accel[1:]
    depth = -np.cumsum(np.log(alpha))  # -log of the product of alpha from step 0
    gravity = np.empty_like(accel)
    gravity[0] = g = accel[0]
    start, steps = 0, len(alpha)
    while start < steps:
        base = depth[start - 1] if start else 0.0
        stop = min(start + _SCAN_BLOCK, int(np.searchsorted(depth, base + _SCAN_DEPTH, "right")))
        stop = max(stop, start + 1)
        prod = np.cumprod(alpha[start:stop])[:, None]
        block = prod * (g + np.cumsum(inputs[start:stop] / prod, axis=0))
        gravity[start + 1:stop + 1] = block
        g = block[-1]
        start = stop
    return gravity, accel - gravity


def _rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Proper rotation matrix taking unit vector u onto unit vector v."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    c = float(np.dot(u, v))
    axis = np.cross(u, v)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # antipodal: rotate pi about any axis orthogonal to u
        p = np.array([1.0, 0.0, 0.0])
        if abs(u[0]) > 0.9:
            p = np.array([0.0, 1.0, 0.0])
        axis = np.cross(u, p)
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    axis = axis / s
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    angle = math.atan2(s, c)
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


@dataclass(frozen=True)
class ReorientResult:
    trace: Trace
    rotation: np.ndarray  # (3,3), applied as v_vehicle = R @ v_device
    linear: np.ndarray  # (n, 3) m/s^2, vehicle-frame acceleration minus gravity
    forward_resolved: bool  # False: vertical-only reorientation


def reorient(trace: Trace, tau: float = 1.0) -> ReorientResult:
    """Rotate a trace into the vehicle frame and split off gravity.

    This is the one gravity split of an analysis: the result carries the
    split's linear acceleration rotated into the vehicle frame, which every
    road analysis takes as input. The time-averaged gravity estimate is
    mapped onto (0, 0, -g); the mean horizontal linear-acceleration direction
    during forward motion (speed > FORWARD_MIN_SPEED) is mapped onto +x.
    Without motion epochs only the vertical alignment is applied and
    `forward_resolved` is False.
    """
    if trace.span < 2.0:
        raise TraceError("reorientation needs at least 2 s of data")
    gravity, linear = gravity_split(trace, tau=tau)
    g_mean = gravity.mean(axis=0)
    if np.linalg.norm(g_mean) < 1e-6:
        raise TraceError("degenerate gravity estimate")
    r_vert = _rotation_between(g_mean, np.array([0.0, 0.0, -1.0]))

    rotation = r_vert
    forward = False
    speeds = trace.fixes.interp("speed", trace.t)
    moving = np.isfinite(speeds) & (speeds > FORWARD_MIN_SPEED)
    if np.any(moving):
        horiz = (r_vert @ linear[moving].T).T[:, :2]
        mean_h = horiz.mean(axis=0)
        if np.linalg.norm(mean_h) > 1e-3:
            yaw = math.atan2(mean_h[1], mean_h[0])
            cy, sy = math.cos(-yaw), math.sin(-yaw)
            r_yaw = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
            rotation = r_yaw @ r_vert
            forward = True

    accel = (rotation @ trace.accel.T).T
    gyro = (rotation @ trace.gyro.T).T if trace.gyro is not None else None
    out = Trace(t=trace.t.copy(), accel=accel, gyro=gyro, fixes=trace.fixes)
    return ReorientResult(trace=out, rotation=rotation, linear=(rotation @ linear.T).T,
                          forward_resolved=forward)
