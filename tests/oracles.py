"""Naive reference implementations the tests compare the program against.

Each one is the plain row-by-row or step-by-step form of a stage that the
program computes on columns or arrays.
"""

import csv
import json
import math

import numpy as np

from infrasense.trace_model import (
    EmptyTraceError,
    GeoFix,
    ParseReport,
    SchemaError,
    Trace,
    sample_rate,
)

REQUIRED = ("t", "ax", "ay", "az")


def _finite(*vals) -> bool:
    return all(v is not None and math.isfinite(v) for v in vals)


def _maybe_float(raw):
    if raw is None:
        return None
    raw = raw.strip() if isinstance(raw, str) else raw
    if raw == "" or raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


def _rows_to_trace(rows, meta: str):
    kept = []
    drops = {"required_nonfinite": 0, "invalid_fix": 0}
    for row in rows:
        t = _maybe_float(row.get("t"))
        acc = [_maybe_float(row.get(k)) for k in ("ax", "ay", "az")]
        if not _finite(t, *acc):
            drops["required_nonfinite"] += 1
            continue
        gyr = [_maybe_float(row.get(k)) for k in ("gx", "gy", "gz")]
        gyr = gyr if _finite(*gyr) else None
        fix = None
        geo = [_maybe_float(row.get(k)) for k in ("lat", "lon", "speed", "acc")]
        if _finite(*geo):
            try:
                fix = GeoFix(t, geo[0], geo[1], geo[2], geo[3])
            except ValueError:
                drops["invalid_fix"] += 1
                continue
        kept.append((t, acc, gyr, fix))

    if len(kept) < 2:
        raise EmptyTraceError(f"only {len(kept)} usable samples (need >= 2)")

    ts = [r[0] for r in kept]
    reorders = sum(1 for a, b in zip(ts, ts[1:]) if b < a)
    kept.sort(key=lambda r: r[0])

    t = np.array([r[0] for r in kept])
    accel = np.array([r[1] for r in kept])
    gyros = [r[2] for r in kept]
    gyro = np.array(gyros) if all(g is not None for g in gyros) else None
    fixes = [r[3] for r in kept if r[3] is not None]
    trace = Trace(t=t, accel=accel, gyro=gyro, fixes=fixes, nominal_rate=sample_rate(t), meta=meta)
    dropped = sum(drops.values())
    return trace, ParseReport(rows_read=len(kept) + dropped, rows_dropped=dropped,
                              reorders=reorders, drops=drops)


def parse_trace_rows(path, format: str = "csv"):
    """`parse_trace` one row at a time: `csv.DictReader` rows or JSONL objects."""
    path = str(path)
    if format == "csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in REQUIRED if c not in header]
            if missing:
                raise SchemaError(f"missing required columns: {missing}")
            rows = list(reader)
    else:
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SchemaError(f"line {lineno}: invalid JSON ({e})") from e
                if not all(k in obj for k in REQUIRED):
                    raise SchemaError(f"line {lineno}: missing required keys")
                rows.append(obj)
    return _rows_to_trace(rows, meta=path)


def gravity_split_loop(trace, tau: float = 1.0):
    """`gravity_split` one step at a time: g_i = a*g_(i-1) + (1-a)*accel_i."""
    n = len(trace)
    gravity = np.empty((n, 3))
    gravity[0] = trace.accel[0]
    dts = np.diff(trace.t)
    for i in range(1, n):
        dt = max(float(dts[i - 1]), 1e-9)
        a = tau / (tau + dt)
        gravity[i] = a * gravity[i - 1] + (1.0 - a) * trace.accel[i]
    return gravity, trace.accel - gravity
