import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from infrasense.trace_model import Fixes, Trace

# the parse tests' module is collected through test_trace_model.py
pytest.register_assert_rewrite("parse_cases")


def straight_fixes(duration, speed, lat0=51.0, lon0=7.0, interval=1.0):
    """1 Hz fixes along a northbound straight line."""
    meters_per_deg = np.pi / 180.0 * 6371000.0
    fixes = []
    t = 0.0
    while t <= duration + 1e-9:
        fixes.append((t, lat0 + speed * t / meters_per_deg, lon0, speed, 5.0))
        t += interval
    return Fixes(*np.array(fixes).T)


def make_trace(duration=10.0, rate=100.0, accel_z=None, gyro=None, speed=10.0,
               with_fixes=True):
    """Quiet aligned trace (accel z = -9.81 + accel_z), optionally with gyro."""
    n = int(round(duration * rate)) + 1
    t = np.arange(n) / rate
    accel = np.zeros((n, 3))
    accel[:, 2] = -9.81
    if accel_z is not None:
        accel[:, 2] += accel_z[:n]
    if not with_fixes:
        return Trace(t=t, accel=accel, gyro=gyro)
    return Trace(t=t, accel=accel, gyro=gyro, fixes=straight_fixes(duration, speed))


def perfbench_module(name, monkeypatch):
    """A module of the benchmark (``inputs`` or ``checks``), loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
