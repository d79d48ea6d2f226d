"""Road analysis through the CLI on phone conditions that already pass: a
benchmark road ride, changed here, at 50 Hz, with a 100 -> 50 Hz change
mid-ride, with +-5 ms timestamp jitter and with GPS at 0.2 Hz. Each must
find every pothole within the benchmark's `pothole_tolerance`, every turn,
and the clean ride's roughness within `ROUGHNESS_TOLERANCE` per segment."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import perfbench_module
from infrasense.cli import EXIT_OK, main

SEED, DURATION = 3, 300.0
# relative, per segment; the four conditions stay within 1.2-5.0 % of the
# clean ride on this one
ROUGHNESS_TOLERANCE = 0.1


def keep_rows(ride, keep):
    """The ride with only the rows where `keep` is true, fixes included."""
    fix_kept = keep[ride.fix_rows]
    new_row = np.cumsum(keep) - 1
    return replace(ride, t=ride.t[keep], accel=ride.accel[keep], gyro=ride.gyro[keep],
                   fix_rows=new_row[ride.fix_rows[fix_kept]], fix_lat=ride.fix_lat[fix_kept],
                   fix_lon=ride.fix_lon[fix_kept], fix_speed=ride.fix_speed[fix_kept])


def every_other_row(ride, start=0):
    i = np.arange(len(ride.t))
    return keep_rows(ride, (i < start) | (i % 2 == 0))


def jittered(ride, jitter=0.005):
    grid = np.round(ride.t, 2)  # the rides' 100 Hz
    return replace(ride, t=grid + np.random.default_rng(SEED).uniform(-jitter, jitter, len(grid)))


def gps_every(ride, k):
    return replace(ride, fix_rows=ride.fix_rows[::k], fix_lat=ride.fix_lat[::k],
                   fix_lon=ride.fix_lon[::k], fix_speed=ride.fix_speed[::k])


CONDITIONS = {
    "50 Hz": every_other_row,
    "100 to 50 Hz mid-ride": lambda ride: every_other_row(ride, start=len(ride.t) // 2),
    "5 ms jitter": jittered,
    "GPS at 0.2 Hz": lambda ride: gps_every(ride, 5),
}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        inputs, checks = perfbench_module("inputs", mp), perfbench_module("checks", mp)
        return inputs, checks, inputs.road_ride(SEED, duration=DURATION)


def analyze(ride, work):
    """`analyze` on the ride; its indicators, manifest and roughness."""
    work.mkdir()
    ride.write_csv(work / "ride.csv")
    assert main(["analyze", str(work / "ride.csv"), "--out", str(work / "out")]) == EXIT_OK
    with open(work / "out" / "indicators.geojson") as fh:
        collection = json.load(fh)
    with open(work / "out" / "manifest.json") as fh:
        manifest = json.load(fh)
    return collection, manifest, work / "out" / "roughness.csv"


@pytest.fixture(scope="module")
def clean_roughness(bench, tmp_path_factory):
    _, checks, ride = bench
    _, _, roughness = analyze(ride, tmp_path_factory.mktemp("clean") / "ride")
    return checks.read_roughness(roughness)


@pytest.mark.parametrize("condition", CONDITIONS)
def test_condition(bench, clean_roughness, tmp_path, condition):
    inputs, checks, ride = bench
    changed = CONDITIONS[condition](ride)
    collection, manifest, roughness = analyze(changed, tmp_path / "ride")
    tolerance = checks.pothole_tolerance(manifest, ride.speed)
    assert checks.check_potholes(collection, ride.truth, tolerance) == []
    assert checks.check_turns(collection, ride.truth, inputs.TURN_DURATION / 2) == []
    got = checks.read_roughness(roughness)
    assert sorted(got) == sorted(clean_roughness)
    worst = max(abs(got[s] / clean_roughness[s] - 1.0) for s in got)
    assert worst <= ROUGHNESS_TOLERANCE, worst
