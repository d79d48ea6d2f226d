"""Benchmark of the infrasense CLI on seeded road, rail and crowd workloads.

    python3 perfbench/run.py --workload road --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Inputs come from ``perfbench.inputs``
and the seed; the CLI runs as a closed loop, one subprocess at a time, over
whole rounds of the same operations until ``--seconds`` is up. Each output
is checked (``perfbench.checks``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1`` (in-process, see ``perfbench.tracing``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("road", "rail", "crowd")
# The gapped road ride is the same in every run: its pothole check fails
# on a program fault, and a kept failure must not depend on the seed.
GAPPED_RIDE_SEED = 20201013
SHORT_RIDE = 180.0  # s, the crowd workload's ride
# s; traced runs also analyse a short ride of the kind the workload does not
# weigh, so that no per-layer time reads a constant 0. The straight rail side
# ride checks twist only: on a minute of constant speed, reorient takes the
# forward axis from noise and turns roll into pitch on some seeds.
SIDE_RIDE = 60.0
RADIUS = 15.0  # m, aggregate --radius default
HALF_LIFE = 30 * 86400.0  # s, aggregate --half-life default
COMM_RANGE = 50.0  # m, simulate --range default
CURVE_LENGTH = 2 * inputs.TRANSITION + inputs.ARC
# (files, reports per file, defect sites, vehicles)
CROWD_SIZES = {"road": (4, 25, 30, 20), "rail": (4, 25, 30, 20), "crowd": (30, 100, 450, 120)}

# The CLI as a user starts it, plus one line that stamps the moment
# `infrasense.cli` is imported (on the system-wide monotonic clock), so that
# every call is also a set-up sample.
CLI = ("import sys, time; from infrasense.cli import main; "
       "open({stamp!r}, 'w').write(repr(time.monotonic())); sys.exit(main())")


# The reference: a fresh interpreter importing numpy and scipy.special,
# nothing of infrasense, so no change to the program moves it. This host's
# speed drifts by up to a quarter in phases of minutes, and the reference
# and the CLI calls drift together: the end-to-end times are scaled by
# REFERENCE_S / the run's median reference time, so they read as seconds on
# a host where the reference takes REFERENCE_S.
REFERENCE = ["-c", "import numpy, scipy.special"]
REFERENCE_S = 0.6  # s; it took 0.42–0.65 s on the machine of the README figures


@dataclass
class Call:
    code: int
    seconds: float
    rss_mb: float = 0.0
    setup: float | None = None  # s from spawn until infrasense.cli was imported


class SubprocessRunner:
    """One CLI call per fresh interpreter, timed from spawn to exit."""

    def __init__(self, env: dict, work: Path):
        self.env = env
        self.err = work / "stderr.txt"
        self.stamp = work / "imported.txt"

    def cli(self, args: list[str]) -> Call:
        self.stamp.unlink(missing_ok=True)
        code = CLI.format(stamp=str(self.stamp))
        with open(self.err, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, "-c", code, *args], env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(self.stamp.read_text()) - start if self.stamp.exists() else None
        return Call(proc.returncode, seconds, usage.ru_maxrss / 1024.0, setup)

    def reference(self) -> float:
        """Wall time of the reference (see REFERENCE)."""
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *REFERENCE], env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.wait4(proc.pid, 0)
        return time.monotonic() - start

    def last_error(self) -> str:
        return self.err.read_text().strip()[-400:]


class InProcessRunner:
    """``infrasense.cli.main`` in this process, under the tracer."""

    def __init__(self):
        from infrasense.cli import main
        self.main = main

    def cli(self, args: list[str]) -> Call:
        start = time.perf_counter()
        code = self.main(args)
        return Call(code, time.perf_counter() - start)

    def reference(self) -> None:
        return None

    def last_error(self) -> str:
        return "see stderr"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def op(self, name: str, problems: list[str], expected_failure: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not expected_failure:
                self.unexpected.append(f"{name}: {problems[0]}")

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


@dataclass
class RideInput:
    name: str
    ride: inputs.Ride
    csv: Path
    out: Path
    checks: tuple[str, ...]  # names of the ops run on its output
    expected_failures: tuple[str, ...] = ()


def build(workload: str, seed: int, work: Path, trace: bool) -> dict:
    """Generate and write the workload's inputs; return them with their truth."""

    def ride_input(name, ride, ops, expected=()):
        path = work / f"{name}.csv"
        ride.write_csv(path)
        return RideInput(name, ride, path, work / f"out-{name}", ops, expected)

    side = []
    if workload == "road":
        legs = [ride_input("base", inputs.road_ride(seed), ("potholes", "turns")),
                ride_input("doubled", inputs.road_ride(seed, roughness_scale=2.0),
                           ("potholes", "turns")),
                ride_input("gapped", inputs.road_ride(GAPPED_RIDE_SEED, gap=True),
                           ("potholes", "turns"), expected=("potholes",))]
    elif workload == "rail":
        legs = [ride_input("rail", inputs.rail_ride(seed), ("cant", "twist", "curves"),
                           expected=("curves",))]
    else:
        legs = [ride_input("short", inputs.road_ride(seed, duration=SHORT_RIDE),
                           ("potholes", "turns"))]
    if trace and workload == "rail":
        side.append(ride_input("side-road", inputs.road_ride(seed, duration=SIDE_RIDE),
                               ("potholes",)))
    elif trace:
        side.append(ride_input("side-rail", inputs.rail_ride(seed, duration=SIDE_RIDE,
                                                             curves=False), ("twist",)))
    rail_cfg = work / "rail.cfg"
    rail_cfg.write_text("context = rail\n")

    n_files, per_file, n_sites, n_nodes = CROWD_SIZES[workload]
    batch = inputs.crowd_batch(seed, n_files, per_file, n_sites)
    files = []
    for i, contributions in enumerate(batch.files):
        files.append(work / f"ride{i:03d}.geojson")
        inputs.write_geojson(contributions, files[-1])
    replay_file = work / "replay.geojson"
    inputs.write_geojson(batch.replay_file, replay_file)
    nodes = inputs.scenario(seed, n_nodes)
    scenario = work / "scenario.jsonl"
    inputs.write_scenario(nodes, scenario)
    return {"legs": legs, "side": side, "rail_cfg": rail_cfg, "batch": batch,
            "files": files, "replay_file": replay_file, "nodes": nodes,
            "scenario": scenario, "store": work / "store.jsonl",
            "snap1": work / "snapshot-write.geojson",
            "snap2": work / "snapshot-replay.geojson", "deliveries": work / "deliveries.csv"}


def check_ride(ride: RideInput, code: int, error: str) -> dict[str, list[str]]:
    """Problems of each op on one ride's outputs; a failed call fails them all."""
    if code != 0:
        return {op: [f"analyze exit {code}: {error}"] for op in ride.checks}
    collection = checks.load_json(ride.out / "indicators.geojson")
    truth = ride.ride.truth
    problems = {}
    for op in ride.checks:
        if op == "potholes":
            tol = checks.pothole_tolerance(checks.load_json(ride.out / "manifest.json"), ride.ride.speed)
            problems[op] = checks.check_potholes(collection, truth, tol)
        elif op == "turns":
            problems[op] = checks.check_turns(collection, truth, inputs.TURN_DURATION / 2)
        elif op == "cant":
            problems[op] = checks.check_cant_irregularity(
                *checks.read_geometry(ride.out / "geometry.csv"), truth)
        elif op == "twist":
            problems[op] = checks.check_twist(*checks.read_geometry(ride.out / "geometry.csv"))
        else:
            problems[op] = checks.check_curves(collection, truth, CURVE_LENGTH)
    return problems


def run_round(runner, data: dict, tally: Tally) -> None:
    """One round: a leg for each of the workload's rides (three on road, one
    on rail and crowd). A leg is the reference, one ride through `analyze`,
    the reference again, the batch through `aggregate` into an empty store,
    the store reopened with one more file, and the scenario through
    `simulate`. Outputs are checked before the next call overwrites them.
    Each CLI call in a fresh interpreter also gives a set-up sample: the
    time until it had imported the CLI. Traced runs then analyse the side
    rides: their outputs are checked, and a problem makes the run
    incorrect, but they are not counted as operations, so that traced and
    untraced runs attempt the same ones."""
    store, snap1, snap2 = data["store"], data["snap1"], data["snap2"]
    codes: dict[str, int] = {}  # analyze exit code of each ride

    def reference() -> None:
        seconds = runner.reference()
        if seconds is not None:
            tally.sample("reference_s", seconds)

    def call(metric: str | None, args: list[str]) -> Call:
        result = runner.cli(args)
        if metric:
            tally.sample(metric, result.seconds)
        if result.setup is not None:
            tally.sample("setup_s", result.setup)
        return result

    def analyze(ride: RideInput, metric: str | None) -> dict[str, list[str]]:
        args = ["analyze", str(ride.csv), "--out", str(ride.out)]
        if ride.ride.kind == "rail":
            args += ["--config", str(data["rail_cfg"])]
        result = call(metric, args)
        codes[ride.name] = result.code
        if metric:
            tally.sample("analyze_rss_mb", result.rss_mb)
        return check_ride(ride, result.code, runner.last_error() if result.code else "")

    for ride in data["legs"]:
        reference()
        for op, problems in analyze(ride, "analyze_s").items():
            tally.op(f"{ride.name}.{op}", problems, op in ride.expected_failures)
        reference()
        store.unlink(missing_ok=True)
        write = call("aggregate_s", ["aggregate", *map(str, data["files"]),
                                     "--store", str(store), "--out", str(snap1)])
        write_error = runner.last_error() if write.code else ""
        replay = call("replay_s", ["aggregate", str(data["replay_file"]),
                                   "--store", str(store), "--out", str(snap2)])
        if write.code or replay.code:
            error = write_error or runner.last_error()
            for op in ("matching", "fusion", "replay"):
                tally.op(op, [f"aggregate exit {write.code or replay.code}: {error}"])
        else:
            check_store(data, tally)
        simulate = call("simulate_s", ["simulate", "--scenario", str(data["scenario"]),
                                       "--out", str(data["deliveries"]),
                                       "--duration", str(inputs.SIM_DURATION)])
        if simulate.code:
            for op in ("deliveries", "duplicates"):
                tally.op(op, [f"simulate exit {simulate.code}: {runner.last_error()}"])
        else:
            deliveries = checks.read_deliveries(data["deliveries"])
            tally.op("deliveries", checks.check_deliveries(deliveries, data["nodes"], COMM_RANGE,
                                                           inputs.beacon_checksum))
            tally.op("duplicates", checks.check_no_duplicates(deliveries, data["nodes"],
                                                              inputs.beacon_checksum))

    by_name = {r.name: r for r in data["legs"]}
    if "base" in by_name and "doubled" in by_name:
        base, doubled = by_name["base"], by_name["doubled"]
        if codes["base"] or codes["doubled"]:
            problems = ["analyze failed"]
        else:
            cfg = checks.load_json(base.out / "manifest.json")["config"]
            problems = checks.check_roughness_doubling(
                checks.read_roughness(base.out / "roughness.csv"),
                checks.read_roughness(doubled.out / "roughness.csv"),
                base.ride.truth, base.ride.speed, cfg["roughness_segment_length"])
        tally.op("roughness_doubling", problems)

    for ride in data["side"]:
        for op, problems in analyze(ride, None).items():
            if problems:
                tally.unexpected.append(f"{ride.name}.{op}: {problems[0]}")


def check_store(data: dict, tally: Tally) -> None:
    """The ops on the store's event log and the two snapshots."""
    batch = data["batch"]
    contributions = [c for f in batch.files for c in f] + batch.replay_file
    log = checks.read_log(data["store"])
    snap1, snap2 = checks.load_json(data["snap1"]), checks.load_json(data["snap2"])
    written = len(contributions) - len(batch.replay_file)
    tally.op("matching", checks.check_log_inputs(log, contributions)
             or checks.check_matching(log, RADIUS))
    tally.op("fusion", checks.check_fusion(log[:written], snap1, HALF_LIFE, RADIUS)
             or checks.check_fusion(log, snap2, HALF_LIFE, RADIUS))
    touched = {rec["anchor_id"] for rec in log[written:]}
    tally.op("replay", checks.check_replay(snap1, snap2, touched))


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # the CLI sees this checkout's sources and none of the caller's PYTHON* settings
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    data = build(workload, seed, work, trace)
    tally = Tally()

    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        import tracing

        imports = [tracing.import_times(sys.executable, env, str(ROOT)) for _ in range(3)]
        tracer = tracing.Tracer()
        tracer.install()
        runner = InProcessRunner()
    else:
        # users do not compile the sources on every call
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        runner = SubprocessRunner(env, work)

    # Whole rounds: another starts while at least half of it fits before the
    # deadline, so a run ends within half a round of it either way.
    rounds = 0
    start = time.perf_counter()
    while True:
        run_round(runner, data, tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            break

    if trace:
        tracer.uninstall()
        metrics = {
            "import.transforms.s": (statistics.median(i["transforms"] for i in imports), "s"),
            "import.scipy.s": (statistics.median(i["scipy"] for i in imports), "s"),
            **tracer.metrics(rounds),
        }
        print(f"# traced: {rounds} rounds, in-process analyze median "
              f"{statistics.median(tally.samples['analyze_s']):.4f} s")
    else:
        raw = {name: statistics.median(tally.samples[name]) for name in END_TO_END}
        reference = statistics.median(tally.samples["reference_s"])
        metrics = {name: (raw[name] * REFERENCE_S / reference if unit == "s" else raw[name], unit)
                   for name, unit in END_TO_END.items()}
        print(f"# {rounds} rounds, {len(tally.samples['analyze_s'])} analyze calls; "
              f"reference median {reference:.4f} s; unscaled medians "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    for problem in tally.unexpected:
        print(f"# unexpected failure: {problem}")
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


END_TO_END = {"setup_s": "s", "analyze_s": "s", "analyze_rss_mb": "MB", "aggregate_s": "s",
              "replay_s": "s", "simulate_s": "s"}

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "infrasense" / "cli.py").is_file():
        print(f"no infrasense sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
