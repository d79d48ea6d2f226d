"""Command-line orchestration.

Subcommands: analyze, synth, aggregate, simulate, encode, decode.
Exit codes: 0 success, 2 usage, 3 input error, 4 numeric failure. A failure
prints one JSON error line to stderr; a successful ``aggregate`` or
``simulate`` prints one JSON summary line to stdout.

Every output is written as a new file and then put in place
(:mod:`infrasense.outputs`): ``analyze`` writes into a temporary directory
inside ``--out`` (``new_dir``), the other commands into a temporary file
beside their ``--out`` (``new_file``); on success the old file is unlinked
and the new one renamed to its name. So a failed run, a failed write
included, leaves the old outputs as they were and no partial file, and no
run waits for the filesystem to flush a file it renames over or truncates.
Outputs get no ``fsync``. The store of ``aggregate`` alone is renamed over
the old log (``SegmentStore.save``).

``aggregate`` reopens a store from the checkpoint beside it,
``<store>.state``, when its format version, policy, log length and log CRC
match and its rows match their CRC; otherwise it replays the log, with the
same errors as with no checkpoint. It writes the ``--out`` snapshot, then
the checkpoint, then the log, so any failed write exits 3 with the old log
in place and the same call can be made again; a checkpoint of a log that
never landed matches no log and costs one replay. No checkpoint is written
for a store whose records were folded under more than one policy. The
summary line says whether the store came ``from_checkpoint``.

Every JSON-lines input (a JSONL trace, the store, a scenario) is read by
``reports.json_objects``, so a bad line is reported as
``<input>: line N: <reason>``.

Only :mod:`infrasense.reports` and :mod:`infrasense.outputs` are imported
here. Every other layer, the numpy ones and the crowd-side aggregation and
dissemination, is registered in ``sys.modules`` by :func:`_lazy` and runs on
first attribute access. So ``aggregate``, ``simulate``, ``encode`` and
``decode`` start without numpy, ``synth`` and ``analyze`` run neither crowd
layer, and ``aggregate`` runs no dissemination. No command loads
``numpy.ma``: the medians go through :func:`infrasense.trace_model.median`,
not ``np.median``.

Run as the program (``main()`` with no `argv`), a command freezes the heap
when it returns, so that interpreter exit skips its collection (see
:func:`main`).
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import json
import math
import os
import sys
import types
from dataclasses import asdict, replace

from . import __version__
from .outputs import new_dir, new_file
from .reports import indicators_from_geojson, indicators_to_geojson, json_objects


def _lazy(name: str, *submodules: str) -> types.ModuleType:
    """``infrasense.<name>``, put into ``sys.modules`` and bound on its parent
    like an import would, but run only on its first attribute access (the
    ``importlib.util.LazyLoader`` recipe); or the module already there.

    The spec is built from the file, so no parent package runs. A package's
    `submodules` are registered before it turns lazy, so that its own
    imports rebind their names as they would on an eager import.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    path = os.path.join(os.path.dirname(__file__), *name.split("."))
    spec = importlib.util.spec_from_file_location(
        full, os.path.join(path, "__init__.py") if submodules else path + ".py")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    parent, _, attr = full.rpartition(".")
    setattr(sys.modules[parent], attr, module)
    for sub in submodules:
        _lazy(f"{name}.{sub}")
    loader.exec_module(module)
    return module


trace_model = _lazy("trace_model")
transforms = _lazy("transforms", "wavelets", "emd")
features = _lazy("features")
road_analysis = _lazy("road_analysis")
rail_analysis = _lazy("rail_analysis")
config = _lazy("config")
synth = _lazy("synth")
aggregation = _lazy("aggregation")
dissemination = _lazy("dissemination")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message, "exit": code}), file=sys.stderr)
    return code


def _analyze_road(reoriented, plan, cfg: config.PipelineConfig, out: str) -> tuple[list, dict]:
    rt, linear = reoriented.trace, reoriented.linear
    matrix = features.feature_matrix(linear[:, 2], plan, cfg.feature_set, t=rt.t)
    matrix.to_csv(os.path.join(out, "features.csv"))

    result = road_analysis.detect_anomalies(matrix, rt.fixes, k=cfg.detector_k,
                                            feature_subset=cfg.detector_features)
    indicators = list(result.indicators)
    counts = {"anomalies": len(result.indicators)}
    try:
        indicators += road_analysis.classify_maneuvers(
            rt, linear, cfg.maneuver_omega_on, cfg.maneuver_omega_off)
    except trace_model.CapabilityError as e:
        counts["maneuvers_skipped"] = str(e)

    reports, skipped = road_analysis.roughness_index(
        rt, linear, band=(cfg.roughness_band_min, cfg.roughness_band_max),
        segment_length=cfg.roughness_segment_length)
    with open(os.path.join(out, "roughness.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s_start", "segment_length", "index_m_per_km", "mean_speed",
                    "band_min", "band_max"])
        for r in reports:
            w.writerow([r.s_start, r.segment_length, r.index, r.mean_speed, *r.band])
    return indicators, {**counts, "roughness_segments": len(reports), "roughness_skipped": skipped}


def _analyze_rail(reoriented, cfg: config.PipelineConfig, out: str) -> tuple[list, dict]:
    profile, skipped = rail_analysis.cant_from_roll(
        reoriented.trace, wavelength_band=(cfg.rail_wavelength_min, cfg.rail_wavelength_max))
    rail_analysis.geometry_to_csv(profile, os.path.join(out, "geometry.csv"),
                                  twist_bases=cfg.rail_twist_bases)
    indicators = rail_analysis.classify_curves(profile, threshold=cfg.rail_curvature_threshold)
    return indicators, {"geometry_points": len(profile), "spans_skipped": skipped}


def cmd_analyze(args) -> int:
    try:
        cfg = config.load_config(args.config) if args.config else config.PipelineConfig()
    except (OSError, UnicodeError, config.ConfigError) as e:
        return _fail(EXIT_INPUT, f"config: {e}")
    try:
        fmt = "jsonl" if str(args.trace).endswith(".jsonl") else "csv"
        trace, report = trace_model.parse_trace(args.trace, fmt)
    except (OSError, trace_model.TraceError, ValueError) as e:
        return _fail(EXIT_INPUT, f"trace: {e}")
    if cfg.context == "road":
        try:
            plan = features.FramePlan(cfg.frame_window_len, cfg.frame_overlap, trace.rate)
        except ValueError:
            return _fail(EXIT_INPUT, f"config: frame.window_len = {cfg.frame_window_len:g} s "
                         f"holds fewer than 2 samples at the trace's {trace.rate:g} Hz")
        n = len(trace.t)
        windows = plan.n_windows(n)
        if windows < road_analysis.MIN_WINDOWS:
            return _fail(EXIT_INPUT, f"config: frame.window_len = {cfg.frame_window_len:g} s "
                         f"gives {windows} windows on the trace's {n} samples at "
                         f"{trace.rate:g} Hz; the detector needs at least "
                         f"{road_analysis.MIN_WINDOWS}")

    try:
        with new_dir(args.out) as tmp:
            reoriented = trace_model.reorient(trace, tau=cfg.gravity_tau)
            if cfg.context == "road":
                indicators, counts = _analyze_road(reoriented, plan, cfg, tmp)
            else:
                indicators, counts = _analyze_rail(reoriented, cfg, tmp)
            indicators_to_geojson(indicators, os.path.join(tmp, "indicators.geojson"))
            manifest = {
                "tool": "infrasense",
                "version": __version__,
                "config_hash": config.config_hash(cfg),
                "config": config.config_values(cfg),
                "trace": str(args.trace),
                "parse_report": asdict(report),
                "gaps": trace_model.sampling_gaps(trace.t),
                "counts": {"indicators": len(indicators), **counts,
                           "forward_resolved": reoriented.forward_resolved},
            }
            with open(os.path.join(tmp, "manifest.json"), "w") as fh:
                json.dump(manifest, fh, indent=2)
    except (trace_model.TraceError, features.FeatureError, transforms.TransformError,
            road_analysis.RoadAnalysisError, rail_analysis.RailAnalysisError,
            ValueError) as e:
        return _fail(EXIT_NUMERIC, f"analysis: {e}")
    except OSError as e:
        return _fail(EXIT_INPUT, f"out: {e}")
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        spec = synth.SynthSpec.from_json(args.spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    except (OSError, TypeError, ValueError, json.JSONDecodeError) as e:
        return _fail(EXIT_INPUT, f"spec: {e}")
    try:
        trace = synth.generate_trace(spec)
    except road_analysis.StepInstabilityError as e:
        return _fail(EXIT_NUMERIC, f"synth: {e}")
    try:
        trace_model.write_trace_csv(trace, args.out)
    except OSError as e:
        return _fail(EXIT_INPUT, f"out: {e}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    if not (args.radius > 0 and args.half_life > 0):
        return _fail(EXIT_USAGE, "--radius and --half-life must be positive")
    policy = aggregation.MatchPolicy(radius=args.radius, half_life=args.half_life)
    try:
        if os.path.exists(args.store):
            store = aggregation.SegmentStore.load(args.store, policy)
        else:
            store = aggregation.SegmentStore()
    except (OSError, aggregation.StoreError) as e:
        return _fail(EXIT_INPUT, f"store: {e}")
    try:
        for path in args.indicators:
            for ind in indicators_from_geojson(path):
                store.contribute(ind, policy)
    except (OSError, KeyError, ValueError, aggregation.AggregationError) as e:
        return _fail(EXIT_INPUT, f"indicators: {e}")
    # The snapshot goes first: if it cannot be written, the store is left as
    # it was, and the same call can be made again.
    if args.out:
        try:
            store.snapshot_geojson(args.out)
        except OSError as e:
            return _fail(EXIT_INPUT, f"out: {e}")
    try:
        store.save(args.store)
    except OSError as e:
        return _fail(EXIT_INPUT, f"store: {e}")
    print(json.dumps({"replayed": store.replayed, "contributed": len(store.records),
                      "rejected": store.rejected, "anchors": len(store),
                      "from_checkpoint": store.from_checkpoint}))
    return EXIT_OK


def _load_scenario(path) -> list[dissemination.SimNode]:
    """One node per non-blank JSONL line (`json_objects`); a line that does
    not make a node raises ValueError naming its line number."""
    nodes = []
    with open(path) as fh:
        for lineno, obj in json_objects(fh, ValueError):
            try:
                node = dissemination.SimNode(
                    id=str(obj["id"]),
                    waypoints=[tuple(w) for w in obj["waypoints"]],
                    duty=obj.get("duty", 0.5),
                    period=obj.get("period", 10.0),
                    phase=obj.get("phase", 0.0),
                )
                for ssid in obj.get("packets", []):
                    node.receive(ssid)
            except KeyError as e:
                raise ValueError(f"line {lineno}: missing key {e}") from e
            except (TypeError, ValueError) as e:
                raise ValueError(f"line {lineno}: {e}") from e
            nodes.append(node)
    return nodes


def cmd_simulate(args) -> int:
    if not (args.dt > 0 and args.range > 0):
        return _fail(EXIT_USAGE, "--dt and --range must be positive")
    if not 0 <= args.duration < math.inf:
        return _fail(EXIT_USAGE, "--duration must be finite and non-negative")
    try:
        nodes = _load_scenario(args.scenario)
        log = dissemination.run_simulation(nodes, duration=args.duration, dt=args.dt,
                                           comm_range=args.range)
    except (OSError, KeyError, TypeError, ValueError) as e:
        return _fail(EXIT_INPUT, f"scenario: {e}")
    try:
        with new_file(args.out, newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "src", "dst", "checksum"])
            for d in log:
                w.writerow([d.t, d.src, d.dst, d.checksum])
    except OSError as e:
        return _fail(EXIT_INPUT, f"out: {e}")
    print(json.dumps({"nodes": len(nodes),
                      "steps": dissemination.step_count(args.duration, args.dt),
                      "deliveries": len(log)}))
    return EXIT_OK


def cmd_encode(args) -> int:
    if not (abs(args.lat) <= 90.0 and abs(args.lon) <= 180.0):
        return _fail(EXIT_USAGE, "--lat and --lon must be finite, within 90 and 180 degrees")
    try:
        indicators = indicators_from_geojson(args.indicators)
    except (OSError, KeyError, ValueError) as e:
        return _fail(EXIT_INPUT, f"indicators: {e}")
    if not all(abs(ind.lat) <= 90.0 and abs(ind.lon) <= 180.0 for ind in indicators):
        return _fail(EXIT_INPUT, "indicators: a position lies off WGS84")
    ssid, report = dissemination.encode_packet(args.lat, args.lon, indicators)
    print(ssid)
    if report.truncated or report.clamped:
        print(json.dumps({"truncated": report.truncated, "clamped": report.clamped}),
              file=sys.stderr)
    return EXIT_OK


def cmd_decode(args) -> int:
    try:
        packet = dissemination.decode_packet(args.ssid)
    except (dissemination.FormatError, dissemination.IntegrityError) as e:
        return _fail(EXIT_INPUT, f"decode: {e}")
    lat, lon = packet.origin
    print(json.dumps({
        "version": packet.version,
        "flags": packet.flags,
        "origin": {"lat": lat, "lon": lon},
        "entries": [
            {"d_north_m": e.d_north * 10, "d_east_m": e.d_east * 10,
             "type": e.type, "severity": e.severity, "confidence": e.confidence}
            for e in packet.entries
        ],
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="infrasense",
        description="Crowd-sensed transport infrastructure monitoring toolkit.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the road or rail pipeline on a trace")
    pa.add_argument("trace")
    pa.add_argument("--config", default=None)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("synth", help="generate a synthetic trace")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_synth)

    pg = sub.add_parser("aggregate", help="fuse indicator files into a store")
    pg.add_argument("indicators", nargs="+")
    pg.add_argument("--store", required=True)
    pg.add_argument("--out", default=None)
    pg.add_argument("--radius", type=float, default=15.0)
    pg.add_argument("--half-life", type=float, default=30 * 86400.0)
    pg.set_defaults(func=cmd_aggregate)

    pm = sub.add_parser("simulate", help="run the beacon dissemination simulator")
    pm.add_argument("--scenario", required=True)
    pm.add_argument("--out", required=True)
    pm.add_argument("--duration", type=float, default=60.0)
    pm.add_argument("--dt", type=float, default=1.0)
    pm.add_argument("--range", type=float, default=50.0)
    pm.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("encode", help="encode indicators into an SSID beacon")
    pe.add_argument("indicators")
    pe.add_argument("--lat", type=float, required=True)
    pe.add_argument("--lon", type=float, required=True)
    pe.set_defaults(func=cmd_encode)

    pd = sub.add_parser("decode", help="decode an SSID beacon")
    pd.add_argument("ssid")
    pd.set_defaults(func=cmd_decode)
    return p


def main(argv=None) -> int:
    """Run the command in `argv`, or in ``sys.argv`` when `argv` is None.

    With `argv` None, ``main`` runs as the program: the console script,
    ``python -m infrasense.cli`` and a ``python -c`` that calls ``main()``
    all call it that way, and the interpreter exits when it returns. So it
    then freezes the heap (``gc.freeze``) after the command: interpreter
    exit then does not sweep every module's objects for cycles before the
    operating system takes the memory back. atexit handlers still run and
    stdout and stderr are still flushed; every output file is already
    closed. A caller that passes `argv` (the tests, an embedding process)
    may go on running, so its heap is left to the collector.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args)
    if argv is None:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
