"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose output gives
one PASSED/FAILED line per criterion.
"""

import math
import time

import numpy as np
import pytest

from infrasense.aggregation import (
    MatchPolicy,
    SegmentAnchor,
    SegmentState,
    SegmentStore,
    fuse,
    great_circle,
)
from infrasense.dissemination import (
    MAX_ENTRIES,
    FormatError,
    IntegrityError,
    PacketEntry,
    SimNode,
    SsidPacket,
    decode_packet,
    run_simulation,
)
from infrasense.features import FramePlan, extract_features, feature_matrix
from infrasense.rail_analysis import cant_angle
from infrasense.reports import Indicator
from infrasense.road_analysis import (
    QuarterCar,
    detect_anomalies,
    quarter_car_states,
    roughness_index,
    simulate_quarter_car,
)
from infrasense.synth import (
    PROFILE_SPACING,
    Pothole,
    Sinusoid,
    SynthSpec,
    generate_trace,
    pothole_positions,
)
from infrasense.trace_model import gravity_split
from infrasense.transforms import emd, iswt, swt, wavedec, waverec

METERS_PER_DEG = math.pi / 180.0 * 6371000.0


def _report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num}: {name}"


def test_01_dwt_perfect_reconstruction():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(32, 4097))
        levels = int(rng.integers(1, min(5, int(math.log2(n)) - 1) + 1))
        wav = ("haar", "db4")[int(rng.integers(0, 2))]
        x = rng.normal(size=n)
        rec = waverec(wavedec(x, wav, levels))
        worst = max(worst, float(np.linalg.norm(rec - x) / np.linalg.norm(x)))
    elapsed = time.perf_counter() - t0
    _report(1, "DWT perfect reconstruction",
            worst < 1e-9 and elapsed < 10.0)


def test_02_swt_completeness_and_shift_equivariance():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        levels = int(rng.integers(1, 5))
        # circular equivariance needs a length the dyadic grid divides
        n = int(rng.integers(4, 33)) * 2 ** levels
        wav = ("haar", "db4")[int(rng.integers(0, 2))]
        x = rng.normal(size=n)
        dec = swt(x, wav, levels)
        ok &= float(np.max(np.abs(iswt(dec) - x))) < 1e-9
        shift = int(rng.integers(1, n))
        shifted = swt(np.roll(x, shift), wav, levels)
        for da, db in zip(dec.details, shifted.details):
            ok &= float(np.max(np.abs(np.roll(da, shift) - db))) < 1e-9
        ok &= float(np.max(np.abs(np.roll(dec.approx, shift) - shifted.approx))) < 1e-9
    _report(2, "SWT completeness and shift equivariance", ok)


def test_03_emd_completeness_and_two_tone():
    rng = np.random.default_rng(3)
    ok = True
    signals = [rng.normal(size=int(rng.integers(64, 1025))) for _ in range(50)]
    t = np.arange(0, 5, 1 / 200.0)
    structured = [
        np.sin(2 * np.pi * f * t) + 0.3 * np.sin(2 * np.pi * 3.7 * f * t + p)
        for f, p in zip(np.linspace(0.5, 8.0, 10), np.linspace(0, 3, 10))
    ]
    for x in signals + structured:
        res = emd(x)
        ok &= float(np.linalg.norm(res.reconstruct() - x) / np.linalg.norm(x)) < 1e-9

    two_tone = np.sin(2 * np.pi * 10 * t) + np.sin(2 * np.pi * 1 * t)
    res = emd(two_tone)
    freqs = np.fft.rfftfreq(len(t), 1 / 200.0)

    def dominant(sig):
        return freqs[np.argmax(np.abs(np.fft.rfft(sig)))]

    ok &= len(res) >= 2
    ok &= abs(dominant(res.imfs[0]) - 10.0) < 0.5
    ok &= abs(dominant(res.imfs[1]) - 1.0) < 0.5
    _report(3, "EMD completeness and two-tone separation", ok)


def _naive_features(window):
    x = list(map(float, window))
    m = len(x)
    mean = sum(x) / m

    def median(vals):
        s = sorted(vals)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])

    med = median(x)
    rms = math.sqrt(sum(v * v for v in x) / m)
    var = sum((v - mean) ** 2 for v in x) / m
    sd = math.sqrt(var)
    return {
        "mean": mean,
        "mad": median([abs(v - med) for v in x]),
        "rms": rms,
        "var": var,
        "sd": sd,
        "energy": math.sqrt(sum(v * v for v in x)),
        "skew": sum(((v - mean) / sd) ** 3 for v in x) / m if sd > 0 else 0.0,
        "kurt": sum(((v - mean) / sd) ** 4 for v in x) / m if sd > 0 else 0.0,
        "peak2peak": max(x) - min(x),
        "peak2rms": max(abs(v) for v in x) / rms if rms > 0 else 0.0,
    }


def test_04_feature_oracle_equivalence():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        w = rng.normal(scale=float(rng.uniform(0.1, 10.0)),
                       size=int(rng.integers(2, 64)))
        vec = extract_features(w)
        oracle = _naive_features(w)
        for name, val in zip(vec.names, vec.values):
            ok &= abs(val - oracle[name]) <= 1e-10
    fixed = dict(zip(*(lambda v: (v.names, v.values))(
        extract_features([1.0, -1.0, 1.0, -1.0]))))
    ok &= fixed == {"mean": 0.0, "mad": 1.0, "rms": 1.0, "var": 1.0, "sd": 1.0,
                    "energy": 2.0, "skew": 0.0, "kurt": 1.0,
                    "peak2peak": 2.0, "peak2rms": 1.0}
    _report(4, "feature oracle equivalence", ok)


def test_05_cant_formula():
    ok = abs(cant_angle(150.0) - 0.100167421) < 1e-9
    for h in (10.0, 75.0, 150.0, 1000.0):
        ok &= abs(cant_angle(-h) + cant_angle(h)) < 1e-15
    try:
        cant_angle(1501.0)
        ok = False
    except ValueError:
        pass
    _report(5, "cant formula", ok)


def test_06_roughness_homogeneity():
    t0 = time.perf_counter()

    def run(amp, seed):
        spec = SynthSpec(duration=65.0, speed=10.0, seed=seed,
                         sinusoids=(Sinusoid(amplitude_m=amp, wavelength_m=4.0),))
        trace = generate_trace(spec)
        reports, _ = roughness_index(trace, gravity_split(trace)[1])
        return reports

    a = run(0.004, seed=6)
    b = run(0.008, seed=6)
    ok = len(a) == len(b) >= 5
    for ra, rb in zip(a, b):
        ok &= abs(rb.index - 2.0 * ra.index) <= 0.05 * 2.0 * ra.index
    elapsed = time.perf_counter() - t0
    _report(6, "roughness homogeneity (amplitude doubling)", ok and elapsed < 30.0)


def test_07_end_to_end_anomaly_detection():
    ok = True
    window_len = 3.0
    for seed in range(10):
        spec = SynthSpec(duration=60.0, speed=10.0, seed=seed, noise_sigma=0.05,
                         potholes=(Pothole(100.0, 0.04, 0.5),
                                   Pothole(300.0, 0.05, 0.5),
                                   Pothole(480.0, 0.06, 0.5)))
        trace = generate_trace(spec)
        matrix = feature_matrix(trace.accel[:, 2] + 9.81,
                                FramePlan(window_len, 1 / 3, spec.rate))
        res = detect_anomalies(matrix, trace.fixes, k=3.0)
        truth = pothole_positions(spec)
        ok &= len(res.indicators) == 3  # exactly three: no misses, no FPs
        for ind in res.indicators:
            hits = []
            for s_true, lat, lon in truth:
                d = great_circle(ind.lat, ind.lon, lat, lon)
                dt = abs(ind.t - s_true / spec.speed)
                hits.append(d <= 10.0 or dt <= window_len / 2.0)
            ok &= any(hits)
    _report(7, "end-to-end anomaly detection, 10 seeds", ok)


def test_08_aggregation_fusion():
    policy = MatchPolicy(half_life=30 * 86400.0)

    def fresh():
        return SegmentState(anchor=SegmentAnchor(0, 51.0, 7.0, "anomaly"))

    # exact half-life example
    st = fuse(fresh(), 0.0, 2.0, policy)
    st = fuse(st, 30 * 86400.0, 4.0, policy)
    ok = abs(st.value - 10.0 / 3.0) < 1e-12

    # convexity + constant convergence over 1000 randomized sequences
    rng = np.random.default_rng(8)
    for trial in range(1000):
        n = int(rng.integers(2, 15))
        t, st = 0.0, fresh()
        if trial % 2 == 0:
            vals = rng.uniform(-50.0, 50.0, size=n)
        else:
            vals = np.full(n, float(rng.uniform(-50.0, 50.0)))
        for v in vals:
            t += float(rng.uniform(0.0, 90 * 86400.0))
            st = fuse(st, t, float(v), policy)
        ok &= float(np.min(vals)) - 1e-9 <= st.value <= float(np.max(vals)) + 1e-9
        if trial % 2 == 1:
            ok &= abs(st.value - vals[0]) < 1e-9

    # spatial matching vs exhaustive-scan oracle, 500 points
    store = SegmentStore()
    for _ in range(500):
        lat = 51.0 + float(rng.uniform(0, 400)) / METERS_PER_DEG
        lon = 7.0 + float(rng.uniform(0, 400)) / (
            METERS_PER_DEG * math.cos(math.radians(51.0)))
        snapshot = [(aid, s.anchor.lat, s.anchor.lon)
                    for aid, s in sorted(store.states.items())]
        ind = Indicator(kind="anomaly", sub_kind="", lat=lat, lon=lon, t=0.0,
                        severity=1, confidence=1.0, value=1.0)
        aid = store.match_segment(ind, policy)
        best, best_d = None, None
        for a, alat, alon in snapshot:
            d = great_circle(alat, alon, lat, lon)
            if d <= policy.radius and (best_d is None or d < best_d):
                best, best_d = a, d
        ok &= aid == (best if best is not None else max(store.states))
    _report(8, "aggregation fusion and matching oracle", ok)


def test_09_ssid_codec():
    rng = np.random.default_rng(9)

    def random_packet():
        n = int(rng.integers(0, MAX_ENTRIES + 1))
        entries = tuple(PacketEntry(
            int(rng.integers(-128, 128)), int(rng.integers(-128, 128)),
            int(rng.integers(0, 16)), int(rng.integers(0, 16)),
            int(rng.integers(0, 256))) for _ in range(n))
        return SsidPacket(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                          int(rng.integers(-90_000_000, 90_000_001)),
                          int(rng.integers(-180_000_000, 180_000_001)), entries)

    ok = True
    for _ in range(10_000):
        pkt = random_packet()
        ssid = pkt.to_ssid()
        ok &= len(ssid) == 32 and decode_packet(ssid) == pkt

    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
    silent = 0
    for _ in range(1000):
        pkt = random_packet()
        ssid = pkt.to_ssid()
        pos = int(rng.integers(0, 32))
        repl = alphabet[int(rng.integers(0, 64))]
        if repl == ssid[pos]:
            continue
        try:
            got = decode_packet(ssid[:pos] + repl + ssid[pos + 1:])
        except (FormatError, IntegrityError):
            continue
        if got != pkt:
            silent += 1
    _report(9, "SSID codec roundtrip and corruption rejection",
            ok and silent == 0)


def _ring_of_five():
    nodes = []
    radius = 40.0 / (2 * math.sin(math.pi / 5))
    for i in range(5):
        ang = 2 * math.pi * i / 5
        lat = 51.0 + radius * math.cos(ang) / METERS_PER_DEG
        lon = 7.0 + radius * math.sin(ang) / (
            METERS_PER_DEG * math.cos(math.radians(51.0)))
        nodes.append(SimNode(id=f"n{i}", waypoints=[(0.0, lat, lon)],
                             phase=5.0 * (i % 2)))
    return nodes


def test_10_dissemination_flooding():
    ssid = SsidPacket(1, 0, 51_000_000, 7_000_000,
                      (PacketEntry(0, 0, 1, 9, 128),)).to_ssid()

    def run():
        nodes = _ring_of_five()
        far = SimNode(id="zfar", waypoints=[(0.0, 60.0, 20.0)], phase=5.0)
        nodes[0].receive(ssid)
        log = run_simulation(nodes + [far], duration=5 * 10.0)
        return nodes, far, log

    nodes, far, log = run()
    ok = all(len(n.inbox) == 1 for n in nodes)  # full ring coverage
    ok &= far.inbox == {}  # disconnected component stays empty
    ok &= log == run()[2]  # identical runs give identical logs
    _report(10, "dissemination flooding", ok)


def test_11_quarter_car_sanity():
    flat = simulate_quarter_car(np.zeros(2001), PROFILE_SPACING, 10.0)
    ok = float(np.max(np.abs(flat))) < 1e-9

    p = QuarterCar(damping=0.0)
    states, _ = quarter_car_states(lambda t: 0.0, 10.0, p, 1000.0,
                                   init=(0.01, 0.0, 0.0, 0.0))
    zs, vs, zu, vu = states.T
    energy = (0.5 * vs ** 2 + 0.5 * p.mass_ratio * vu ** 2
              + 0.5 * p.suspension_stiffness * (zs - zu) ** 2
              + 0.5 * p.tire_stiffness * zu ** 2)
    ok &= float(np.max(np.abs(energy - energy[0]))) <= 0.01 * float(energy[0])
    _report(11, "quarter-car sanity", ok)
