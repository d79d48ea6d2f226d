import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infrasense import dissemination
from infrasense.aggregation import great_circle
from infrasense.cli import _load_scenario
from infrasense.dissemination import (
    MAX_ENTRIES,
    SSID_CHARS,
    FormatError,
    IntegrityError,
    PacketEntry,
    SimNode,
    SsidPacket,
    crc16_ccitt,
    decode_packet,
    encode_packet,
    run_simulation,
)
from infrasense.reports import Indicator
from conftest import perfbench_module
from oracles import run_simulation_pairs

METERS_PER_DEG = math.pi / 180.0 * 6371000.0


def random_packet(rng):
    n = int(rng.integers(0, MAX_ENTRIES + 1))
    entries = tuple(PacketEntry(
        d_north=int(rng.integers(-128, 128)), d_east=int(rng.integers(-128, 128)),
        type=int(rng.integers(0, 16)), severity=int(rng.integers(0, 16)),
        confidence=int(rng.integers(0, 256)),
    ) for _ in range(n))
    return SsidPacket(
        version=int(rng.integers(0, 16)), flags=int(rng.integers(0, 16)),
        lat_e6=int(rng.integers(-90_000_000, 90_000_001)),
        lon_e6=int(rng.integers(-180_000_000, 180_000_001)),
        entries=entries,
    )


def crc16_bitwise(data: bytes, init: int = 0xFFFF) -> int:
    """Bit-by-bit CRC-16/CCITT-FALSE (poly 0x1021), the oracle for crc16_ccitt."""
    crc = init
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


class TestCrc16:
    @given(data=st.binary(max_size=64), init=st.integers(0, 0xFFFF))
    @settings(max_examples=300)
    def test_matches_bitwise_oracle(self, data, init):
        assert crc16_ccitt(data, init) == crc16_bitwise(data, init)

    def test_check_value(self):
        # standard CRC-16/CCITT-FALSE check: "123456789" -> 0x29B1
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_sensitivity(self):
        assert crc16_ccitt(b"abc") != crc16_ccitt(b"abd")


class TestCodec:
    def test_ssid_is_32_chars(self, rng):
        for _ in range(200):
            assert len(random_packet(rng).to_ssid()) == SSID_CHARS

    def test_roundtrip_random(self, rng):
        for _ in range(500):
            pkt = random_packet(rng)
            assert decode_packet(pkt.to_ssid()) == pkt

    def test_field_validation(self):
        with pytest.raises(ValueError):
            PacketEntry(200, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            PacketEntry(0, 0, 16, 0, 0)
        with pytest.raises(ValueError):
            SsidPacket(1, 0, 91_000_000, 0)
        with pytest.raises(ValueError):
            SsidPacket(1, 0, 0, 0, entries=(PacketEntry(0, 0, 0, 0, 0),) * 4)

    def test_wrong_length_is_format_error(self):
        with pytest.raises(FormatError):
            decode_packet("A" * 31)
        with pytest.raises(FormatError):
            decode_packet("A" * 33)

    def test_bad_alphabet_is_format_error(self):
        ssid = SsidPacket(1, 0, 0, 0).to_ssid()
        with pytest.raises(FormatError):
            decode_packet("!" + ssid[1:])
        with pytest.raises(FormatError):
            decode_packet(ssid[:-1] + "+")  # standard-b64 char, not urlsafe

    def test_corruption_never_silently_decodes(self, rng):
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
        silent = 0
        for _ in range(100):
            pkt = random_packet(rng)
            ssid = pkt.to_ssid()
            pos = int(rng.integers(0, SSID_CHARS))
            repl = alphabet[int(rng.integers(0, 64))]
            if repl == ssid[pos]:
                continue
            corrupted = ssid[:pos] + repl + ssid[pos + 1:]
            try:
                got = decode_packet(corrupted)
            except (FormatError, IntegrityError):
                continue
            if got != pkt:
                silent += 1
        assert silent == 0

    def test_checksum_matches_trailing_bytes(self, rng):
        pkt = random_packet(rng)
        raw = pkt.to_bytes()
        assert crc16_ccitt(raw[:-2]) == int.from_bytes(raw[-2:], "little")


class TestEncodePacket:
    def anomaly(self, north_m, severity=160, kind="anomaly", confidence=0.5):
        return Indicator(kind=kind, sub_kind="point",
                         lat=51.0 + north_m / METERS_PER_DEG, lon=7.0,
                         t=0.0, severity=severity, confidence=confidence, value=1.0)

    def test_100m_north_offset(self):
        ssid, report = encode_packet(51.0, 7.0, [self.anomaly(100.0)])
        pkt = decode_packet(ssid)
        assert pkt.entries[0].d_north == 10
        assert pkt.entries[0].d_east == 0
        assert report.truncated == 0 and report.clamped == 0

    def test_origin_quantization(self):
        ssid, _ = encode_packet(51.1234567, 7.7654321, [])
        lat, lon = decode_packet(ssid).origin
        assert lat == pytest.approx(51.1234567, abs=5e-7)
        assert lon == pytest.approx(7.7654321, abs=5e-7)

    def test_truncates_to_top_three_severities(self):
        inds = [self.anomaly(10.0 * i, severity=s)
                for i, s in enumerate((144, 96, 112, 80, 160))]
        ssid, report = encode_packet(51.0, 7.0, inds)
        pkt = decode_packet(ssid)
        assert report.truncated == 2
        assert [e.severity for e in pkt.entries] == [10, 9, 7]  # 160,144,112 >> 4

    def test_far_entry_clamped(self):
        ssid, report = encode_packet(51.0, 7.0, [self.anomaly(5000.0)])
        assert report.clamped == 1
        assert decode_packet(ssid).entries[0].d_north == 127

    def test_confidence_scaling(self):
        ssid, _ = encode_packet(51.0, 7.0, [self.anomaly(0.0, confidence=1.0)])
        assert decode_packet(ssid).entries[0].confidence == 255


def grid_nodes(n, spacing_m=40.0, ring=False, **kw):
    """n stationary nodes on a line (or ring) spaced `spacing_m` apart."""
    nodes = []
    for i in range(n):
        if ring:
            ang = 2 * math.pi * i / n
            radius = spacing_m / (2 * math.sin(math.pi / n))
            north, east = radius * math.cos(ang), radius * math.sin(ang)
        else:
            north, east = i * spacing_m, 0.0
        lat = 51.0 + north / METERS_PER_DEG
        lon = 7.0 + east / (METERS_PER_DEG * math.cos(math.radians(51.0)))
        nodes.append(SimNode(id=f"n{i}", waypoints=[(0.0, lat, lon)], **kw))
    return nodes


def seed_packet(node, severity=10):
    ssid = SsidPacket(1, 0, 51_000_000, 7_000_000,
                      (PacketEntry(0, 0, 1, severity, 128),)).to_ssid()
    node.receive(ssid)
    return ssid


class TestSimNode:
    def test_duty_schedule(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], duty=0.5,
                       period=10.0, phase=0.0)
        assert node.mode(0.0) == "hotspot"
        assert node.mode(4.9) == "hotspot"
        assert node.mode(5.0) == "client"
        assert node.mode(10.0) == "hotspot"

    def test_phase_shifts_schedule(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], phase=5.0)
        assert node.mode(0.0) == "client"
        assert node.mode(5.0) == "hotspot"

    def test_waypoint_interpolation(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0), (10.0, 51.001, 7.0)])
        assert node.position(5.0) == (pytest.approx(51.0005), 7.0)
        assert node.position(-1.0) == (51.0, 7.0)
        assert node.position(99.0) == (51.001, 7.0)

    def test_receive_deduplicates(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)])
        ssid = seed_packet(node)
        assert not node.receive(ssid)
        assert len(node.inbox) == 1

    def test_inbox_is_filled_only_by_receive(self):
        # an inbox given at construction would hold packets whose severity
        # `best_packet` never recorded
        ssid = SsidPacket(1, 0, 51_000_000, 7_000_000).to_ssid()
        with pytest.raises(TypeError):
            SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], inbox={123: ssid})

    def test_best_packet_highest_severity(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)])
        lo = seed_packet(node, severity=3)
        hi = seed_packet(node, severity=12)
        assert node.best_packet() == hi != lo


class TestReceive:
    """De-duplication by checksum; a held SSID is refused without decoding."""

    @staticmethod
    def counted(monkeypatch):
        decoded = []
        monkeypatch.setattr(dissemination, "decode_packet",
                            lambda ssid: decoded.append(ssid) or decode_packet(ssid))
        return decoded

    def test_held_beacon_refused_undecoded(self, monkeypatch):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)])
        ssid = seed_packet(node, severity=7)
        held = (dict(node.inbox), dict(node.severities))
        decoded = self.counted(monkeypatch)
        assert not node.receive(ssid)
        assert not node.receive(ssid)
        assert decoded == []
        assert (node.inbox, node.severities) == held

    def test_same_checksum_other_ssid_is_duplicate(self):
        # search the entry fields for two beacons whose CRC-16 collides
        first = {}
        for confidence, d_north in itertools.product(range(256), range(-128, 128)):
            packet = SsidPacket(1, 0, 51_000_000, 7_000_000,
                                (PacketEntry(d_north, 0, 1, 5, confidence),))
            other = first.setdefault(packet.checksum, packet)
            if other is not packet:
                break
        a, b = other.to_ssid(), packet.to_ssid()
        assert a != b and decode_packet(a).checksum == decode_packet(b).checksum
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)])
        assert node.receive(a)
        assert not node.receive(b)
        assert not node.receive(b)
        assert node.inbox == {other.checksum: a}
        assert node.severities == {other.checksum: 5}
        assert node.best_packet() == a

    def test_bad_beacon_raises_every_time(self):
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)])
        held = seed_packet(node)
        seed_packet(node, severity=3)
        flipped = held[:-1] + ("A" if held[-1] != "A" else "B")  # CRC bits changed
        bad = [(FormatError, "A" * 31), (FormatError, "!" + held[1:]),
               (FormatError, held[:-1] + "+"), (FormatError, [held]), (FormatError, None),
               (IntegrityError, flipped)]
        for error, ssid in bad:
            for _ in range(3):
                with pytest.raises(error):
                    node.receive(ssid)
        assert sorted(node.severities.values()) == [3, 10] and len(node.inbox) == 2

    def test_benchmark_scenario_decodes_each_delivery_once(self, tmp_path, monkeypatch):
        inputs = perfbench_module("inputs", monkeypatch)
        nodes = benchmark_nodes(inputs, 120, tmp_path)
        decoded = self.counted(monkeypatch)
        log = run_simulation(nodes, inputs.SIM_DURATION, 1.0, 50.0)
        assert log and len(decoded) == len(log)


class TestSimulation:
    def test_two_nodes_complementary_phases(self):
        a, b = grid_nodes(2, spacing_m=30.0)
        b.phase = 5.0  # b listens while a talks
        seed_packet(a)
        log = run_simulation([a, b], duration=10.0)
        assert [d.dst for d in log] == ["n1"]
        assert log[0].t == 0.0
        assert len(b.inbox) == 1

    def test_each_beacon_decoded_once(self, monkeypatch):
        # the severity and checksum recorded at receipt serve best_packet and
        # the delivery log, so only receive decodes
        a, b = grid_nodes(2, spacing_m=30.0)
        b.phase = 5.0
        seed_packet(a, severity=3)
        best = decode_packet(seed_packet(a, severity=12)).checksum
        decoded = []
        monkeypatch.setattr(dissemination, "decode_packet",
                            lambda ssid: decoded.append(ssid) or decode_packet(ssid))
        log = run_simulation([a, b], duration=10.0)
        assert [(d.src, d.dst, d.checksum) for d in log] == [("n0", "n1", best)]
        # ten receipts: a to b at t = 0..4, then b to a at t = 5..9; only the
        # first is new to its receiver, and a held beacon is refused undecoded
        assert len(decoded) == 1

    def test_aligned_phases_never_deliver(self):
        a, b = grid_nodes(2, spacing_m=30.0)
        seed_packet(a)
        log = run_simulation([a, b], duration=30.0)
        assert log == []

    def test_out_of_range_never_delivers(self):
        a, b = grid_nodes(2, spacing_m=10_000.0)
        b.phase = 5.0
        seed_packet(a)
        assert run_simulation([a, b], duration=60.0) == []

    def test_ring_floods_within_five_cycles(self):
        nodes = grid_nodes(5, spacing_m=40.0, ring=True)
        for i, n in enumerate(nodes):
            n.phase = 5.0 * (i % 2)
        seed_packet(nodes[0])
        run_simulation(nodes, duration=5 * 10.0)
        assert all(len(n.inbox) == 1 for n in nodes)

    def test_disconnected_component_never_receives(self):
        nodes = grid_nodes(3, spacing_m=40.0)
        far = grid_nodes(1, spacing_m=0.0)[0]
        far.id = "zfar"
        far.waypoints = [(0.0, 60.0, 20.0)]
        for i, n in enumerate(nodes):
            n.phase = 5.0 * (i % 2)
        far.phase = 5.0
        seed_packet(nodes[0])
        run_simulation(nodes + [far], duration=100.0)
        assert far.inbox == {}
        assert all(len(n.inbox) == 1 for n in nodes)

    def test_packet_conservation(self):
        # every delivery carries one of the seeded checksums, nothing invented
        nodes = grid_nodes(4, spacing_m=40.0)
        for i, n in enumerate(nodes):
            n.phase = 5.0 * (i % 2)
        seeded = {seed_packet(nodes[0], 5), seed_packet(nodes[3], 9)}
        seeded_crcs = {decode_packet(s).checksum for s in seeded}
        log = run_simulation(nodes, duration=120.0)
        assert log and {d.checksum for d in log} <= seeded_crcs
        for n in nodes:
            assert set(n.inbox) <= seeded_crcs

    def test_identical_runs_identical_logs(self):
        def run():
            nodes = grid_nodes(5, spacing_m=40.0, ring=True)
            for i, n in enumerate(nodes):
                n.phase = 5.0 * (i % 2)
            seed_packet(nodes[0])
            return run_simulation(nodes, duration=50.0)

        assert run() == run()

    def test_step_argument_validation(self):
        nodes = grid_nodes(2)
        with pytest.raises(ValueError):
            run_simulation(nodes, 0.0, -1.0, 50.0)
        with pytest.raises(ValueError):
            run_simulation(nodes, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("duration,dt,comm_range", [
        (10.0, 0.0, 50.0), (10.0, math.nan, 50.0), (10.0, 1.0, math.nan),
        (-1.0, 1.0, 50.0), (math.nan, 1.0, 50.0), (math.inf, 1.0, 50.0)])
    def test_bad_run_arguments(self, duration, dt, comm_range):
        with pytest.raises(ValueError):
            run_simulation(grid_nodes(2), duration, dt, comm_range)

    def test_repeated_node_id(self):
        a, b = grid_nodes(2, spacing_m=30.0)
        b.id, b.phase = a.id, 5.0
        seed_packet(a)
        with pytest.raises(ValueError, match="repeated node id"):
            run_simulation([a, b], duration=10.0)

    def test_one_mode_and_position_read_per_node_step(self, monkeypatch):
        calls = {"mode": 0, "position": 0}
        for name in calls:
            method = getattr(SimNode, name)

            def counted(self, t, method=method, name=name):
                calls[name] += 1
                return method(self, t)
            monkeypatch.setattr(SimNode, name, counted)
        nodes = grid_nodes(3, spacing_m=30.0)
        nodes[1].phase = 5.0
        seed_packet(nodes[0])
        assert run_simulation(nodes, duration=4.0)
        assert calls == {"mode": 12, "position": 12}

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            SimNode(id="a", waypoints=[])
        with pytest.raises(ValueError):
            SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], duty=1.5)

    @pytest.mark.parametrize("schedule", [
        {"period": math.nan}, {"period": math.inf}, {"phase": math.nan},
        {"phase": math.inf}, {"duty": math.nan}])
    def test_non_finite_schedule(self, schedule):
        with pytest.raises(ValueError, match="duty schedule"):
            SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], **schedule)

    @pytest.mark.parametrize("waypoint", [
        (0.0, math.nan, 7.0), (0.0, 51.0, math.inf), (math.nan, 51.0, 7.0), (0.0, 51.0)])
    def test_bad_waypoint(self, waypoint):
        with pytest.raises(ValueError, match="finite"):
            SimNode(id="a", waypoints=[(5.0, 51.0, 7.0), waypoint])

    @pytest.mark.parametrize("lat, lon", [
        (1.0, -424063994666.381), (90.5, 7.0), (-91.0, 7.0), (51.0, 180.01), (51.0, -360.0)])
    def test_waypoint_off_wgs84(self, lat, lon):
        with pytest.raises(ValueError, match="within 90 and 180 degrees"):
            SimNode(id="a", waypoints=[(0.0, 51.0, 7.0), (5.0, lat, lon)])

    def test_waypoints_at_the_wgs84_bounds(self):
        node = SimNode(id="a", waypoints=[(0.0, 90.0, 180.0), (5.0, -90.0, -180.0)])
        assert node.position(5.0) == (-90.0, -180.0)

    def test_decreasing_waypoint_times(self):
        with pytest.raises(ValueError, match="must not decrease"):
            SimNode(id="a", waypoints=[(10.0, 51.0, 7.0), (0.0, 51.001, 7.0)])
        node = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0), (5.0, 51.001, 7.0),
                                          (5.0, 51.002, 7.0)])  # a jump
        assert node.position(5.0) == (51.002, 7.0)


@st.composite
def scenario_specs(draw):
    """Nodes within a few hundred meters of each other, parked or moving,
    with random duty schedules and up to three seeded packets."""
    n = draw(st.integers(2, 25))
    ids = draw(st.lists(st.text("abvxz", min_size=1, max_size=3),
                        min_size=n, max_size=n, unique=True))
    offset = st.floats(-300.0, 300.0)
    nodes = []
    for node_id in ids:
        k = draw(st.integers(1, 4))
        times = sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=k, max_size=k)))
        if draw(st.booleans()):
            places = draw(st.lists(st.tuples(offset, offset), min_size=k, max_size=k))
        else:
            places = [draw(st.tuples(offset, offset))] * k
        waypoints = [(t, 51.0 + north / METERS_PER_DEG,
                      7.0 + east / (METERS_PER_DEG * math.cos(math.radians(51.0))))
                     for t, (north, east) in zip(times, places)]
        period = draw(st.floats(1.0, 30.0))
        nodes.append(SimNode(id=node_id, waypoints=waypoints, duty=draw(st.floats(0.0, 1.0)),
                             period=period, phase=draw(st.floats(-period, period))))
    for holder, severity, lat_e6 in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                      st.integers(50_000_000, 52_000_000)), max_size=3)):
        nodes[holder].receive(SsidPacket(1, 0, lat_e6, 7_000_000,
                                         (PacketEntry(0, 0, 1, severity, 128),)).to_ssid())
    return nodes


def assert_matches_oracle(nodes, duration, dt, comm_range):
    reference = copy.deepcopy(nodes)
    expected = run_simulation_pairs(reference, duration, dt, comm_range)
    assert run_simulation(nodes, duration, dt, comm_range) == expected
    assert [list(n.inbox.items()) for n in nodes] == \
        [list(n.inbox.items()) for n in reference]


class TestSimulationOracle:
    """The one-snapshot step gives the deliveries and inboxes of the
    pairwise step it replaced."""

    @given(nodes=scenario_specs(), comm_range=st.floats(10.0, 300.0),
           dt=st.sampled_from([0.5, 1.0, 2.5]), duration=st.floats(0.0, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_oracle(self, nodes, comm_range, dt, duration):
        assert_matches_oracle(nodes, duration, dt, comm_range)

    def test_benchmark_scenario(self, tmp_path, monkeypatch):
        inputs = perfbench_module("inputs", monkeypatch)
        nodes = benchmark_nodes(inputs, 120, tmp_path)
        assert_matches_oracle(nodes, inputs.SIM_DURATION, 1.0, 50.0)
        assert sum(len(n.inbox) for n in nodes) > 12  # the seeded packets spread


def benchmark_nodes(inputs, n_nodes, tmp_path):
    scenario = tmp_path / f"scenario-{n_nodes}.jsonl"
    inputs.write_scenario(inputs.scenario(1, n_nodes), scenario)
    return _load_scenario(scenario)


class TestNeighbourIndex:
    """The step's grid index over client positions."""

    def test_flat_from_250_to_1000_nodes(self, tmp_path, monkeypatch):
        """Distance evaluations per node-step stay flat at the benchmark's
        constant vehicle density (counts, not time)."""
        inputs = perfbench_module("inputs", monkeypatch)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return great_circle(*args)
        monkeypatch.setattr(dissemination, "great_circle", counted)
        per_node_step = []
        for n_nodes in (250, 1000):
            nodes = benchmark_nodes(inputs, n_nodes, tmp_path)
            calls[0] = 0
            assert run_simulation(nodes, inputs.SIM_DURATION)
            per_node_step.append(calls[0] / (n_nodes * inputs.SIM_DURATION))
        assert max(per_node_step) <= 1.5 * min(per_node_step), per_node_step

    @pytest.mark.parametrize("lat,lon", [(60.0, 179.9995), (-60.0, -180.0), (89.95, 0.0)])
    def test_line_across_antimeridian_or_near_pole(self, lat, lon):
        # 20 parked vehicles 30 m apart on an east-west line with alternating
        # roles, and 30 bystanders 1 km north so that the step's index holds
        # more clients than a query visits cells; the pairwise step is the
        # reference
        nodes = []
        for i in range(50):
            north, east = (0.0, (i - 10) * 30.0) if i < 20 else (1000.0, (i - 35) * 30.0)
            node_lat = lat + north / METERS_PER_DEG
            node_lon = lon + east / (METERS_PER_DEG * math.cos(math.radians(lat)))
            nodes.append(SimNode(id=f"n{i:02d}", phase=5.0 * (i % 2), waypoints=[
                (0.0, node_lat, (node_lon + 180.0) % 360.0 - 180.0)]))
        seed_packet(nodes[0])
        assert_matches_oracle(nodes, 120.0, 1.0, 50.0)
        assert nodes[19].inbox and not any(n.inbox for n in nodes[20:])
