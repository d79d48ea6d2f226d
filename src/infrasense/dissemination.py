"""SSID beacon codec and cooperative opportunistic dissemination simulator.

Payload: 24 bytes, little-endian — [version|flags](1), count(1),
lat i32 deg*1e-6 (4), lon i32 (4), 3 x entry(4): d_north i8 (x10 m),
d_east i8 (x10 m), [type|severity](1), confidence u8; CRC-16/CCITT over
bytes 0..21 (2). URL-safe base64 turns the 24 bytes into exactly 32
printable characters, fitting the 32-octet SSID field.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import math
import struct
from dataclasses import dataclass, field

from .aggregation import GridIndex, great_circle
from .reports import EARTH_RADIUS, KINDS

SSID_CHARS = 32
PACKET_VERSION = 1  # the version `encode_packet` writes, with no flags set
MAX_ENTRIES = 3
OFFSET_UNIT = 10.0  # m per LSB of the i8 offsets
_B64_ALPHABET = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_")

TYPE_CODES = {k: i + 1 for i, k in enumerate(KINDS)}


class FormatError(ValueError):
    """Not a well-formed 32-character beacon."""


class IntegrityError(ValueError):
    """Well-formed beacon with a failing checksum."""


def crc16_ccitt(data: bytes, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021)."""
    return binascii.crc_hqx(data, init)


@dataclass(frozen=True)
class PacketEntry:
    d_north: int  # i8, units of 10 m
    d_east: int  # i8
    type: int  # 4 bits
    severity: int  # 4 bits
    confidence: int  # u8

    def __post_init__(self):
        if not (-128 <= self.d_north <= 127 and -128 <= self.d_east <= 127):
            raise ValueError("offsets exceed the i8 range")
        if not (0 <= self.type <= 15 and 0 <= self.severity <= 15):
            raise ValueError("type and severity are 4-bit fields")
        if not (0 <= self.confidence <= 255):
            raise ValueError("confidence is a u8")


@dataclass(frozen=True)
class SsidPacket:
    version: int  # 4 bits
    flags: int  # 4 bits
    lat_e6: int  # i32, degrees * 1e-6
    lon_e6: int
    entries: tuple[PacketEntry, ...] = ()

    def __post_init__(self):
        if not (0 <= self.version <= 15 and 0 <= self.flags <= 15):
            raise ValueError("version and flags are 4-bit fields")
        if len(self.entries) > MAX_ENTRIES:
            raise ValueError(f"at most {MAX_ENTRIES} entries")
        for bound, val in ((90_000_000, self.lat_e6), (180_000_000, self.lon_e6)):
            if abs(val) > bound:
                raise ValueError("origin out of WGS84 range")

    @property
    def origin(self) -> tuple[float, float]:
        return self.lat_e6 / 1e6, self.lon_e6 / 1e6

    def max_severity(self) -> int:
        return max((e.severity for e in self.entries), default=0)

    def to_bytes(self) -> bytes:
        body = struct.pack("<BBii", (self.version << 4) | self.flags,
                           len(self.entries), self.lat_e6, self.lon_e6)
        for e in self.entries:
            body += struct.pack("<bbBB", e.d_north, e.d_east,
                                (e.type << 4) | e.severity, e.confidence)
        body += b"\x00" * 4 * (MAX_ENTRIES - len(self.entries))
        return body + struct.pack("<H", crc16_ccitt(body))

    def to_ssid(self) -> str:
        out = base64.urlsafe_b64encode(self.to_bytes()).decode("ascii")
        assert len(out) == SSID_CHARS
        return out

    @property
    def checksum(self) -> int:
        return struct.unpack("<H", self.to_bytes()[-2:])[0]


def decode_packet(ssid: str) -> SsidPacket:
    """Inverse of :meth:`SsidPacket.to_ssid`, with checksum verification."""
    if not isinstance(ssid, str) or len(ssid) != SSID_CHARS:
        raise FormatError(f"SSID must be exactly {SSID_CHARS} characters")
    if not set(ssid) <= _B64_ALPHABET:
        raise FormatError("SSID contains characters outside the base64url alphabet")
    raw = base64.urlsafe_b64decode(ssid)
    body, (crc,) = raw[:-2], struct.unpack("<H", raw[-2:])
    if crc16_ccitt(body) != crc:
        raise IntegrityError("checksum mismatch")
    vf, count, lat_e6, lon_e6 = struct.unpack("<BBii", body[:10])
    if count > MAX_ENTRIES:
        raise FormatError(f"entry count {count} out of range")
    entries = []
    for i in range(count):
        dn, de, ts, conf = struct.unpack("<bbBB", body[10 + 4 * i:14 + 4 * i])
        entries.append(PacketEntry(dn, de, ts >> 4, ts & 0xF, conf))
    try:
        return SsidPacket(vf >> 4, vf & 0xF, lat_e6, lon_e6, tuple(entries))
    except ValueError as e:
        raise FormatError(str(e)) from e


@dataclass(frozen=True)
class EncodeReport:
    truncated: int  # entries dropped beyond the 3 highest severities
    clamped: int  # entries whose offset hit the i8 range


def _local_offsets(origin_lat: float, origin_lon: float,
                   lat: float, lon: float) -> tuple[float, float]:
    """North/east meters of (lat, lon) from the origin, local tangent plane."""
    north = math.radians(lat - origin_lat) * EARTH_RADIUS
    east = math.radians(lon - origin_lon) * EARTH_RADIUS * math.cos(math.radians(origin_lat))
    return north, east


def encode_packet(origin_lat: float, origin_lon: float, anomalies) -> tuple[str, EncodeReport]:
    """Encode up to 3 nearby indicators into a 32-character beacon of
    version PACKET_VERSION with no flags set.

    Excess entries are dropped by descending severity; offsets beyond the
    +-1270 m representable range are clamped and flagged.
    """
    ranked = sorted(anomalies, key=lambda a: -a.severity)
    truncated = max(0, len(ranked) - MAX_ENTRIES)
    clamped = 0
    entries = []
    for ind in ranked[:MAX_ENTRIES]:
        north, east = _local_offsets(origin_lat, origin_lon, ind.lat, ind.lon)
        dn = int(round(north / OFFSET_UNIT))
        de = int(round(east / OFFSET_UNIT))
        if not (-127 <= dn <= 127 and -127 <= de <= 127):
            clamped += 1
            dn = max(-127, min(127, dn))
            de = max(-127, min(127, de))
        entries.append(PacketEntry(
            d_north=dn, d_east=de, type=TYPE_CODES.get(ind.kind, 0),
            severity=min(15, ind.severity >> 4), confidence=int(round(ind.confidence * 255)),
        ))
    packet = SsidPacket(PACKET_VERSION, 0,
                        int(round(origin_lat * 1e6)), int(round(origin_lon * 1e6)),
                        tuple(entries))
    return packet.to_ssid(), EncodeReport(truncated=truncated, clamped=clamped)


@dataclass
class SimNode:
    """One simulated vehicle with a duty-cycled WiFi radio."""

    id: str
    waypoints: list[tuple[float, float, float]]  # (t, lat, lon), t ascending
    duty: float = 0.5  # hotspot fraction per period
    period: float = 10.0  # s
    phase: float = 0.0  # s offset of the duty schedule
    # checksum -> ssid, filled only by `receive`
    inbox: dict[int, str] = field(default_factory=dict, init=False)
    # checksum -> the packet's highest entry severity, recorded by `receive`
    severities: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    # the SSID strings `receive` has put in the inbox, refused again undecoded
    _held: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    # the waypoint times, taken once the waypoints are checked (they stay fixed)
    _times: tuple[float, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 <= self.duty <= 1.0 and 0 < self.period < math.inf
                and math.isfinite(self.phase)):
            raise ValueError("invalid duty schedule")
        if not self.waypoints:
            raise ValueError("node needs at least one waypoint")
        if not all(len(w) == 3 and all(map(math.isfinite, w)) for w in self.waypoints):
            raise ValueError("waypoints must be finite (t, lat, lon) triples")
        if not all(abs(w[1]) <= 90.0 and abs(w[2]) <= 180.0 for w in self.waypoints):
            raise ValueError("waypoint positions must lie within 90 and 180 degrees")
        if any(b[0] < a[0] for a, b in zip(self.waypoints, self.waypoints[1:])):
            raise ValueError("waypoint times must not decrease")
        self._times = tuple(w[0] for w in self.waypoints)

    def position(self, t: float) -> tuple[float, float]:
        ts = self._times
        if t <= ts[0]:
            return self.waypoints[0][1], self.waypoints[0][2]
        if t >= ts[-1]:
            return self.waypoints[-1][1], self.waypoints[-1][2]
        i = bisect.bisect_right(ts, t)
        t0, la0, lo0 = self.waypoints[i - 1]
        t1, la1, lo1 = self.waypoints[i]
        f = (t - t0) / (t1 - t0)
        return la0 + f * (la1 - la0), lo0 + f * (lo1 - lo0)

    def mode(self, t: float) -> str:
        return "hotspot" if ((t - self.phase) % self.period) < self.duty * self.period else "client"

    def receive(self, ssid: str) -> bool:
        """Deduplicated insert; True when the packet is new to this node.

        Packets are told apart by checksum. An SSID the node already holds
        is refused before it is decoded; any other is decoded, so a
        malformed one raises on every call."""
        if isinstance(ssid, str) and ssid in self._held:
            return False
        packet = decode_packet(ssid)
        checksum = packet.checksum
        if checksum in self.inbox:
            return False
        self.inbox[checksum] = ssid
        self._held.add(ssid)
        self.severities[checksum] = packet.max_severity()
        return True

    def best_packet(self) -> str | None:
        """Highest-severity held packet (ties by checksum, deterministic)."""
        if not self.inbox:
            return None
        return self.inbox[min(self.inbox, key=lambda c: (-self.severities[c], c))]


@dataclass(frozen=True)
class Delivery:
    t: float
    src: str
    dst: str
    checksum: int


def step_simulation(nodes: list[SimNode], t: float,
                    comm_range: float) -> list[Delivery]:
    """One synchronous step: every hotspot broadcasts its best packet to all
    client nodes within `comm_range` meters. Returns the new deliveries.

    A `GridIndex` over the step's client positions names the clients that
    can be in range, in id order, so deliveries and inboxes are those of
    testing every hotspot-client pair."""
    hotspots, clients = [], []
    for node in sorted(nodes, key=lambda n: n.id):
        role = hotspots if node.mode(t) == "hotspot" else clients
        role.append((node, node.position(t)))
    grid = GridIndex(comm_range)
    for k, (_, (lat, lon)) in enumerate(clients):
        grid.add(k, lat, lon)
    log = []
    for src, (slat, slon) in hotspots:
        ssid = src.best_packet()
        if ssid is None:
            continue
        for k in grid.candidates(slat, slon):
            dst, (dlat, dlon) = clients[k]
            if great_circle(slat, slon, dlat, dlon) > comm_range:
                continue
            if dst.receive(ssid):
                checksum = next(reversed(dst.inbox))  # the key `receive` just added
                log.append(Delivery(t=t, src=src.id, dst=dst.id, checksum=checksum))
    return log


def step_count(duration: float, dt: float) -> int:
    """The steps `run_simulation` takes over [0, duration)."""
    return int(round(duration / dt))


def run_simulation(nodes: list[SimNode], duration: float, dt: float = 1.0,
                   comm_range: float = 50.0) -> list[Delivery]:
    """Step the simulation over [0, duration). Deterministic given the
    node set and schedule; node ids must be unique."""
    if not (dt > 0 and comm_range > 0):
        raise ValueError("dt and range must be positive")
    if not 0 <= duration < math.inf:
        raise ValueError("duration must be finite and non-negative")
    seen = set()
    for node in nodes:
        if node.id in seen:
            raise ValueError(f"repeated node id {node.id!r}")
        seen.add(node.id)
    log = []
    for i in range(step_count(duration, dt)):
        log.extend(step_simulation(nodes, i * dt, comm_range))
    return log
