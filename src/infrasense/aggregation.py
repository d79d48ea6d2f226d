"""Crowd-side fusion: spatial matching of indicators to segment anchors
and time-decayed aggregation per anchor.

Matching follows one contract, an exhaustive great-circle nearest-neighbor
scan over anchors of the same kind: the nearest anchor within the radius,
ties to the smaller id. A `GridIndex` per kind reproduces that scan
exactly while visiting only the anchors that can lie within the radius.
The simulator's neighbour search uses the same index. Fusion dilutes old
evidence with an exponential half-life.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .outputs import new_file, replaceable
from .reports import (EARTH_RADIUS, JSON_NUMBER, KINDS, Indicator, json_objects,
                      point_collection)

_SLACK = 1e-6  # relative widening of the index bounds, far above float rounding
_SLACK_M = 1e-6  # m, the same for radii so small that rounding is not relative
CHECKPOINT_VERSION = 1  # of the `<store>.state` layout that `save` writes
_MIXED = "mixed"  # `SegmentStore._policy` once records were folded under two policies


class AggregationError(Exception):
    pass


class StoreError(AggregationError):
    pass


def great_circle(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance in meters."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlmb = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlmb / 2) ** 2
    return 2 * EARTH_RADIUS * math.asin(math.sqrt(a))


def _embed(lat: float, lon: float) -> tuple[float, float, float]:
    """(lat, lon) as a point on the sphere of radius R in 3-D, in meters."""
    phi, lmb = math.radians(lat), math.radians(lon)
    r = EARTH_RADIUS * math.cos(phi)
    return r * math.cos(lmb), r * math.sin(lmb), EARTH_RADIUS * math.sin(phi)


class GridIndex:
    """Points keyed by id in a dict of cubes of the sphere's 3-D embedding.

    (lat, lon) embeds as R(cos lat cos lon, cos lat sin lon, sin lat). For
    every finite lat/lon, the haversine distance is 2R*asin(c/2R), with c
    the chord between the two embedded points, so a point within `radius`
    lies within the chord `reach` = 2R*sin(min(radius/2R, pi/2)), widened
    by a relative and an absolute slack. The cubes are `cell` = 2*reach
    wide, and `candidates(lat, lon)` returns, in ascending id, the points
    of the 8 cubes at floor((coordinate - reach)/cell) + {0, 1} on each
    axis, which hold [coordinate - reach, coordinate + reach]: a superset
    of the ids within `radius` that drops only points provably farther.
    Points with a non-finite coordinate sit in one cell that every query
    visits; a non-finite query gets every id.
    """

    def __init__(self, radius: float):
        chord = 2.0 * EARTH_RADIUS * math.sin(min(radius / (2.0 * EARTH_RADIUS), math.pi / 2))
        self.reach = chord * (1.0 + _SLACK) + _SLACK_M  # m
        self.cell = 2.0 * self.reach  # m, the side of a cube
        self._cells: dict[tuple[int, int, int] | None, set[int]] = {}
        self._where: dict[int, tuple[int, int, int] | None] = {}

    def __len__(self) -> int:
        return len(self._where)

    def _key(self, lat: float, lon: float) -> tuple[int, int, int] | None:
        if not (math.isfinite(lat) and math.isfinite(lon)):
            return None
        x, y, z = _embed(lat, lon)
        c = self.cell
        return math.floor(x / c), math.floor(y / c), math.floor(z / c)

    def add(self, key: int, lat: float, lon: float) -> None:
        cell = self._where[key] = self._key(lat, lon)
        self._cells.setdefault(cell, set()).add(key)

    def move(self, key: int, lat: float, lon: float) -> None:
        """Re-bucket a point whose coordinates changed."""
        old, new = self._where[key], self._key(lat, lon)
        if new != old:
            members = self._cells[old]
            members.discard(key)
            if not members:
                del self._cells[old]
            self._where[key] = new
            self._cells.setdefault(new, set()).add(key)

    def candidates(self, lat: float, lon: float) -> list[int]:
        if not (math.isfinite(lat) and math.isfinite(lon)):
            return sorted(self._where)
        c, reach = self.cell, self.reach
        x, y, z = _embed(lat, lon)
        # a cube is 2*reach wide: [v - reach, v + reach] ends at the latest
        # in the cube after the one it starts in (the slack covers rounding)
        i, j, k = (math.floor((x - reach) / c), math.floor((y - reach) / c),
                   math.floor((z - reach) / c))
        cells = self._cells
        out = list(cells.get(None, ()))
        for key in product((i, i + 1), (j, j + 1), (k, k + 1)):
            members = cells.get(key)
            if members:
                out.extend(members)
        out.sort()
        return out


@dataclass(frozen=True)
class MatchPolicy:
    radius: float = 15.0  # m
    half_life: float = 30 * 86400.0  # s

    def __post_init__(self):
        if not (self.radius > 0 and self.half_life > 0):
            raise ValueError("radius and half_life must be positive")


@dataclass
class SegmentAnchor:
    id: int
    lat: float
    lon: float
    kind: str
    contribution_count: int = 1


@dataclass
class SegmentState:
    """Time-decayed aggregate of one anchor."""

    anchor: SegmentAnchor
    value: float = 0.0
    weight_sum: float = 0.0
    last_update: float = float("-inf")


def fuse(state: SegmentState, t: float, value: float, policy: MatchPolicy) -> SegmentState:
    """Fold one contribution into the aggregate.

    Prior evidence decays by 2^(-|dt| / half_life); the new contribution
    enters with weight 1. Late arrivals decay against |dt| without
    rewinding `last_update`.
    """
    if not math.isfinite(value):
        raise AggregationError("non-finite contribution value")
    if state.weight_sum == 0.0:
        d, w_old = 0.0, 0.0
    else:
        dt = abs(t - state.last_update)
        d = 2.0 ** (-dt / policy.half_life)
        w_old = state.weight_sum
    w_new = d * w_old + 1.0
    v_new = (d * w_old * state.value + value) / w_new
    return SegmentState(
        anchor=state.anchor, value=v_new, weight_sum=w_new,
        last_update=max(t, state.last_update if state.weight_sum else t),
    )


_STRING_JSON = {k: json.dumps(k) for k in ("fuse", *KINDS)}


def _num(x) -> str:
    """json.dumps(x) for a number: a finite float by float.__repr__ and an int
    by int.__repr__, as json writes them; anything else (NaN, +-inf, bools,
    subclasses) by json itself."""
    if type(x) is float and x - x == 0.0:
        return float.__repr__(x)
    return int.__repr__(x) if type(x) is int else json.dumps(x)


def _str(x) -> str:
    """json.dumps(x) for a record's string, from a table for the usual ones."""
    return _STRING_JSON.get(x) or json.dumps(x)


def _record_line(rec: dict) -> str:
    """json.dumps(rec) + "\n" for a record of `SegmentStore.contribute`."""
    return (f'{{"op": {_str(rec["op"])}, "anchor_id": {_num(rec["anchor_id"])}, '
            f'"t": {_num(rec["t"])}, "value": {_num(rec["value"])}, '
            f'"lat": {_num(rec["lat"])}, "lon": {_num(rec["lon"])}, '
            f'"kind": {_str(rec["kind"])}}}\n')


class _Spot(NamedTuple):
    """Where a replayed log record lies, as `SegmentStore.match_segment` reads it."""

    kind: str
    lat: float
    lon: float


class SegmentStore:
    """In-memory anchor store with a JSONL event log for persistence and a
    checkpoint of its states beside the log, to reopen it without a replay."""

    def __init__(self):
        self.states: dict[int, SegmentState] = {}
        self._next_id = 0
        self.records: list[dict] = []  # each record contributed since `load`
        self.replayed = 0  # records of the log that `load` read
        self.from_checkpoint = False  # `load` took the states from the checkpoint
        self._log = b""  # the log that `load` read, written again by `save`
        self._policy = None  # that of every fold and of `load`, or _MIXED
        self.rejected = 0
        self._grids: dict[str, GridIndex] = {}  # per kind, over self.states
        self._grid_radius: float | None = None
        self._indexed = 0  # anchors in self._grids

    def __len__(self) -> int:
        return len(self.states)

    def _grid(self, kind: str, radius: float) -> GridIndex:
        """The kind's index, rebuilt when the radius changes or when anchors
        were put into `states` from outside (its size differs from the
        index's)."""
        if radius != self._grid_radius or self._indexed != len(self.states):
            self._grids = {}
            for aid, st in self.states.items():
                a = st.anchor
                self._grids.setdefault(a.kind, GridIndex(radius)).add(aid, a.lat, a.lon)
            self._grid_radius = radius
            self._indexed = len(self.states)
        grid = self._grids.get(kind)
        if grid is None:
            grid = self._grids[kind] = GridIndex(radius)
        return grid

    def _nearest(self, grid: GridIndex, lat: float, lon: float, radius: float) -> int | None:
        """The id of the anchor in `grid` nearest to (`lat`, `lon`) within
        `radius`, ties to the smaller id; None when there is none."""
        best_id, best_d = None, None
        for aid in grid.candidates(lat, lon):
            anchor = self.states[aid].anchor
            d = great_circle(anchor.lat, anchor.lon, lat, lon)
            if d <= radius and (best_d is None or d < best_d):
                best_id, best_d = aid, d
        return best_id

    def match_segment(self, spot, policy: MatchPolicy) -> int:
        """Nearest anchor of `spot.kind` to (`spot.lat`, `spot.lon`) within the
        policy radius, or a new one; `spot` is an `Indicator` or any object
        with those three fields.

        Ties break toward the smaller anchor id; the matched anchor centroid
        moves to the contribution-count-weighted mean, taken across +-180 deg
        when the report lies over the antimeridian. The index hands over
        candidates in ascending id, so the result is the exhaustive scan's.
        """
        kind, lat, lon = spot.kind, spot.lat, spot.lon
        grid = self._grid(kind, policy.radius)
        best_id = self._nearest(grid, lat, lon, policy.radius)
        if best_id is None:
            aid = self._next_id
            self._next_id += 1
            anchor = SegmentAnchor(id=aid, lat=lat, lon=lon, kind=kind)
            self.states[aid] = SegmentState(anchor=anchor)
            grid.add(aid, anchor.lat, anchor.lon)
            self._indexed += 1
            return aid
        anchor = self.states[best_id].anchor
        n = anchor.contribution_count
        anchor.lat = (anchor.lat * n + lat) / (n + 1)
        dlon = lon - anchor.lon
        if abs(dlon) > 180.0:  # across +-180 deg: average the wrapped difference
            lon = anchor.lon + (dlon - math.copysign(360.0, dlon)) / (n + 1)
            anchor.lon = (lon + 180.0) % 360.0 - 180.0
        else:
            anchor.lon = (anchor.lon * n + lon) / (n + 1)
        anchor.contribution_count = n + 1
        grid.move(best_id, anchor.lat, anchor.lon)
        return best_id

    def _fold(self, spot, t, value, policy: MatchPolicy) -> int:
        """Match `spot` and fuse `value` at `t` into its anchor. Returns the
        anchor id, or -1 (counted in `rejected`) for a non-finite value, a
        position off WGS84, or an int `t` whose difference from the int
        `last_update` of the anchor it matches is beyond float range, on
        which `fuse` would raise OverflowError. Nothing moves before that is
        known."""
        if not (math.isfinite(value) and abs(spot.lat) <= 90.0 and abs(spot.lon) <= 180.0
                and (type(t) is not int or self._fusable(spot, t, policy))):
            self.rejected += 1
            return -1
        if policy is not self._policy:
            self._policy = policy if self._policy in (None, policy) else _MIXED
        aid = self.match_segment(spot, policy)
        self.states[aid] = fuse(self.states[aid], t, value, policy)
        return aid

    def _fusable(self, spot, t: int, policy: MatchPolicy) -> bool:
        """Whether `fuse` takes the int `t` into the anchor that `spot`
        matches: an int `t` and `last_update` subtract exactly, and a
        difference beyond float range fails the decay."""
        aid = self._nearest(self._grid(spot.kind, policy.radius), spot.lat, spot.lon,
                            policy.radius)
        if aid is None:
            return True
        try:
            float(t - self.states[aid].last_update)
        except OverflowError:
            return False
        return True

    def contribute(self, indicator: Indicator, policy: MatchPolicy) -> int:
        """Match then fuse one indicator; logs the event. Returns anchor id, or
        -1 (counted in `rejected`) for what `_fold` rejects, or a record that
        `load` would refuse: a position, `t` or value that is no int or float
        (a bool, say), or an int `t` or value beyond float range. So the log
        always replays, and the checkpoint `save` writes is always the
        replay's."""
        lat, lon, t, value = indicator.lat, indicator.lon, indicator.t, indicator.value
        try:
            if not (type(lat) in JSON_NUMBER and type(lon) in JSON_NUMBER
                    and type(t) in JSON_NUMBER and type(value) in JSON_NUMBER):
                raise ValueError
            float(t), float(value)  # an int beyond float range raises OverflowError
        except (ValueError, OverflowError):
            self.rejected += 1
            return -1
        aid = self._fold(indicator, t, value, policy)
        if aid >= 0:
            self.records.append({"op": "fuse", "anchor_id": aid, "t": t, "value": value,
                                 "lat": lat, "lon": lon, "kind": indicator.kind})
        return aid

    def snapshot(self) -> list[SegmentState]:
        """Every state, sorted by anchor id."""
        return [self.states[aid] for aid in sorted(self.states)]

    def save(self, path) -> None:
        """Write the checkpoint to `<path>.state`, then the event log to a
        temporary file beside `path` renamed over `path`, so that a write
        that stops part-way leaves the old log.

        Unlike the outputs that a run can make again, the old log is not
        unlinked first: it is the one file that cannot be rebuilt, and the
        rename over it is what makes ext4 write the new log's data before
        the rename commits, so a crash leaves the old log or the new one,
        never an empty file. The checkpoint (`_checkpoint`) is only a cache
        of the log's replay: one that describes a log that never landed
        fails `load`'s checks and costs a replay. None is written when
        there is no one policy to record (a store that folded nothing, or
        one whose records were folded under two policies, whose states are
        then the replay of its log under neither) or when `path` is a
        device or a pipe (not `replaceable`), written to as it is; an old
        checkpoint then stays, valid only for the log it describes.

        A store from `load` writes the bytes it read, as they were (with a
        final newline if they lacked one), then one line per record
        contributed since; any other store writes one line per record. Each
        new line holds the bytes of ``json.dumps(record)``, written by a
        fixed template (`_record_line`) rather than by a json call per
        record: in paired crowd runs, a ``json.dumps`` per record made
        `aggregate` slower in every pair."""
        log = self._log
        if log and not log.endswith(b"\n"):
            log += b"\n"
        new = "".join(map(_record_line, self.records)).encode()
        if isinstance(self._policy, MatchPolicy) and replaceable(path):
            self._checkpoint(f"{path}.state", len(log) + len(new),
                             zlib.crc32(new, zlib.crc32(log)))
        with new_file(path, binary=True, rename_over=True) as fh:
            fh.write(log)
            fh.write(new)

    def _checkpoint(self, path, log_length: int, log_crc: int) -> None:
        """Write the checkpoint of a log of `log_length` bytes with CRC-32
        `log_crc`: a header line, then one JSON body line holding the log's
        record count, `_next_id` and one row per anchor, in ascending id.
        json writes each int, float and bool as it is, so the rows read
        back as the states they were. The header holds the format version,
        the policy, the log's length and CRC, and the body's CRC."""
        body = json.dumps({
            "records": self.replayed + len(self.records), "next_id": self._next_id,
            "anchors": [[a.id, a.lat, a.lon, a.kind, a.contribution_count,
                         st.value, st.weight_sum, st.last_update]
                        for st in self.snapshot() for a in (st.anchor,)],
        }).encode()
        header = json.dumps({
            "version": CHECKPOINT_VERSION, "radius": self._policy.radius,
            "half_life": self._policy.half_life, "log_length": log_length,
            "log_crc": log_crc, "body_crc": zlib.crc32(body)})
        with new_file(path, binary=True) as fh:
            fh.write(header.encode() + b"\n")
            fh.write(body)

    def _resume(self, path, log: bytes, policy: MatchPolicy) -> bool:
        """Take the states from the checkpoint at `path` if it is the one
        `save` wrote for the log `log` under `policy`: the same version,
        policy, log length and log CRC, and a body that matches its CRC.
        False, with the store untouched, for a checkpoint that is missing,
        unreadable, damaged or of another log or policy."""
        try:
            with open(path, "rb") as fh:
                header, body = fh.read().split(b"\n", 1)
            head = json.loads(header)
            if (head["version"] != CHECKPOINT_VERSION or head["radius"] != policy.radius
                    or head["half_life"] != policy.half_life
                    or head["log_length"] != len(log) or head["body_crc"] != zlib.crc32(body)
                    or head["log_crc"] != zlib.crc32(log)):
                return False
            saved = json.loads(body)
            states = {aid: SegmentState(SegmentAnchor(aid, lat, lon, kind, count),
                                        value, weight_sum, last_update)
                      for aid, lat, lon, kind, count, value, weight_sum, last_update
                      in saved["anchors"]}
            self.replayed, self._next_id = saved["records"], saved["next_id"]
        except (OSError, ValueError, TypeError, KeyError):
            return False
        self.states = states
        return True

    def _replay(self, log: bytes, policy: MatchPolicy) -> None:
        """Fold every record of the log `log` through the matching and fusion
        of `contribute`. Each line is read by `json_objects` and checked; a
        line that cannot be replayed, or that the fold rejects, raises
        StoreError("line N: ...")."""
        try:
            text = log.decode("utf-8")
        except UnicodeDecodeError as e:
            raise StoreError(f"not UTF-8 text: {e}") from e
        if "\r" in text:  # read as a text file reads it: every line ends at \n
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            self._log = text.encode()
        n = 0
        # split("\n"), not splitlines(): lines end where file iteration ends them
        for lineno, rec in json_objects(text.split("\n"), StoreError):
            try:
                lat, lon, t, value = rec["lat"], rec["lon"], rec["t"], rec["value"]
                if not (type(lat) in JSON_NUMBER and type(lon) in JSON_NUMBER
                        and type(t) in JSON_NUMBER and type(value) in JSON_NUMBER):
                    raise ValueError("lat, lon, t and value must be JSON numbers")
                kind = rec["kind"]
                if kind not in KINDS:  # as `Indicator` checks it
                    raise ValueError(f"unknown indicator kind {kind!r}")
                expect = rec["anchor_id"]
                float(t), float(value)  # an int beyond float range raises OverflowError
                aid = self._fold(_Spot(kind, lat, lon), t, value, policy)
            except (KeyError, ValueError, OverflowError) as e:
                raise StoreError(f"line {lineno}: {e}") from e
            if aid < 0:
                raise StoreError(f"line {lineno}: the replay rejects the record "
                                 f"(a non-finite value, a position off WGS84 or an int t "
                                 f"too far from its anchor's)")
            if aid != expect:
                raise StoreError(f"line {lineno}: replay assigned anchor {aid}, "
                                 f"log says {expect} (policy mismatch?)")
            n += 1
        self.replayed = n

    @classmethod
    def load(cls, path, policy: MatchPolicy) -> "SegmentStore":
        """Reopen the store whose log is at `path`, under `policy`.

        The log's bytes are read once and kept for `save`. When the
        checkpoint at `<path>.state` matches them and `policy` (`_resume`),
        the states are read from it and no log line is decoded
        (`from_checkpoint`); otherwise the log is replayed (`_replay`).
        Either way the states are the replay's, `replayed` counts the log's
        records and `records` starts empty."""
        store = cls()
        store._policy = policy
        with open(path, "rb") as fh:
            store._log = fh.read()
        store.from_checkpoint = store._resume(f"{path}.state", store._log, policy)
        if not store.from_checkpoint:
            store._replay(store._log, policy)
        return store

    def snapshot_geojson(self, path=None) -> dict:
        """The anchors as a GeoJSON FeatureCollection of points, sorted by id;
        with `path`, also written there (`point_collection`)."""
        return point_collection(((st.anchor.lon, st.anchor.lat, {
            "anchor_id": st.anchor.id, "kind": st.anchor.kind, "value": st.value,
            "weight_sum": st.weight_sum, "last_update": st.last_update,
            "contribution_count": st.anchor.contribution_count,
        }) for st in self.snapshot()), path)
