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
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .outputs import new_file
from .reports import (EARTH_RADIUS, JSON_NUMBER, KINDS, Indicator, json_objects,
                      point_collection)

_SLACK = 1e-6  # relative widening of the index bounds, far above float rounding
_SLACK_M = 1e-6  # m, the same for radii so small that rounding is not relative


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
    """In-memory anchor store with a JSONL event log for persistence."""

    def __init__(self):
        self.states: dict[int, SegmentState] = {}
        self._next_id = 0
        self.records: list[dict] = []  # the log's, then each contributed one
        self.replayed = 0  # records that `load` read from the log
        self._log = ""  # the log text that `load` read, written again by `save`
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
        best_id, best_d = None, None
        for aid in grid.candidates(lat, lon):
            anchor = self.states[aid].anchor
            d = great_circle(anchor.lat, anchor.lon, lat, lon)
            if d <= policy.radius and (best_d is None or d < best_d):
                best_id, best_d = aid, d
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
        anchor id, or -1 (counted in `rejected`) for a non-finite value or a
        position off WGS84."""
        if not (math.isfinite(value) and abs(spot.lat) <= 90.0 and abs(spot.lon) <= 180.0):
            self.rejected += 1
            return -1
        aid = self.match_segment(spot, policy)
        self.states[aid] = fuse(self.states[aid], t, value, policy)
        return aid

    def contribute(self, indicator: Indicator, policy: MatchPolicy) -> int:
        """Match then fuse one indicator; logs the event. Returns anchor id, or
        -1 (counted in `rejected`) for a non-finite value or a position off WGS84."""
        aid = self._fold(indicator, indicator.t, indicator.value, policy)
        if aid >= 0:
            self.records.append({
                "op": "fuse", "anchor_id": aid, "t": indicator.t,
                "value": indicator.value, "lat": indicator.lat, "lon": indicator.lon,
                "kind": indicator.kind,
            })
        return aid

    def snapshot(self) -> list[SegmentState]:
        """Every state, sorted by anchor id."""
        return [self.states[aid] for aid in sorted(self.states)]

    def save(self, path) -> None:
        """Write the event log to a temporary file beside `path` and rename it
        over `path`, so that a write that stops part-way leaves the old log.

        Unlike the outputs that a run can make again, the old log is not
        unlinked first: it is the one file that cannot be rebuilt, and the
        rename over it is what makes ext4 write the new log's data before
        the rename commits, so a crash leaves the old log or the new one,
        never an empty file.

        A store from `load` writes the text it read, as it was (with a final
        newline if it lacked one), then one line per record contributed
        since; any other store writes one line per record. Each new line
        holds the bytes of ``json.dumps(record)``, written by a fixed
        template (`_record_line`) rather than by a json call per record:
        in paired crowd runs, a ``json.dumps`` per record made `aggregate`
        slower in every pair."""
        log = self._log
        with new_file(path, rename_over=True) as fh:
            if log:
                fh.write(log if log.endswith("\n") else log + "\n")
            fh.writelines(map(_record_line, self.records[self.replayed:]))

    @classmethod
    def load(cls, path, policy: MatchPolicy) -> "SegmentStore":
        """Rebuild deterministically by replaying the event log.

        The log's text is read once and kept for `save`. Each line is read
        by `json_objects`, checked, then folded through the matching and
        fusion of `contribute`; its decoded record joins `records` as it is.
        A line that cannot be replayed raises StoreError("line N: ...")."""
        store = cls()
        with open(path) as fh:
            try:
                store._log = fh.read()
            except UnicodeDecodeError as e:
                raise StoreError(f"not UTF-8 text: {e}") from e
        records = store.records
        # split("\n"), not splitlines(): lines end where file iteration ends them
        for lineno, rec in json_objects(store._log.split("\n"), StoreError):
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
                # so can the difference of two int `t` within it, in `fuse`
                aid = store._fold(_Spot(kind, lat, lon), t, value, policy)
            except (KeyError, ValueError, OverflowError) as e:
                raise StoreError(f"line {lineno}: {e}") from e
            if aid != expect:
                raise StoreError(f"line {lineno}: replay assigned anchor {aid}, "
                                 f"log says {expect} (policy mismatch?)")
            records.append(rec)
        store.replayed = len(records)
        return store

    def snapshot_geojson(self, path=None) -> dict:
        """The anchors as a GeoJSON FeatureCollection of points, sorted by id;
        with `path`, also written there (`point_collection`)."""
        return point_collection(((st.anchor.lon, st.anchor.lat, {
            "anchor_id": st.anchor.id, "kind": st.anchor.kind, "value": st.value,
            "weight_sum": st.weight_sum, "last_update": st.last_update,
            "contribution_count": st.anchor.contribution_count,
        }) for st in self.snapshot()), path)
