"""Maintenance indicator records and their GeoJSON export and import, and
the two file formats every layer shares: JSON lines (:func:`json_objects`)
and GeoJSON points (:func:`point_collection`)."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .outputs import new_file

KINDS = ("anomaly", "maneuver", "roughness", "cant", "twist", "curvature")
EARTH_RADIUS = 6371000.0  # m, of the sphere every position is taken on


@dataclass(frozen=True)
class Indicator:
    """A located, timestamped maintenance observation."""

    kind: str
    sub_kind: str
    lat: float
    lon: float
    t: float
    severity: int  # 0..255, monotone in the underlying score
    confidence: float  # [0, 1]
    value: float
    unit: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown indicator kind {self.kind!r}")
        if not (0 <= self.severity <= 255):
            raise ValueError("severity must lie in 0..255")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must lie in [0, 1]")


def clamp_severity(score: float) -> int:
    return int(min(255, max(0, round(score))))


def point_collection(points, path=None) -> dict:
    """A GeoJSON FeatureCollection of one Point per (lon, lat, properties) in
    `points`; with `path`, also written there as ``json.dumps(collection)``,
    one compact line (``json.dump`` would stream through json's pure-Python
    encoder)."""
    collection = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
         "properties": properties}
        for lon, lat, properties in points]}
    if path is not None:
        with new_file(path) as fh:
            fh.write(json.dumps(collection))
    return collection


def indicators_to_geojson(indicators, path=None) -> dict:
    """Export indicators as a GeoJSON FeatureCollection of points."""
    return point_collection(((ind.lon, ind.lat, {
        "kind": ind.kind, "sub_kind": ind.sub_kind, "t": ind.t, "severity": ind.severity,
        "confidence": ind.confidence, "value": ind.value, "unit": ind.unit,
    }) for ind in indicators), path)


JSON_NUMBER = (int, float)  # the types json.load gives a JSON number

_raw_decode = json.JSONDecoder().raw_decode


def json_line(line: str):
    """``json.loads(line)`` for one line of a JSONL file, with the same value
    or the same error for every string.

    A line holding just one JSON value with no whitespace around it is
    decoded by the decoder's ``raw_decode`` alone, which skips the wrapper
    work of ``json.loads``; any other line goes to ``json.loads``."""
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):
        return json.loads(line)
    return value


def json_objects(lines, error):
    """(line number, object) for each non-blank line of a JSON-lines text.

    Each line is stripped and decoded by `json_line`; a line that is not JSON
    or not a JSON object raises ``error("line N: ...")``."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json_line(line)
        except ValueError as e:  # JSONDecodeError, or an int past the digit limit
            raise error(f"line {lineno}: invalid JSON ({e})") from e
        if not isinstance(obj, dict):
            raise error(f"line {lineno}: not a JSON object")
        yield lineno, obj


def indicators_from_geojson(path) -> list[Indicator]:
    """Indicators from a GeoJSON FeatureCollection of points.

    Raises ValueError for a collection, feature, geometry or properties that
    is not an object, for coordinates that are not a pair of JSON numbers,
    and for properties that ``float`` and ``int`` cannot read."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the top level is not a JSON object")
    features = data.get("features", [])
    if not isinstance(features, list):
        raise ValueError("features is not a list")
    out = []
    for i, feat in enumerate(features):
        if not (isinstance(feat, dict) and isinstance(feat["geometry"], dict)):
            raise ValueError(f"feature {i} or its geometry is not a JSON object")
        coords = feat["geometry"]["coordinates"]
        if not (type(coords) is list and len(coords) == 2
                and type(coords[0]) in JSON_NUMBER and type(coords[1]) in JSON_NUMBER):
            raise ValueError(f"feature {i} coordinates are not a pair of numbers")
        lon, lat = coords
        p = feat["properties"]
        if not isinstance(p, dict):
            raise ValueError(f"feature {i} properties are not a JSON object")
        try:
            out.append(Indicator(
                kind=p["kind"], sub_kind=p.get("sub_kind", ""), lat=lat, lon=lon,
                t=float(p.get("t", 0.0)), severity=int(p.get("severity", 0)),
                confidence=float(p.get("confidence", 1.0)),
                value=float(p.get("value", 0.0)), unit=p.get("unit", ""),
            ))
        except (TypeError, OverflowError) as e:  # float(None), int(inf)
            raise ValueError(f"feature {i} properties: {e}") from e
    return out

