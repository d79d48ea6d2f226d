"""Maintenance indicator records and their GeoJSON export and import."""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def indicators_to_geojson(indicators, path=None) -> dict:
    """Export indicators as a GeoJSON FeatureCollection of points."""
    features = []
    for ind in indicators:
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [ind.lon, ind.lat]},
            "properties": {
                "kind": ind.kind,
                "sub_kind": ind.sub_kind,
                "t": ind.t,
                "severity": ind.severity,
                "confidence": ind.confidence,
                "value": ind.value,
                "unit": ind.unit,
            },
        })
    collection = {"type": "FeatureCollection", "features": features}
    if path is not None:
        with open(path, "w") as fh:
            json.dump(collection, fh, indent=2)
    return collection


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

