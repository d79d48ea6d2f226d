"""Key-value pipeline configuration with fail-fast validation.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are errors, as are keys that do not apply to the selected
context (road vs rail).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .features import DEFAULT_FEATURES
from .road_analysis import DEFAULT_DETECTOR_FEATURES


class ConfigError(Exception):
    pass


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(","))


@dataclass
class PipelineConfig:
    context: str = "road"
    gravity_tau: float = 1.0
    frame_window_len: float = 3.0
    frame_overlap: float = 1.0 / 3.0
    feature_set: tuple[str, ...] = DEFAULT_FEATURES
    detector_k: float = 3.0
    detector_features: tuple[str, ...] = DEFAULT_DETECTOR_FEATURES
    maneuver_omega_on: float = 0.06
    maneuver_omega_off: float = 0.03
    roughness_band_min: float = 0.5
    roughness_band_max: float = 50.0
    roughness_segment_length: float = 100.0
    rail_twist_bases: tuple[float, ...] = (3.0, 5.0)
    rail_curvature_threshold: float = 1.0 / 5000.0
    rail_wavelength_min: float = 10.0
    rail_wavelength_max: float = 200.0
    source_text: str = ""


# file key -> (attribute, parser, context restriction or None)
_KEYS = {
    "context": ("context", str, None),
    "gravity.tau": ("gravity_tau", float, None),
    "frame.window_len": ("frame_window_len", float, None),
    "frame.overlap": ("frame_overlap", float, None),
    "features.set": ("feature_set", _strs, None),
    "detector.k": ("detector_k", float, "road"),
    "detector.features": ("detector_features", _strs, "road"),
    "maneuver.omega_on": ("maneuver_omega_on", float, "road"),
    "maneuver.omega_off": ("maneuver_omega_off", float, "road"),
    "roughness.band_min": ("roughness_band_min", float, "road"),
    "roughness.band_max": ("roughness_band_max", float, "road"),
    "roughness.segment_length": ("roughness_segment_length", float, "road"),
    "rail.twist_bases": ("rail_twist_bases", _floats, "rail"),
    "rail.curvature_threshold": ("rail_curvature_threshold", float, "rail"),
    "rail.wavelength_min": ("rail_wavelength_min", float, "rail"),
    "rail.wavelength_max": ("rail_wavelength_max", float, "rail"),
}


def parse_config_text(text: str) -> PipelineConfig:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = (lineno, raw)

    cfg = PipelineConfig(source_text=text)
    context = pairs.get("context", (0, cfg.context))[1]
    if context not in ("road", "rail"):
        raise ConfigError(f"context must be 'road' or 'rail', got {context!r}")
    for key, (lineno, raw) in pairs.items():
        attr, parser, restrict = _KEYS[key]
        if restrict is not None and restrict != context:
            raise ConfigError(
                f"line {lineno}: key {key!r} does not apply to context {context!r}")
        try:
            setattr(cfg, attr, parser(raw))
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from e
    return cfg


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def config_hash(cfg: PipelineConfig) -> str:
    text = cfg.source_text or repr([(f.name, getattr(cfg, f.name)) for f in fields(cfg)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_values(cfg: PipelineConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "source_text"}
