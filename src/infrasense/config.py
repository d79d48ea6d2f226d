"""Key-value pipeline configuration with fail-fast validation.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are errors, as are keys that do not apply to the selected
context (road vs rail), values outside their key's domain, and pairs of
keys that break a rule between them (see README). Each error names its line.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .features import DEFAULT_FEATURES
from .rail_analysis import twist_column
from .road_analysis import DEFAULT_DETECTOR_FEATURES


class ConfigError(Exception):
    pass


def _positive(raw: str) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError(f"{value} is not a finite positive number")
    return value


def _fraction(raw: str) -> float:
    value = float(raw)
    if not 0 <= value < 1:
        raise ValueError(f"{value} is not in [0, 1)")
    return value


def _features(raw: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in raw.split(","))
    if unknown := [name for name in names if name not in DEFAULT_FEATURES]:
        raise ValueError(f"unknown features {unknown}")
    if repeated := sorted({name for name in names if names.count(name) > 1}):
        raise ValueError(f"repeated features {repeated}")
    return names


def _twist_bases(raw: str) -> tuple[float, ...]:
    """Twist base lengths: finite, positive, and each naming its own column,
    whose name reads back as exactly that base."""
    bases = tuple(map(_positive, raw.split(",")))
    names = [twist_column(base) for base in bases]
    for base, name in zip(bases, names):
        if float(name.removeprefix("twist")) != base:
            raise ValueError(f"base {base!r} would be written as column {name}")
    if len(set(names)) < len(names):
        raise ValueError(f"bases repeat a column: {', '.join(names)}")
    return bases


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
    "gravity.tau": ("gravity_tau", _positive, None),
    "frame.window_len": ("frame_window_len", _positive, "road"),
    "frame.overlap": ("frame_overlap", _fraction, "road"),
    "features.set": ("feature_set", _features, "road"),
    "detector.k": ("detector_k", _positive, "road"),
    "detector.features": ("detector_features", _features, "road"),
    "maneuver.omega_on": ("maneuver_omega_on", _positive, "road"),
    "maneuver.omega_off": ("maneuver_omega_off", _positive, "road"),
    "roughness.band_min": ("roughness_band_min", _positive, "road"),
    "roughness.band_max": ("roughness_band_max", _positive, "road"),
    "roughness.segment_length": ("roughness_segment_length", _positive, "road"),
    "rail.twist_bases": ("rail_twist_bases", _twist_bases, "rail"),
    "rail.curvature_threshold": ("rail_curvature_threshold", _positive, "rail"),
    "rail.wavelength_min": ("rail_wavelength_min", _positive, "rail"),
    "rail.wavelength_max": ("rail_wavelength_max", _positive, "rail"),
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

    # rules across two keys, each refused at the later line of the two
    for keys, holds, rule in (
            (("maneuver.omega_off", "maneuver.omega_on"),
             cfg.maneuver_omega_off <= cfg.maneuver_omega_on, "must not exceed"),
            (("roughness.band_min", "roughness.band_max"),
             cfg.roughness_band_min < cfg.roughness_band_max, "must be below"),
            (("rail.wavelength_min", "rail.wavelength_max"),
             cfg.rail_wavelength_min < cfg.rail_wavelength_max, "must be below"),
            (("detector.features", "features.set"),
             set(cfg.detector_features) <= set(cfg.feature_set), "must all be in")):
        lines = [pairs[k][0] for k in keys if k in pairs]
        if lines and not holds:
            raise ConfigError(f"line {max(lines)}: {keys[0]} {rule} {keys[1]}")
    return cfg


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def config_hash(cfg: PipelineConfig) -> str:
    text = cfg.source_text or repr([(f.name, getattr(cfg, f.name)) for f in fields(cfg)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_values(cfg: PipelineConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "source_text"}
