"""Per-layer spans for the traced run, recorded from the benchmark's side.

The traced run calls ``infrasense.cli.main`` in-process. Before that,
:meth:`Tracer.install` replaces each public function listed in
:data:`SPANS`, in every ``infrasense`` module that binds it
(``gravity_split`` is bound in ``trace_model``, ``cli``, ``road_analysis``
and ``rail_analysis``), with a wrapper that records calls, seconds, self
seconds (minus the time of the spans it calls) and the items it put out.
Spans stay in memory. :data:`SPANS` also names the per-layer metrics each
span reports.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    items: int = 0
    last: int = 0  # items of the latest call


def _len0(out, args, kwargs):
    return len(out[0])


def _len(out, args, kwargs):
    return len(out)


def _file_bytes(index, key):
    def count(out, args, kwargs):
        path = args[index] if len(args) > index else kwargs.get(key)
        return os.path.getsize(path) if path is not None else 0
    return count


def _store_size(out, args, kwargs):
    return len(args[0])


@dataclass(frozen=True)
class Items:
    """What one call put out, reported per round as a per-layer metric."""

    name: str  # ".rows" follows the span's name; "anchors" follows the layer's
    unit: str
    count: Callable  # (output, args, kwargs) -> items of one call
    last: bool = False  # report the latest call's items, not the round's sum


@dataclass(frozen=True)
class Spec:
    """One public function to wrap, and the per-layer metrics of its span."""

    module: str  # the infrasense module that defines it
    attr: str  # a function, or "Class.method"
    fields: tuple[str, ...] = ("s",)  # keys of FIELDS
    items: Items | None = None
    # Untimed spans only count calls: they run hundreds of thousands of
    # times, and a clock read each would swamp them.
    timed: bool = True
    # Wrap only the defining module's binding, so that calls from modules
    # that import the function count elsewhere or not at all.
    own_binding_only: bool = False


# field -> (Span attribute, unit)
FIELDS = {"s": ("seconds", "s"), "self_s": ("self_seconds", "s"), "calls": ("calls", "count")}

SPANS = [
    Spec("trace_model", "parse_trace", items=Items(".rows", "count", _len0)),
    Spec("trace_model", "reorient"),
    Spec("trace_model", "gravity_split", ("s", "calls")),
    Spec("features", "feature_matrix",
         items=Items(".windows", "count", lambda out, a, k: out.n_windows)),
    Spec("features", "FeatureMatrix.to_csv"),
    Spec("transforms.wavelets", "swt", ("s", "calls")),
    Spec("transforms.wavelets", "swt_band_reconstruct"),
    Spec("road_analysis", "detect_anomalies"),
    Spec("road_analysis", "classify_maneuvers", items=Items(".events", "count", _len)),
    Spec("road_analysis", "roughness_index", items=Items(".segments", "count", _len0)),
    Spec("rail_analysis", "cant_from_roll", items=Items(".points", "count", _len0)),
    Spec("rail_analysis", "twist", ("s", "calls")),
    Spec("rail_analysis", "geometry_to_csv", items=Items(".bytes", "B", _file_bytes(1, "path"))),
    Spec("rail_analysis", "classify_curves", items=Items(".curves", "count", _len)),
    Spec("reports", "indicators_to_geojson", items=Items(".bytes", "B", _file_bytes(1, "path"))),
    Spec("reports", "indicators_from_geojson"),
    Spec("aggregation", "SegmentStore.contribute", ("s", "calls")),
    Spec("aggregation", "SegmentStore.match_segment"),
    Spec("aggregation", "great_circle", ("calls",), timed=False, own_binding_only=True),
    Spec("aggregation", "SegmentStore.load"),
    Spec("aggregation", "SegmentStore.save", items=Items("anchors", "count", _store_size, last=True)),
    Spec("dissemination", "run_simulation", (), Items("deliveries", "count", _len), timed=False),
    Spec("dissemination", "step_simulation"),
    Spec("dissemination", "SimNode.best_packet"),
    Spec("dissemination", "decode_packet", ("calls",), timed=False),
    Spec("dissemination", "crc16_ccitt", ("s", "calls")),
    Spec("cli", "cmd_analyze", ("self_s",)),
]


def span_name(module: str, attr: str) -> str:
    """Layer-qualified name: transforms.wavelets.swt is reported as transforms.swt."""
    return f"{module.split('.')[0]}.{attr}"


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric the spans report."""
    return {name: unit for name, (_, unit) in Tracer().metrics(1).items()}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._open: list[float] = []  # child seconds of each open timed span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, items, timed):
        span = self.spans.setdefault(name, Span())
        open_ = self._open
        clock = time.perf_counter

        if not timed:
            def counted(*args, **kwargs):
                span.calls += 1
                out = fn(*args, **kwargs)
                if items is not None:
                    span.last = items(out, args, kwargs)
                    span.items += span.last
                return out
            return counted

        def timed_call(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_.pop()
                if open_:
                    open_[-1] += elapsed
                span.calls += 1
                span.seconds += elapsed
                span.self_seconds += elapsed - children
            if items is not None:
                span.last = items(out, args, kwargs)
                span.items += span.last
            return out
        return timed_call

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every span at every infrasense module that binds it."""
        importlib.import_module("infrasense.cli")
        modules = [m for n, m in sys.modules.items()
                   if (n == "infrasense" or n.startswith("infrasense.")) and m is not None]
        for spec in SPANS:
            module = sys.modules[f"infrasense.{spec.module}"]
            name = span_name(spec.module, spec.attr)
            items = spec.items.count if spec.items else None
            if "." in spec.attr:
                cls_name, meth = spec.attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, items, spec.timed)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, items, spec.timed))
                continue
            original = getattr(module, spec.attr)
            wrapper = self._wrap(name, original, items, spec.timed)
            for m in [module] if spec.own_binding_only else modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round value and unit of every metric in :func:`metric_units`;
        rounds repeat the same inputs, so counts divide exactly."""
        def per_round(total):
            value = total / rounds
            return int(value) if isinstance(total, int) and value == int(value) else value

        out = {}
        for spec in SPANS:
            name = span_name(spec.module, spec.attr)
            span = self.spans.get(name, Span())
            for f in spec.fields:
                attr, unit = FIELDS[f]
                out[f"{name}.{f}"] = (per_round(getattr(span, attr)), unit)
            it = spec.items
            if it:
                metric = name + it.name if it.name.startswith(".") else f"{name.split('.')[0]}.{it.name}"
                out[metric] = (span.last if it.last else per_round(span.items), it.unit)
        return out


def import_times(python: str, env: dict, cwd: str) -> dict[str, float]:
    """Import seconds of infrasense.transforms and of scipy from one fresh
    ``python -X importtime -c "import infrasense.cli"``."""
    import subprocess

    proc = subprocess.run([python, "-X", "importtime", "-c", "import infrasense.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of infrasense.transforms, and of scipy summed over
    every scipy module not imported from inside another scipy module."""
    entries = []  # (depth, name, cumulative us), children printed before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    out = {"transforms": 0.0, "scipy": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "infrasense.transforms":
            out["transforms"] += cumulative / 1e6
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            out["scipy"] += cumulative / 1e6
        ancestors.append((depth, name))
    return out
