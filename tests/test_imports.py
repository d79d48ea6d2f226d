"""What importing the package loads: the EMD names are a plain function and
a class, while scipy loads only when EMD first runs; the CLI and its
crowd-side commands load no numpy, `synth` and `analyze` load no scipy and
run no crowd layer, and `analyze` loads no numpy.ma; the CLI run as the
program writes and flushes every output; and which functions the
benchmark's tracer finds to wrap."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infrasense
import infrasense.transforms as transforms
from infrasense.cli import main
from infrasense.dissemination import PacketEntry, SsidPacket, decode_packet

SRC = str(Path(infrasense.__file__).resolve().parents[1])
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports infrasense from this tree."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)


class TestLazyEmdExports:
    @pytest.mark.parametrize("first", [
        "import infrasense.transforms.emd",
        "from infrasense.transforms import emd",
        "import infrasense.transforms as t; t.ImfSet",
    ])
    def test_fresh_interpreter(self, first):
        proc = run_fresh(
            f"{first}\n"
            "import sys, types, infrasense.transforms.emd\n"
            "import infrasense.transforms as package\n"
            "from infrasense.transforms import ImfSet, emd\n"
            "assert isinstance(emd, types.FunctionType), emd\n"
            "assert package.emd is emd, package.emd\n"
            "assert isinstance(ImfSet, type), ImfSet\n"
            "assert package.ImfSet is sys.modules['infrasense.transforms.emd'].ImfSet is ImfSet\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            transforms.no_such_transform
        with pytest.raises(ImportError):
            from infrasense.transforms import no_such_transform  # noqa: F401

    def test_all_is_importable(self):
        for name in transforms.__all__:
            assert getattr(transforms, name) is not None


class TestImportGraph:
    def test_cli_imports_no_scipy(self):
        layers = ["trace_model", "features", "transforms.wavelets", "road_analysis",
                  "rail_analysis", "reports", "aggregation", "dissemination", "cli"]
        proc = run_fresh(
            "import sys, infrasense.cli\n"
            "print(*sys.modules, sep='\\n')\n"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]
        assert {f"infrasense.{m}" for m in layers} <= loaded

    def test_cli_imports_no_numpy(self):
        proc = run_fresh(
            "import sys, infrasense.cli\n"
            "print(*sys.modules, sep='\\n')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert not [m for m in proc.stdout.split() if m.split(".")[0] == "numpy"]

    @pytest.mark.parametrize("command", ["aggregate", "aggregate-reopen", "simulate", "encode",
                                         "decode"])
    def test_crowd_commands_load_no_numpy(self, tmp_path, command):
        geo = tmp_path / "in.geojson"
        geo.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                       '"geometry": {"type": "Point", "coordinates": [7.0, 51.0]}, '
                       '"properties": {"kind": "anomaly", "sub_kind": "", "t": 0.0, '
                       '"severity": 9, "confidence": 0.5, "value": 2.0}}]}')
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text('{"id": "a", "waypoints": [[0.0, 51.0, 7.0]]}\n'
                            '{"id": "b", "waypoints": [[0.0, 51.0002, 7.0]]}\n')
        aggregate = ["aggregate", str(geo), "--store", str(tmp_path / "s.jsonl"),
                     "--out", str(tmp_path / "snap.geojson")]
        runs = {
            "aggregate": [aggregate],
            "aggregate-reopen": [aggregate, aggregate],  # the second from the checkpoint
            "simulate": [["simulate", "--scenario", str(scenario),
                          "--out", str(tmp_path / "d.csv")]],
            "encode": [["encode", str(geo), "--lat", "51.0", "--lon", "7.0"]],
            "decode": [["decode", SsidPacket(1, 0, 51_000_000, 7_000_000,
                                             (PacketEntry(0, 0, 1, 9, 200),)).to_ssid()]],
        }[command]
        proc = run_fresh(
            "import sys\n"
            "from infrasense.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(*sys.modules, sep='\\n')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert not [m for m in proc.stdout.split() if m.split(".")[0] == "numpy"]
        if command == "aggregate-reopen":
            assert '"from_checkpoint": true' in proc.stdout

    def test_synth_and_analyze_load_no_scipy(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"duration": 20.0, "speed": 10.0, "rate": 100.0, "seed": 1, '
                        '"potholes": [{"position_m": 100.0, "depth_m": 0.05, "length_m": 0.5}]}')
        trace, rail = tmp_path / "ride.csv", tmp_path / "rail.cfg"
        rail.write_text("context = rail\n")
        runs = [["synth", "--spec", str(spec), "--out", str(trace)],
                ["analyze", str(trace), "--out", str(tmp_path / "road")],
                ["analyze", str(trace), "--config", str(rail), "--out", str(tmp_path / "rail")]]
        proc = run_fresh(
            "import sys\n"
            "from infrasense.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(*sys.modules, sep='\\n')\n"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "infrasense.rail_analysis" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]

    def test_analyze_loads_no_numpy_ma_and_no_crowd_layer(self, tmp_path):
        spec, trace = tmp_path / "spec.json", tmp_path / "ride.csv"
        spec.write_text('{"duration": 20.0, "speed": 10.0, "rate": 100.0, "seed": 1}')
        assert main(["synth", "--spec", str(spec), "--out", str(trace)]) == 0
        rail = tmp_path / "rail.cfg"
        rail.write_text("context = rail\n")
        runs = [["analyze", str(trace), "--out", str(tmp_path / "road")],
                ["analyze", str(trace), "--config", str(rail), "--out", str(tmp_path / "rail")]]
        # type() reads no attribute, so it does not run a lazy module
        proc = run_fresh(
            "import sys\n"
            "from infrasense.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "for name in ('aggregation', 'dissemination'):\n"
            "    module = sys.modules['infrasense.' + name]\n"
            "    assert type(module).__name__ == '_LazyModule', name\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_synth_runs_no_crowd_layer(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"duration": 5.0, "speed": 10.0, "rate": 100.0, "seed": 1}')
        argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "ride.csv")]
        proc = run_fresh(
            "import sys\n"
            "from infrasense.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "for name in ('aggregation', 'dissemination'):\n"
            "    module = sys.modules['infrasense.' + name]\n"
            "    assert type(module).__name__ == '_LazyModule', name\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_aggregate_runs_no_dissemination(self, tmp_path):
        geo = tmp_path / "in.geojson"
        geo.write_text('{"type": "FeatureCollection", "features": []}')
        argv = ["aggregate", str(geo), "--store", str(tmp_path / "s.jsonl")]
        proc = run_fresh(
            "import sys\n"
            "from infrasense.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "module = sys.modules['infrasense.dissemination']\n"
            "assert type(module).__name__ == '_LazyModule'\n"
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("order", ["layer first", "cli first"])
    def test_one_module_object(self, order):
        imports = ["import infrasense.trace_model as tm",
                   "import infrasense.transforms.wavelets as w",
                   "import infrasense.cli as cli"]
        if order == "cli first":
            imports.reverse()
        proc = run_fresh(
            "\n".join(imports) + "\n"
            "import sys, types, infrasense\n"
            "from infrasense.trace_model import Trace\n"
            "assert cli.trace_model is tm is infrasense.trace_model\n"
            "assert cli.trace_model.Trace is tm.Trace is Trace\n"
            "assert cli.transforms.wavelets is w is sys.modules['infrasense.transforms.wavelets']\n"
            "assert isinstance(infrasense.transforms.emd, types.FunctionType)\n"
            "from infrasense.transforms import TransformError\n"
            "assert TransformError is infrasense.transforms.TransformError is w.TransformError\n"
            "assert TransformError is sys.modules['infrasense.transforms.emd'].TransformError\n"
            "assert TransformError is cli.transforms.TransformError\n"
            "assert not hasattr(infrasense.transforms, 'stft')\n"
            "assert not hasattr(infrasense.transforms, 'hht_spectrum')\n"
        )
        assert proc.returncode == 0, proc.stderr


def run_as_program(argv: list[str]) -> subprocess.CompletedProcess:
    """`main()` in a fresh interpreter, with `argv` in ``sys.argv`` as the
    console script sets it; the heap must be frozen when main returns."""
    return run_fresh(
        "import gc, sys\n"
        "from infrasense.cli import main\n"
        f"sys.argv = ['infrasense', *{argv!r}]\n"
        "code = main()\n"
        "assert gc.get_freeze_count() > 0\n"
        "sys.exit(code)\n"
    )


class TestRunAsProgram:
    """Frozen at exit, the program still flushes stdout and writes every output."""

    def test_encode_prints_the_ssid(self, tmp_path):
        geo = tmp_path / "in.geojson"
        geo.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                       '"geometry": {"type": "Point", "coordinates": [7.0, 51.0]}, '
                       '"properties": {"kind": "anomaly", "severity": 9}}]}')
        proc = run_as_program(["encode", str(geo), "--lat", "51.0", "--lon", "7.0"])
        assert proc.returncode == 0, proc.stderr
        ssid, = proc.stdout.split()
        packet = decode_packet(ssid)
        assert (packet.lat_e6, packet.lon_e6, len(packet.entries)) == (51_000_000, 7_000_000, 1)

    def test_analyze_writes_every_output(self, tmp_path):
        spec, trace = tmp_path / "spec.json", tmp_path / "ride.csv"
        spec.write_text('{"duration": 20.0, "speed": 10.0, "rate": 100.0, "seed": 1, '
                        '"potholes": [{"position_m": 100.0, "depth_m": 0.05, '
                        '"length_m": 0.5}]}')
        assert main(["synth", "--spec", str(spec), "--out", str(trace)]) == 0
        here, there = tmp_path / "in_process", tmp_path / "program"
        assert main(["analyze", str(trace), "--out", str(here)]) == 0
        proc = run_as_program(["analyze", str(trace), "--out", str(there)])
        assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in here.iterdir())
        assert names == ["features.csv", "indicators.geojson", "manifest.json",
                         "roughness.csv"]
        assert sorted(p.name for p in there.iterdir()) == names
        for name in names:
            assert (there / name).read_bytes() == (here / name).read_bytes(), name


class TestBenchmarkTracer:
    def test_install_in_a_fresh_interpreter(self):
        """The tracer imports the CLI and wraps at once: each span's binding in
        its defining module is the wrapper, and `swt_bandpass` reaches the
        wrapped `swt`."""
        proc = run_fresh(
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {str(TRACING)!r})\n"
            "tracing = importlib.util.module_from_spec(spec)\n"
            "sys.modules[spec.name] = tracing\n"
            "spec.loader.exec_module(tracing)\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "unwrapped = []\n"
            "for s in tracing.SPANS:\n"
            "    owner = sys.modules['infrasense.' + s.module]\n"
            "    attr = s.attr\n"
            "    if '.' in attr:\n"
            "        cls, attr = attr.split('.')\n"
            "        owner = getattr(owner, cls)\n"
            "    fn = vars(owner)[attr]\n"
            "    fn = getattr(fn, '__func__', fn)\n"
            "    if not fn.__qualname__.startswith('Tracer._wrap.'):\n"
            "        unwrapped.append(f'{s.module}.{s.attr}')\n"
            "assert not unwrapped, unwrapped\n"
            "import numpy as np\n"
            "from infrasense.transforms import wavelets\n"
            "wavelets.swt_bandpass(np.zeros(64), 100.0, 1.0, 10.0)\n"
            "assert tracer.spans['transforms.swt'].calls == 1, tracer.spans['transforms.swt']\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_install_and_uninstall(self, monkeypatch):
        """Every function the benchmark times per layer exists under its name,
        and `swt_bandpass` calls `swt` through the binding the tracer wraps."""
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        from infrasense.transforms import wavelets

        swt = wavelets.swt
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wavelets.swt_bandpass(np.zeros(64), 100.0, 1.0, 10.0)
        finally:
            tracer.uninstall()
        assert tracer.spans["transforms.swt"].calls == 1
        assert wavelets.swt is swt

    def test_simulation_spans(self, monkeypatch):
        """`run_simulation` reaches `step_simulation` and `best_packet`
        through the bindings the tracer wraps."""
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        from infrasense.dissemination import SimNode, run_simulation

        a = SimNode(id="a", waypoints=[(0.0, 51.0, 7.0)], period=2.0)
        b = SimNode(id="b", waypoints=[(0.0, 51.0002, 7.0)], period=2.0, phase=1.0)
        a.receive(SsidPacket(1, 0, 51_000_000, 7_000_000,
                             (PacketEntry(0, 0, 1, 9, 200),)).to_ssid())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            log = run_simulation([a, b], duration=3.0)
        finally:
            tracer.uninstall()
        assert len(log) == 1
        assert tracer.spans["dissemination.step_simulation"].calls == 3
        assert tracer.spans["dissemination.SimNode.best_packet"].calls >= 1
