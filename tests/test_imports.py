"""What importing the package loads: EMD (and so scipy) only on first use;
and which functions the benchmark's tracer finds to wrap."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infrasense
import infrasense.transforms as transforms

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
        "import infrasense.transforms as t; t.hht_spectrum",
    ])
    def test_fresh_interpreter(self, first):
        proc = run_fresh(
            f"{first}\n"
            "import types, infrasense.transforms.emd\n"
            "import infrasense.transforms as package\n"
            "from infrasense.transforms import ImfSet, emd, hht_spectrum\n"
            "assert isinstance(emd, types.FunctionType), emd\n"
            "assert package.emd is emd, package.emd\n"
            "assert isinstance(hht_spectrum, types.FunctionType), hht_spectrum\n"
            "assert isinstance(ImfSet, type), ImfSet\n"
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


class TestBenchmarkTracer:
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
