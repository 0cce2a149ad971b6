"""Tests for errors, version, workloads, and package exports."""

import pytest

import repro
from repro import errors
from repro.workloads import (
    fig10_conv,
    medium_gemm,
    multiplier_sweep,
    sparsity_sweep,
    tiny_conv,
    tiny_fc,
)


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigError", "MappingError", "LayerError",
            "UnsupportedLayerError", "GraphError", "ShapeInferenceError",
            "FrontendError", "TuningError", "SimulationError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.UnsupportedLayerError, errors.LayerError)
        assert issubclass(errors.ShapeInferenceError, errors.GraphError)

    def test_single_catch_point(self):
        with pytest.raises(errors.ReproError):
            raise errors.TuningError("x")


class TestVersion:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"


class TestWorkloads:
    def test_fig10_dimensions_match_paper(self):
        layer = fig10_conv()
        assert (layer.N, layer.C, layer.H, layer.W) == (1, 2, 10, 10)
        assert (layer.K, layer.R, layer.S) == (8, 3, 3)  # documented choice

    def test_tiny_workloads_fit_smallest_array(self):
        assert tiny_conv().macs > 0
        assert tiny_fc().macs > 0
        assert medium_gemm().macs == 64 * 256 * 32

    def test_sweeps_match_paper(self):
        assert multiplier_sweep() == [8, 16, 32, 64, 128]
        assert sparsity_sweep() == [0, 50]


class TestPackageSurface:
    def test_stonne_exports(self):
        import repro.stonne as stonne

        for name in stonne.__all__:
            assert hasattr(stonne, name), name

    def test_bifrost_exports(self):
        import repro.bifrost as bifrost

        for name in bifrost.__all__:
            assert hasattr(bifrost, name), name

    def test_tuner_exports(self):
        import repro.tuner as tuner

        for name in tuner.__all__:
            assert hasattr(tuner, name), name

    def test_ir_and_topi_exports(self):
        import repro.ir as ir
        import repro.topi as topi

        for name in ir.__all__:
            assert hasattr(ir, name), name
        for name in topi.__all__:
            assert hasattr(topi, name), name


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter importing this checkout's
    ``repro``; return what it printed as JSON."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyPackageSurface:
    """Package re-exports resolve on first use (PEP 562); each check
    runs in a fresh interpreter, so no earlier import can mask a gap."""

    PACKAGES = ("repro.stonne", "repro.bifrost", "repro.engine",
                "repro.session", "repro.models", "repro.tuner",
                "repro.sweep", "repro.obs")

    def test_every_export_resolves_and_is_listed(self):
        report = _fresh_interpreter(f"""
import importlib, json
out = {{}}
for name in {self.PACKAGES!r}:
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    out[name] = {{
        "count": len(pkg.__all__),
        "unresolved": [n for n in pkg.__all__ if not hasattr(pkg, n)],
        "not_in_dir": [n for n in pkg.__all__ if n not in listed],
    }}
print(json.dumps(out))
""")
        for name, entry in report.items():
            assert entry["count"] > 0, name
            assert entry["unresolved"] == [], name
            assert entry["not_in_dir"] == [], name

    def test_lookup_of_unknown_name_raises_attribute_error(self):
        import repro.stonne as stonne

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            stonne.Nope  # noqa: B018

    def test_architecture_object_survives_submodule_import(self):
        # ``repro.bifrost.architecture`` names both a submodule and the
        # Listing-1 ``architecture`` object it defines.
        report = _fresh_interpreter("""
import json
import repro.bifrost.architecture
from repro.bifrost import architecture
print(json.dumps(type(architecture).__name__))
""")
        assert report == "Architecture"

    def test_remote_backend_listed_without_importing_fleet(self):
        report = _fresh_interpreter("""
import contextlib, io, json, sys
from repro.engine import registered_backends
from repro.session import SessionConfig
import repro.cli

names = registered_backends()
executor = SessionConfig.resolve(env=False, executor="remote").engine.executor
help_text = io.StringIO()
with contextlib.redirect_stdout(help_text):
    try:
        repro.cli.main(["run", "--help"])
    except SystemExit:
        pass
print(json.dumps({
    "names": names,
    "executor": executor,
    "choices_listed": "{process,remote,serial}" in help_text.getvalue(),
    "fleet_imported": "repro.fleet" in sys.modules,
}))
""")
        assert "remote" in report["names"]
        assert {"process", "serial"} <= set(report["names"])
        assert report["executor"] == "remote"
        assert report["choices_listed"]
        assert not report["fleet_imported"]
