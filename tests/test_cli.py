"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestFeatures:
    def test_prints_matrix(self, capsys):
        assert main(["features"]) == 0
        out = capsys.readouterr().out
        assert "Bifrost" in out and "STONNE" in out


class TestRun:
    def test_lenet_on_maeri_with_mrna(self, capsys):
        assert main(["run", "lenet", "--arch", "maeri", "--mapping", "mrna"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out and "fc3" in out and "total" in out

    def test_lenet_on_sigma_with_sparsity(self, capsys):
        assert main(["run", "lenet", "--arch", "sigma",
                     "--sparsity-ratio", "0.5"]) == 0
        assert "total" in capsys.readouterr().out

    def test_lenet_on_tpu(self, capsys):
        assert main(["run", "lenet", "--arch", "tpu", "--ms-rows", "8",
                     "--ms-cols", "8"]) == 0
        assert "total" in capsys.readouterr().out

    def test_energy_flag(self, capsys):
        assert main(["run", "mlp", "--energy"]) == 0
        assert "total energy" in capsys.readouterr().out

    def test_hardware_correction_note(self, capsys):
        assert main(["run", "mlp", "--ms-size", "100"]) == 0
        assert "rounded up" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "resnet"])

    def test_retired_sparsity_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SPARSITY", "50")
        assert main(["run", "lenet", "--arch", "sigma"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: REPRO_SPARSITY is retired")
        assert "REPRO_SPARSITY_RATIO" in lines[0]

    @pytest.mark.parametrize(
        "flags",
        [["--executor", "thread"], ["--sparsity", "50"], ["--sparsity", "0"]],
    )
    def test_removed_flags_exit_2(self, flags, capsys):
        # --sparsity must not abbreviate to --sparsity-ratio.
        with pytest.raises(SystemExit) as exc:
            main(["run", "lenet", *flags])
        assert exc.value.code == 2
        assert flags[1] in capsys.readouterr().err


class TestTune:
    def test_tune_fc_layer_grid(self, capsys):
        code = main([
            "tune", "lenet", "fc2", "--tuner", "grid",
            "--objective", "cycles", "--trials", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best mapping" in out and "best cycles" in out

    def test_tune_writes_log(self, tmp_path, capsys):
        log = tmp_path / "tuning.jsonl"
        code = main([
            "tune", "lenet", "fc3", "--tuner", "random",
            "--trials", "40", "--log", str(log),
        ])
        assert code == 0
        assert log.exists() and log.read_text().strip()

    def test_unknown_layer_is_error(self, capsys):
        assert main(["tune", "lenet", "conv9"]) == 2
        assert "no layer" in capsys.readouterr().err


class TestCompare:
    def test_compare_mlp(self, capsys):
        assert main(["compare", "mlp"]) == 0
        out = capsys.readouterr().out
        assert "default" in out and "mRNA" in out and "fc1" in out


class TestMagmaSupport:
    def test_run_on_magma(self, capsys):
        assert main(["run", "lenet", "--arch", "magma",
                     "--sparsity-ratio", "0.75"]) == 0
        assert "total" in capsys.readouterr().out


class TestLayeredConfig:
    def test_run_with_config_file(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text(
            "[architecture]\nms_size = 64\n\n[engine]\nexecutor = 'serial'\n"
        )
        assert main(["run", "lenet", "--config", str(toml)]) == 0
        assert "total" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text("[architecture]\nms_size = 100\n")
        # File asks for 100 (invalid, would be corrected); flag wins with
        # a clean power of two, so no correction note is printed.
        assert main(["run", "mlp", "--config", str(toml),
                     "--ms-size", "64"]) == 0
        assert "rounded up" not in capsys.readouterr().out

    def test_bad_config_key_is_error(self, tmp_path, capsys):
        toml = tmp_path / "repro.toml"
        toml.write_text("[engine]\nexecuter = 'serial'\n")
        assert main(["run", "mlp", "--config", str(toml)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_show_json(self, capsys):
        import json

        assert main(["config", "show", "--json", "--arch", "sigma",
                     "--sparsity-ratio", "0.25"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["architecture"]["arch"] == "sigma"
        assert data["architecture"]["sparsity_ratio"] == 0.25
        assert "sparsity" not in data["architecture"]

    def test_config_show_text_is_toml(self, capsys):
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        import tomllib

        data = tomllib.loads(out)
        assert data["architecture"]["arch"] == "maeri"

    def test_cache_max_rows_flag_caps_sqlite(self, tmp_path, capsys):
        db = tmp_path / "capped.sqlite"
        assert main(["run", "lenet", "--cache-path", str(db),
                     "--cache-max-rows", "2"]) == 0
        capsys.readouterr()
        import sqlite3

        conn = sqlite3.connect(str(db))
        rows = conn.execute("SELECT COUNT(*) FROM stats").fetchone()[0]
        conn.close()
        assert rows <= 2

    def test_run_report_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["run", "mlp", "--report-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["model"] == "mlp" and data["total_cycles"] > 0


class TestImportFloor:
    """Each command imports only what it runs.

    Every command runs in a fresh interpreter, as ``python -m
    repro.cli`` does, and reports the modules loaded at exit.  None of
    these commands executes numpy code, the tuner, the IR/runtime stack,
    mRNA or the sweep service, so none of them may be imported; and the
    output must equal the same command run in this process, where they
    all are.
    """

    NEVER = ("numpy", "repro.tuner", "repro.ir", "repro.topi",
             "repro.runtime", "repro.mrna", "repro.serve")
    #: ``repro features`` output and the warm runs' total lines, as
    #: recorded for the CLI benchmark (perfbench/goldens.json).
    FEATURES_SHA256 = (
        "4cc8faabe2a9c26d78530c55b9f2a44c701faaad76075c1155a3069d134fcc62"
    )
    TOTALS = {
        "sigma": "total            7,366,350",
        "tpu": "total            6,372,625",
        "magma": "total           13,665,877",
    }
    RUNNER = (
        "import atexit, json, runpy, sys\n"
        "out = sys.argv.pop(1)\n"
        "atexit.register(lambda: open(out, 'w').write("
        "json.dumps(sorted(sys.modules))))\n"
        "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
    )

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        for name in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        monkeypatch.setenv("COLUMNS", "80")  # argparse's help width
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])

        def run(args):
            modules = tmp_path / "modules.json"
            proc = subprocess.run(
                [sys.executable, "-c", self.RUNNER, str(modules), *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            loaded = json.loads(modules.read_text())
            leaked = sorted({prefix for m in loaded for prefix in self.NEVER
                             if m == prefix or m.startswith(prefix + ".")})
            assert leaked == [], f"repro {' '.join(args)} imported {leaked}"
            return proc.stdout

        return run

    @staticmethod
    def _in_process(args, capsys):
        capsys.readouterr()
        try:
            code = main(args)
        except SystemExit as exc:  # --help
            code = exc.code
        assert code == 0
        return capsys.readouterr().out

    def test_features(self, cold, capsys):
        import hashlib

        out = cold(["features"])
        assert hashlib.sha256(out.encode()).hexdigest() == self.FEATURES_SHA256
        assert out == self._in_process(["features"], capsys)

    @pytest.mark.parametrize("args", [["config", "show", "--json"], ["--help"]])
    def test_config_show_and_help(self, cold, capsys, args):
        assert cold(args) == self._in_process(args, capsys)

    def test_warm_runs_without_mapping(self, cold, capsys, tmp_path):
        cache = str(tmp_path / "warm.sqlite")
        for arch, total in self.TOTALS.items():
            args = ["run", "alexnet", "--arch", arch, "--cache-path", cache]
            self._in_process(args, capsys)  # fill the cache
            expected = self._in_process(args, capsys)
            out = cold(args)
            assert out == expected
            assert [line for line in out.splitlines()
                    if line.startswith("total ")] == [total]
            assert "db_hits=8" in out
