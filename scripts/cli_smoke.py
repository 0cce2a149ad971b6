"""CLI floor smoke test: each ``repro`` call imports only what it runs.

Runs the five commands of the ``cli_cold`` benchmark workload
(``repro features`` and ``repro run alexnet --arch A --cache-path F``
for the four architectures, ``F`` filled first) in fresh interpreters
and asserts:

* every command exits 0, and every run is served from the warm SQLite
  file (``db_hits=8``, no simulation);
* no command imports the tuner, the IR/TOPI/runtime stack or the sweep
  service, and only ``run --arch maeri`` (whose default mRNA mapper
  needs it) imports numpy or ``repro.mrna``.

It then prints each command's median wall time over a few fresh
interpreters next to ``python -c pass``.  The times are informational:
shared CI hosts are too noisy for a timing gate, so none is applied.

Run:  PYTHONPATH=src python scripts/cli_smoke.py
Exit: 0 on success, 1 on any failure.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
ARCHS = ("maeri", "sigma", "tpu", "magma")
#: Never imported by these commands.
NEVER = ("repro.tuner", "repro.ir", "repro.topi", "repro.runtime",
         "repro.serve")
#: Imported only by the run whose mappings come from mRNA.
MAPPING_ONLY = ("numpy", "repro.mrna")
REPEATS = 5
#: Runs ``python -m repro.cli ARGS`` and writes ``sorted(sys.modules)``
#: to the file named by the first argument at exit.
RUNNER = (
    "import atexit, json, runpy, sys\n"
    "out = sys.argv.pop(1)\n"
    "atexit.register(lambda: open(out, 'w').write("
    "json.dumps(sorted(sys.modules))))\n"
    "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)\n"
)


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(argv, env):
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(argv[1:])} exited "
                         f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc.stdout


def _loaded(args, env, tmp):
    """stdout and module names of one fresh ``repro ARGS`` call."""
    out_file = Path(tmp) / "modules.json"
    stdout = _run([sys.executable, "-c", RUNNER, str(out_file), *args], env)
    return stdout, json.loads(out_file.read_text())


def _median_s(argv, env):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _run(argv, env)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    env = _env()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = str(Path(tmp) / "warm.sqlite")
        commands = [["features"]] + [
            ["run", "alexnet", "--arch", arch, "--cache-path", cache]
            for arch in ARCHS
        ]
        for command in commands[1:]:  # fill the cache the checks read
            _run([sys.executable, "-m", "repro.cli", *command], env)

        for command in commands:
            label = "repro " + " ".join(command[:4])
            stdout, modules = _loaded(command, env, tmp)
            forbidden = NEVER
            if "maeri" not in command:
                forbidden += MAPPING_ONLY
            leaked = sorted({p for m in modules for p in forbidden
                             if m == p or m.startswith(p + ".")})
            problems = [f"{label} imported {leaked}"] if leaked else []
            if command[0] == "run" and "db_hits=8" not in stdout:
                problems.append(f"{label} was not served from the cache")
            failures += problems
            if not problems:
                print(f"ok: {label}: {len(modules)} modules, "
                      f"{sum(1 for m in modules if m.startswith('repro'))} "
                      f"from repro")

        print(f"median wall time of {REPEATS} fresh interpreters "
              f"(informational, no gate):")
        floor = _median_s([sys.executable, "-c", "pass"], env)
        print(f"  {'python -c pass':<34}{floor:7.3f} s")
        for command in commands:
            label = "repro " + " ".join(command[:4])
            seconds = _median_s(
                [sys.executable, "-m", "repro.cli", *command], env)
            print(f"  {label:<34}{seconds:7.3f} s")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("cli smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
