"""The four benchmark workloads.

Each workload has ``setup(seed, ctx)`` returning its state and
``op(state, index, tracer)`` running one timed unit of work.  ``op``
returns an :class:`Op`: its host wall time and the outputs the harness
checks.  With a tracer, the op runs with the layer wrappers installed
(in-process workloads) or through the tracing child driver
(``cli_cold``).

Every op builds fresh sessions, serial executor, one process: the
numbers are for the program's default single-process path on a small
host.  The seed is the tuning seed of ``tuned_zoo``, generates the
functional input image, and orders the sweep plans and the CLI schedule.
Goldens hold for every seed except on ``tuned_zoo``, whose outputs
depend on the tuning seed: there they are checked at the default seed
only, and otherwise ops of one run must agree with each other.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import layers
from trace_wrap import Tracer

CLASSIC = ["alexnet", "vgg_small", "lenet", "mlp"]
MODERN = ["transformer", "depthwise_sep", "grouped_conv", "dilated_conv",
          "nhwc_conv"]
PROFILES = {
    "maeri": {"architecture": {"arch": "maeri"},
              "tuning": {"mapping": "mrna"}},
    "sigma": {"architecture": {"arch": "sigma"}},
    "tpu": {"architecture": {"arch": "tpu"}},
    "magma": {"architecture": {"arch": "magma"}},
}
AXES = {
    "ms_size": [32, 64, 128, 256, 512],
    "dn_bw": [16, 32, 64, 128],
    "sparsity_ratio": [0.0, 0.5],
}
ARCHS = ["maeri", "sigma", "tpu", "magma"]
CHILD_TIMEOUT_S = 60
#: The configuration's default tuning seed, at which the goldens of
#: ``tuned_zoo`` were recorded.
DEFAULT_SEED = 0


@dataclass
class Context:
    """Where a run may write, and how to start child interpreters."""

    root: Path          # the checkout
    workdir: Path       # scratch space inside the checkout
    goldens: Dict[str, Any]

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(Path(__file__).resolve().parent)])
        return env


@dataclass
class Op:
    """One timed operation and what it produced."""

    wall_s: float
    scenarios: int
    sim_cycles: int
    #: Ops with the same key ran the same input, so their digests (the
    #: fingerprints of their outputs) must agree.
    key: str
    digest: str
    #: Reasons the op's outputs are wrong; empty when they check out.
    errors: List[str] = field(default_factory=list)


def _sweep_digest(report) -> tuple:
    """(sim_cycles, digest) of a SweepReport, independent of plan order."""
    rows = sorted(
        (s.name, [asdict(stats) for stats in s.report.layer_stats])
        for s in report.scenarios
    )
    blob = json.dumps(rows, sort_keys=True).encode()
    cycles = sum(s.report.total_cycles for s in report.scenarios)
    return cycles, hashlib.sha256(blob).hexdigest()


def _check_golden(op: Op, golden: Dict[str, Any]) -> Op:
    if op.sim_cycles != golden["sim_cycles"]:
        op.errors.append(
            f"sim_cycles {op.sim_cycles} != golden {golden['sim_cycles']}")
    if "digest" in golden and op.digest != golden["digest"]:
        op.errors.append(f"stats digest {op.digest} != golden")
    return op


@contextlib.contextmanager
def _traced(tracer: Optional[Tracer]):
    if tracer is None:
        yield
        return
    from repro.obs.trace import TRACER

    layers.install(tracer)
    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        tracer.restore()


# ----------------------------------------------------------------------
# tuned_zoo: the paper's XGB tuned-mapping flow over the classic zoo
# ----------------------------------------------------------------------
def tuned_zoo_setup(seed: int, ctx: Context):
    from repro.session import Session  # noqa: F401  (import is set-up)
    from repro.sweep import SweepPlan  # noqa: F401

    golden = ctx.goldens["tuned_zoo"] if seed == DEFAULT_SEED else None
    return {"seed": seed, "golden": golden}


def tuned_zoo_op(state, index: int, tracer: Optional[Tracer]) -> Op:
    from repro.session import Session
    from repro.sweep import SweepPlan

    with _traced(tracer):
        start = time.perf_counter()
        with Session(arch="maeri", mapping="tuned", objective="psums",
                     seed=state["seed"], executor="serial") as session:
            report = session.sweep(SweepPlan.matrix(session.config, CLASSIC))
        wall = time.perf_counter() - start
    cycles, digest = _sweep_digest(report)
    op = Op(wall, len(report.scenarios), cycles, "sweep", digest)
    return _check_golden(op, state["golden"]) if state["golden"] else op


# ----------------------------------------------------------------------
# arch_matrix: a 1440-scenario design-space sweep with a SQLite cache
# ----------------------------------------------------------------------
def arch_matrix_setup(seed: int, ctx: Context):
    from repro.session import Session, SessionConfig  # noqa: F401
    from repro.sweep import SweepPlan  # noqa: F401

    rng = random.Random(seed)
    models = CLASSIC + MODERN
    rng.shuffle(models)
    names = list(PROFILES)
    rng.shuffle(names)
    axes = {}
    for key, values in AXES.items():
        values = list(values)
        rng.shuffle(values)
        axes[key] = values
    return {
        "models": models,
        "profiles": {name: PROFILES[name] for name in names},
        "axes": axes,
        "cache": ctx.workdir / f"arch_matrix-{os.getpid()}.sqlite",
        "golden": ctx.goldens["arch_matrix"],
    }


def arch_matrix_op(state, index: int, tracer: Optional[Tracer]) -> Op:
    from repro.session import Session, SessionConfig
    from repro.sweep import SweepPlan

    path = state["cache"]
    path.unlink(missing_ok=True)
    with _traced(tracer):
        start = time.perf_counter()
        base = SessionConfig.resolve(executor="serial", cache_path=str(path))
        plan = SweepPlan.matrix(base, state["models"],
                                profiles=state["profiles"],
                                axes=state["axes"])
        with Session(base) as session:
            report = session.sweep(plan)
        wall = time.perf_counter() - start
    path.unlink(missing_ok=True)
    cycles, digest = _sweep_digest(report)
    op = Op(wall, len(report.scenarios), cycles, "sweep", digest)
    return _check_golden(op, state["golden"])


# ----------------------------------------------------------------------
# cli_cold: fresh interpreters running repro commands
# ----------------------------------------------------------------------
def _cli_commands(cache: Path) -> List[List[str]]:
    return [["features"]] + [
        ["run", "alexnet", "--arch", arch, "--cache-path", str(cache)]
        for arch in ARCHS
    ]


def cli_cold_setup(seed: int, ctx: Context):
    import repro.cli

    cache = ctx.workdir / f"cli_cold-{os.getpid()}.sqlite"
    cache.unlink(missing_ok=True)
    commands = _cli_commands(cache)
    for command in commands[1:]:  # fill the cache the timed runs read
        with contextlib.redirect_stdout(io.StringIO()):
            if repro.cli.main(command) != 0:
                raise RuntimeError(f"cache fill failed: repro {command}")
    rng = random.Random(seed)
    schedule: List[List[str]] = []
    for _ in range(64):  # cycles of all five commands, each shuffled
        cycle = list(commands)
        rng.shuffle(cycle)
        schedule.extend(cycle)
    return {"schedule": schedule, "cache": cache, "ctx": ctx,
            "golden": ctx.goldens["cli_cold"]}


def _check_cli(command: List[str], proc, golden) -> List[str]:
    if proc.returncode != 0:
        return [f"repro {command[0]} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"]
    out = proc.stdout
    if command[0] == "features":
        digest = hashlib.sha256(out.encode()).hexdigest()
        return [] if digest == golden["features_sha256"] else [
            "repro features output differs from golden"]
    arch = command[command.index("--arch") + 1]
    lines = out.splitlines()
    errors = []
    totals = [line for line in lines if line.startswith("total ")]
    if totals != [golden["totals"][arch]]:
        errors.append(f"repro run --arch {arch}: total lines {totals}")
    if not any(line.startswith("stats cache:")
               and golden["cache_tiers"] in line for line in lines):
        errors.append(f"repro run --arch {arch}: cache was not read")
    return errors


def cli_cold_op(state, index: int, tracer: Optional[Tracer]) -> Op:
    ctx: Context = state["ctx"]
    schedule = state["schedule"]
    command = schedule[index % len(schedule)]
    argv = [sys.executable, "-m", "repro.cli", *command]
    trace_file = None
    if tracer is not None:
        trace_file = ctx.workdir / f"cli_trace-{os.getpid()}.json"
        argv = [sys.executable, str(Path(__file__).resolve().parent /
                                    "cli_driver.py"),
                str(trace_file), *command]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=ctx.child_env(), cwd=str(ctx.root),
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    golden = state["golden"]
    errors = _check_cli(command, proc, golden)
    if trace_file is not None:
        if trace_file.exists():
            child = json.loads(trace_file.read_text())
            trace_file.unlink()
            tracer.merge(child["totals"], child["counts"],
                         child["covered_s"])
        else:
            errors.append("tracing driver wrote no trace")
    totals = [line for line in proc.stdout.splitlines()
              if line.startswith("total ")]
    cycles = int(totals[0].split()[-1].replace(",", "")) if totals else 0
    return Op(wall, 0 if command[0] == "features" else 1, cycles,
              " ".join(command),
              hashlib.sha256(proc.stdout.encode()).hexdigest(), errors)


def cli_cold_close(state) -> None:
    state["cache"].unlink(missing_ok=True)


# ----------------------------------------------------------------------
# functional_alexnet: the functional datapath on a seeded image
# ----------------------------------------------------------------------
def functional_alexnet_setup(seed: int, ctx: Context):
    import numpy as np

    from repro.models.alexnet import alexnet_graph
    from repro.runtime.executor import GraphExecutor, cpu_only_policy
    from repro.session import Session  # noqa: F401

    graph = alexnet_graph()
    feed_name = graph.nodes[graph.input_ids[0]].name
    image = np.random.default_rng(seed).standard_normal((1, 3, 224, 224))
    reference = GraphExecutor(graph, cpu_only_policy).run({feed_name: image})
    return {"graph": graph, "feeds": {feed_name: image},
            "reference": reference,
            "golden": ctx.goldens["functional_alexnet"]}


def functional_alexnet_op(state, index: int, tracer: Optional[Tracer]) -> Op:
    import numpy as np

    from repro.session import Session

    with _traced(tracer):
        start = time.perf_counter()
        with Session(arch="maeri", mapping="mrna", functional=True,
                     executor="serial") as session:
            report = session.run_graph(state["graph"], state["feeds"])
        wall = time.perf_counter() - start
    outputs, reference = report.outputs, state["reference"]
    op = Op(wall, 1, report.total_cycles, "image",
            hashlib.sha256(outputs[0].tobytes()).hexdigest())
    if len(outputs) != len(reference) or not all(
            np.allclose(out, ref, rtol=1e-9, atol=1e-9)
            for out, ref in zip(outputs, reference)):
        op.errors.append("functional output differs from the CPU reference")
    return _check_golden(op, state["golden"])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Context], Any]
    op: Callable[[Any, int, Optional[Tracer]], Op]
    close: Callable[[Any], None] = lambda state: None
    #: A run ends on a multiple of this many ops, so each input of a
    #: rotating schedule is measured equally often.
    cycle: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("tuned_zoo", tuned_zoo_setup, tuned_zoo_op),
        Workload("arch_matrix", arch_matrix_setup, arch_matrix_op),
        Workload("cli_cold", cli_cold_setup, cli_cold_op, cli_cold_close,
                 cycle=5),
        Workload("functional_alexnet", functional_alexnet_setup,
                 functional_alexnet_op),
    )
}
