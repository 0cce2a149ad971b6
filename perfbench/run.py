"""Benchmark harness for the ``repro`` Bifrost reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tuned_zoo --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` alternates untraced and traced runs of the
same input and reports the per-layer metrics (per-op values from the
traced ops), the op time no wrapped call covers, and the traced/untraced
wall-time ratio; the spans of the first traced in-process op (the
program's own spans with the wrappers') go to
``perfbench/results/trace-<workload>.json``, which
``repro trace summary`` reads.

Every op's outputs are checked (goldens in ``goldens.json``, agreement
between ops of one run, and a CPU reference for the functional
datapath); an op that fails a check or raises counts in ``failed``.
The last stdout line is the JSON result; the line before it stamps the
host.
Workloads, metrics and baselines are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: An untraced run makes at least this many ops, whatever --seconds says:
#: two, so that ops of one input can be checked against each other, and
#: tuned_zoo's runs (10-18 s ops) stay short.
MIN_OPS = 2
#: A traced run makes at least this many untraced/traced op pairs.
MIN_PAIRS = 2
#: No new op starts after this many seconds of measuring, so a run ends
#: well inside the three minutes a run may take.
MAX_MEASURE_S = 120.0
#: Fresh interpreters timed from start to ready; setup_s is their median.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready', exit (setup_s probe)")
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter on this harness to
    the workload being ready to run (imports, cache fill, graph build)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT)) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(ready - start)
    return statistics.median(samples)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Checker:
    """Counts attempted and failed ops; ops of one key must agree."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first = {}  # key -> first op

    def run(self, workload, state, index, tracer):
        from workloads import Op

        self.attempted += 1
        start = time.perf_counter()
        try:
            op = workload.op(state, index, tracer)
        except Exception as exc:
            # The op counts, with the time it ran until it raised.
            if not self.failed:
                traceback.print_exc()
            else:
                print(f"op {index} raised {exc!r}", file=sys.stderr)
            self.failed += 1
            return Op(time.perf_counter() - start, 0, 0, "", "",
                      [repr(exc)])
        first = self.first.setdefault(op.key, op)
        if op.digest != first.digest or op.sim_cycles != first.sim_cycles:
            op.errors.append(f"op {index} disagrees with the first op of "
                             f"input {op.key!r}")
        if op.errors:
            self.failed += 1
            print(f"op {index} failed: {'; '.join(op.errors)}",
                  file=sys.stderr)
        return op

    def sim_cycles(self) -> int:
        """Simulated cycles of one pass over the workload's inputs."""
        return sum(op.sim_cycles for op in self.first.values())


def _keep_going(start, index, cycle, have, need, seconds) -> bool:
    elapsed = time.perf_counter() - start
    if index % cycle:
        return elapsed < MAX_MEASURE_S + 30
    if elapsed >= MAX_MEASURE_S:
        return False
    return elapsed < seconds or have < need


def measure(workload, state, seconds, checker):
    """Untraced ops for ``seconds`` (and at least MIN_OPS)."""
    ops = []
    start = time.perf_counter()
    index = 0
    while _keep_going(start, index, workload.cycle, len(ops), MIN_OPS,
                      seconds):
        ops.append(checker.run(workload, state, index, None))
        index += 1
    wall = statistics.median(op.wall_s for op in ops)
    per_op = statistics.fmean(op.scenarios for op in ops)
    in_children = workload.name == "cli_cold"
    return {
        "wall_s": (wall, "s"),
        "scenarios_per_s": (per_op / wall, "1/s"),
        "sim_cycles": (checker.sim_cycles(), "cycles"),
        "peak_rss_mb": (peak_rss_mb(in_children), "MB"),
        "pass_ratio": ((checker.attempted - checker.failed)
                       / checker.attempted, "ratio"),
        "ops": (len(ops), "count"),
    }


def measure_traced(workload, state, seconds, checker, trace_path):
    """Pairs of an untraced and a traced op on the same input."""
    import layers
    from trace_wrap import Tracer

    from repro.obs.trace import write_trace

    tracer = Tracer()
    plain, traced, uncovered = [], [], []
    start = time.perf_counter()
    index = 0
    while _keep_going(start, index, workload.cycle, len(traced), MIN_PAIRS,
                      seconds):
        # Alternate which of the pair runs first, so warm-up and drift
        # do not favour one side.
        if index % 2 == 0:
            base = checker.run(workload, state, index, None)
        covered = tracer.covered_s
        op = checker.run(workload, state, index, tracer)
        spans = layers.end_op(tracer)
        if index % 2 == 1:
            base = checker.run(workload, state, index, None)
        if spans and not trace_path.exists():
            write_trace(str(trace_path), spans,
                        meta={"workload": workload.name})
        plain.append(base.wall_s)
        traced.append(op.wall_s)
        uncovered.append(op.wall_s - (tracer.covered_s - covered))
        index += 1
    extra = layers.untracked_spans(tracer)
    if extra:
        print(f"spans with no per-layer metric: {extra}", file=sys.stderr)
    values = layers.per_layer_metrics(tracer, len(traced))
    values["op_wall_s"] = statistics.fmean(traced)
    values["unattributed_s"] = statistics.fmean(uncovered)
    values["trace_overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(plain))
    units = dict(layers.catalog())
    return {name: (values[name], units[name]) for name, _ in
            layers.catalog()}


def host_stamp(args, names) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "workloads": names,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    ctx = Context(root=ROOT, workdir=workdir,
                  goldens=json.loads((BENCH / "goldens.json").read_text()))

    if args.setup_only:
        state = workload.setup(args.seed, ctx)
        print("ready", flush=True)
        workload.close(state)
        return 0

    state = workload.setup(args.seed, ctx)
    checker = Checker()
    try:
        if args.trace:
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            trace_path = results / f"trace-{workload.name}.json"
            trace_path.unlink(missing_ok=True)
            metrics = measure_traced(workload, state, args.seconds, checker,
                                     trace_path)
        else:
            metrics = measure(workload, state, args.seconds, checker)
    finally:
        workload.close(state)
    if not args.trace:
        # After measuring, so the probes do not count in the children's
        # peak RSS that cli_cold reports.
        metrics["setup_s"] = (setup_seconds(args), "s")

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps({"host": host_stamp(args, list(WORKLOADS))}))
    metrics.pop("ops", None)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
